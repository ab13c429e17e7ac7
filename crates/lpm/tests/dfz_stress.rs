//! DFZ-2026-scale stress: build every engine at the ~1M-prefix IPv4
//! preset (and the v6 engines at the 200k preset), hold sampled
//! lookups to the shared battery's table oracle and batch identity
//! (`common/oracle.rs`, `common/batches.rs`), drive a churn round
//! through `apply_delta` on the engines that patch, and record
//! per-engine storage so regressions are visible.
//!
//! Two tiers:
//! * `dfz_*_full` — the real presets (1.01M v4 / 200k v6), `#[ignore]`d
//!   by default; run with `cargo test --release -- --ignored dfz_`.
//! * `dfz_*_quick` — the same checks at CI scale (150k v4 / 30k v6).
//!
//! The storage ceilings are set ~50 % above the measured full-scale
//! numbers (see EXPERIMENTS.md E25) — they catch a layout regression
//! that doubles a structure, not noise.

#[path = "common/batches.rs"]
mod batches;
#[path = "common/oracle.rs"]
mod oracle;

use batches::check_batches;
use oracle::check_oracle;
use spal_lpm::binary::{BinaryTrie, GenericBinaryTrie};
use spal_lpm::dir24::Dir24_8;
use spal_lpm::dp::DpTrie;
use spal_lpm::lctrie::LcTrie;
use spal_lpm::lulea::LuleaTrie;
use spal_lpm::multibit::MultibitTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::ship::Ship6;
use spal_lpm::Lpm;
use spal_rib::synth::{self, SynthConfig};
use spal_rib::updates::{apply, update_stream, Update, UpdateStreamConfig};
use spal_rib::v6::{synthesize6_dfz, Prefix6, Update6};
use spal_rib::{Prefix, RoutingTable};
use std::time::Instant;

/// Deterministic address sampler (splitmix-style), independent of the
/// table generator's RNG.
fn sample_addrs(count: usize, seed: u64) -> Vec<u64> {
    let mut x = seed;
    (0..count)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// An engine with a patch path paired with its rebuild constructor (the
/// fallback when `apply_delta` declines).
type EngineArm = (Box<dyn Lpm>, fn(&RoutingTable) -> Box<dyn Lpm>);

/// Update batch length of the churn round.
const CHURN_BATCH: usize = 256;

/// Lookup batch length of the batch-identity check: two 16-lane groups,
/// one 4-lane group and a scalar tail per call.
const LOOKUP_BATCH: usize = 37;

/// The battery on sampled probes: `engine` agrees with `table`'s
/// longest match, and its batch entry points with its scalar ones.
fn check_sampled<A: spal_rib::bits::AddressBits>(
    engine: &dyn Lpm<A>,
    table: &RoutingTable<A>,
    addrs: &[A],
) {
    check_oracle(engine, table, addrs).unwrap();
    check_batches(engine, addrs, LOOKUP_BATCH).unwrap();
}

/// Build every IPv4 engine over `table`, hold sampled probes to the
/// battery, and check storage ceilings. Then push a churn round through
/// `apply_delta` on the engines that patch in place (DIR-24-8, DP,
/// Poptrie, the binary trie): each declined batch is rebuilt — that
/// fallback is the contract, a panic is the bug this tier exists to
/// catch — and with `require_patch` every batch must patch. The other
/// engines have no patch path, so churning them would only re-run
/// `build`, which the first half already checks.
fn run_v4_tier(
    table: RoutingTable,
    probes: usize,
    max_bytes_per_route: &[(&str, f64)],
    require_patch: bool,
) {
    let n = table.len();
    let mut patching: Vec<EngineArm> = vec![
        (Box::new(Dir24_8::build(&table)), |t| {
            Box::new(Dir24_8::build(t))
        }),
        (Box::new(DpTrie::build(&table)), |t| {
            Box::new(DpTrie::build(t))
        }),
        (Box::new(Poptrie::build(&table)), |t| {
            Box::new(Poptrie::build(t))
        }),
        (Box::new(BinaryTrie::build(&table)), |t| {
            Box::new(BinaryTrie::build(t))
        }),
    ];
    let rebuilding: Vec<Box<dyn Lpm>> = vec![
        Box::new(LuleaTrie::build(&table)),
        Box::new(LcTrie::build(&table)),
        Box::new(MultibitTrie::build_16_8_8(&table)),
    ];
    let engines = || patching.iter().map(|(e, _)| e).chain(&rebuilding);

    // Storage record + ceilings.
    for engine in engines() {
        let bytes = engine.storage_bytes();
        let per_route = bytes as f64 / n as f64;
        eprintln!(
            "[dfz] {:>8}: {:>12} bytes at {} routes ({:.1} B/route)",
            engine.name(),
            bytes,
            n,
            per_route
        );
        if let Some(&(_, cap)) = max_bytes_per_route
            .iter()
            .find(|&&(name, _)| name == engine.name())
        {
            assert!(
                per_route <= cap,
                "{} storage regressed: {per_route:.1} B/route > cap {cap}",
                engine.name()
            );
        }
    }

    // Sampled lookup correctness, uniform + prefix-biased probes.
    let uniform = sample_addrs(probes, 0xD5A7);
    let biased: Vec<u32> = (0..probes)
        .map(|i| {
            let e = &table.entries()[(i * 7919) % n];
            let low = if e.prefix.len() >= 32 {
                0
            } else {
                (uniform[i] as u32) >> e.prefix.len()
            };
            e.prefix.bits() | low
        })
        .collect();
    let addrs: Vec<u32> = uniform.iter().map(|&a| a as u32).chain(biased).collect();
    for engine in engines() {
        check_sampled(engine.as_ref(), &table, &addrs);
    }

    // Churn round: a DFZ-shaped update stream applied in batches. Every
    // patching engine must either patch or decline — never panic — and
    // stay lookup-equivalent afterwards.
    let (updates, fin) = update_stream(
        &table,
        &UpdateStreamConfig {
            count: 2_000,
            withdraw_fraction: 0.3,
            seed: 0xC0FFEE,
        },
    );
    let mut rib = table.clone();
    let mut declines = vec![0usize; patching.len()];
    for chunk in updates.chunks(CHURN_BATCH) {
        let mut changed: Vec<Prefix> = Vec::new();
        for &u in chunk {
            let p = match u {
                Update::Announce(e) => e.prefix,
                Update::Withdraw(p) => p,
            };
            if !changed.contains(&p) {
                changed.push(p);
            }
            spal_rib::updates::apply(&mut rib, u);
        }
        for (i, (engine, rebuild)) in patching.iter_mut().enumerate() {
            if engine.apply_delta(&changed, &rib).is_none() {
                declines[i] += 1;
                *engine = rebuild(&rib);
            }
        }
    }
    assert_eq!(rib.len(), fin.len());
    let batches = updates.len().div_ceil(CHURN_BATCH);
    for (i, (engine, _)) in patching.iter().enumerate() {
        eprintln!(
            "[dfz] {:>8}: {} decline(s) over {batches} churn batches",
            engine.name(),
            declines[i],
        );
        assert!(
            !require_patch || declines[i] == 0,
            "{} declined {} of {batches} churn batches: its patch path stopped patching",
            engine.name(),
            declines[i]
        );
        check_sampled(engine.as_ref(), &fin, &addrs[..addrs.len() / 4]);
    }
}

/// v6 tier: SHIP and the binary trie at DFZ scale — storage, the
/// battery on sampled probes, and a churn round through SHIP's
/// bin-granular patching.
fn run_v6_tier(size: usize, probes: usize) {
    let t0 = Instant::now();
    let table = synthesize6_dfz(size, 0xD15C);
    eprintln!("[dfz] v6 table ({size}) generated in {:?}", t0.elapsed());

    let t0 = Instant::now();
    let ship = Ship6::build(&table);
    let ship_build = t0.elapsed();
    let t0 = Instant::now();
    let trie = GenericBinaryTrie::build(&table);
    let trie_build = t0.elapsed();
    eprintln!(
        "[dfz] SHIP built in {ship_build:?} ({} B), binary in {trie_build:?} ({} B)",
        ship.storage_bytes(),
        trie.storage_bytes()
    );
    // The acceptance gate's storage half, pinned at both scales.
    assert!(
        ship.storage_bytes() <= trie.storage_bytes(),
        "SHIP must not use more storage than the binary trie"
    );

    let samples = sample_addrs(probes, 0x6F6F);
    let addrs: Vec<u128> = samples
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if i % 2 == 0 {
                let e = &table.entries()[(i * 104_729) % table.len()];
                e.prefix.bits() | s as u128
            } else {
                (s as u128) << 64 | samples[(i + 1) % samples.len()] as u128
            }
        })
        .collect();
    check_sampled(&ship, &table, &addrs);
    check_sampled(&trie, &table, &addrs);

    // Churn through the bin-granular patch path.
    let (updates, fin) = update_stream(
        &table,
        &UpdateStreamConfig {
            count: 1_000,
            withdraw_fraction: 0.3,
            seed: 0xFEED,
        },
    );
    let mut rib = table.clone();
    let mut ship = ship;
    let mut trie = trie;
    let mut declines = 0usize;
    for chunk in updates.chunks(128) {
        let mut changed: Vec<Prefix6> = Vec::new();
        for &u in chunk {
            let p = match u {
                Update6::Announce(e) => e.prefix,
                Update6::Withdraw(p) => p,
            };
            if !changed.contains(&p) {
                changed.push(p);
            }
            apply(&mut rib, u);
        }
        if ship.apply_delta(&changed, &rib).is_none() {
            declines += 1;
            ship = Ship6::build(&rib);
        }
        assert!(trie.apply_delta(&changed, &rib).is_some());
    }
    assert_eq!(rib.len(), fin.len());
    eprintln!("[dfz] SHIP churn: {declines} decline(s)");
    check_sampled(&ship, &fin, &addrs[..probes / 2]);
    check_sampled(&trie, &fin, &addrs[..probes / 2]);
}

/// Full-scale ceilings, ~50 % above the measured DFZ-2026 numbers
/// (1.01M routes: DIR-24-8 41.6, Lulea 8.1, LC 17.9, DP 33.6,
/// Multibit 109.4, Poptrie 7.7 B/route — EXPERIMENTS.md E25).
const FULL_CAPS: &[(&str, f64)] = &[
    ("DIR-24-8", 65.0),
    ("Lulea", 12.0),
    ("LC", 27.0),
    ("DP", 50.0),
    ("Multibit", 165.0),
    ("Poptrie", 12.0),
];

#[test]
#[ignore = "heavy: ~1M-prefix build of every engine; run with --ignored"]
fn dfz_v4_full() {
    let table = synth::dfz2026_v4(0xDF2026);
    assert_eq!(table.len(), synth::DFZ2026_V4_SIZE);
    run_v4_tier(table, 4_000, FULL_CAPS, false);
}

#[test]
fn dfz_v4_quick() {
    // Same shape, CI scale; caps get extra slack because fixed-size
    // structures (DIR-24-8's 32 MB base array, the multibit root level)
    // dominate per-route cost at small N (measured: 231.8 and 378.1
    // B/route at 150k).
    let caps: Vec<(&str, f64)> = FULL_CAPS
        .iter()
        .map(|&(name, cap)| match name {
            "DIR-24-8" => (name, 350.0),
            "Multibit" => (name, 550.0),
            _ => (name, cap * 2.0),
        })
        .collect();
    let table = synth::synthesize(&SynthConfig::dfz2026(150_000, 0xDF2026));
    run_v4_tier(table, 1_500, &caps, true);
}

#[test]
#[ignore = "heavy: 200k-prefix v6 build; run with --ignored"]
fn dfz_v6_full() {
    run_v6_tier(spal_rib::v6::DFZ2026_V6_SIZE, 3_000);
}

#[test]
fn dfz_v6_quick() {
    run_v6_tier(30_000, 1_000);
}
