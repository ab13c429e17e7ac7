//! Cross-crate integration: the full SPAL pipeline — synthetic table →
//! bit selection → ROT-partitions → per-LC tries → LR-caches → cycle
//! simulation — checked against the linear full-table oracle.

use rand::{Rng, SeedableRng};
use spal::cache::LrCacheConfig;
use spal::core::bits::{eta_for, select_bits};
use spal::core::partition::Partitioning;
use spal::core::{ForwardingTable, LpmAlgorithm, SpalRouter, SpalRouterConfig};
use spal::lpm::Lpm;
use spal::rib::synth;
use spal::sim::{RouterKind, RouterSim, SimConfig};
use spal::traffic::{preset, PresetName, TracePreset};

fn addresses(table: &spal::rib::RoutingTable, n: usize, seed: u64) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut addrs: Vec<u32> = (0..n / 2).map(|_| rng.gen()).collect();
    while addrs.len() < n {
        let e = table.entries()[rng.gen_range(0..table.len())];
        addrs.push(e.prefix.first_addr() + (rng.gen::<u64>() % e.prefix.size()) as u32);
    }
    addrs
}

#[test]
fn partitioned_tries_equal_full_table_for_every_algorithm() {
    let table = synth::synthesize(&synth::SynthConfig::sized(8_000, 1));
    for psi in [3usize, 4, 16] {
        let bits = select_bits(&table, eta_for(psi));
        let part = Partitioning::new(&table, bits, psi);
        let partitions = part.forwarding_tables(&table);
        for algo in [
            LpmAlgorithm::Binary,
            LpmAlgorithm::Dp,
            LpmAlgorithm::Lulea,
            LpmAlgorithm::Lc,
        ] {
            let tries: Vec<ForwardingTable> = partitions
                .iter()
                .map(|t| ForwardingTable::build(algo, t))
                .collect();
            for &addr in addresses(&table, 400, 2).iter() {
                let home = part.home_of(addr) as usize;
                assert_eq!(
                    tries[home].lookup(addr),
                    table.longest_match(addr).map(|e| e.next_hop),
                    "psi={psi} algo={} addr={addr:#010x}",
                    tries[home].name()
                );
            }
        }
    }
}

#[test]
fn functional_router_and_simulator_agree_on_sharing_semantics() {
    let table = synth::synthesize(&synth::SynthConfig::sized(5_000, 3));
    // Functional router: exact per-lookup outcomes.
    let mut router = SpalRouter::build(
        &table,
        &SpalRouterConfig {
            psi: 4,
            algorithm: LpmAlgorithm::Lulea,
            cache: LrCacheConfig {
                blocks: 1024,
                ..LrCacheConfig::default()
            },
        },
    );
    for &addr in addresses(&table, 2_000, 4).iter() {
        let (nh, _) = router.lookup((addr % 4) as u16, addr);
        assert_eq!(nh, table.longest_match(addr).map(|e| e.next_hop));
    }

    // Simulator: same table, every packet completes, FE work is shared.
    let p = TracePreset {
        distinct: 2_000,
        ..preset(PresetName::D75)
    };
    let traces = p.generate(&table, 4 * 5_000, 5).split(4);
    let report = RouterSim::new(
        &table,
        &traces,
        SimConfig {
            kind: RouterKind::Spal,
            psi: 4,
            cache: LrCacheConfig {
                blocks: 1024,
                ..LrCacheConfig::default()
            },
            packets_per_lc: 5_000,
            seed: 5,
            ..SimConfig::default()
        },
    )
    .run();
    assert_eq!(report.latency.count(), 4 * 5_000);
    let fe_total: u64 = report.per_lc.iter().map(|l| l.fe_lookups).sum();
    // Sharing: far fewer FE lookups than packets.
    assert!(fe_total < 4 * 5_000 / 2, "fe lookups {fe_total}");
}

#[test]
fn spal_reduces_fe_load_versus_baselines() {
    let table = synth::synthesize(&synth::SynthConfig::sized(5_000, 7));
    let p = TracePreset {
        distinct: 2_000,
        ..preset(PresetName::D81)
    };
    let traces = p.generate(&table, 4 * 4_000, 9).split(4);
    let run = |kind: RouterKind| {
        RouterSim::new(
            &table,
            &traces,
            SimConfig {
                kind,
                psi: 4,
                cache: LrCacheConfig {
                    blocks: 512,
                    ..LrCacheConfig::default()
                },
                packets_per_lc: 4_000,
                seed: 9,
                ..SimConfig::default()
            },
        )
        .run()
    };
    let spal = run(RouterKind::Spal);
    let cache_only = run(RouterKind::CacheOnly);
    let fe = |r: &spal::sim::SimReport| r.per_lc.iter().map(|l| l.fe_lookups).sum::<u64>();
    assert!(fe(&spal) < fe(&cache_only));
    // Both complete everything.
    assert_eq!(spal.latency.count(), 4 * 4_000);
    assert_eq!(cache_only.latency.count(), 4 * 4_000);
    // And SPAL's mean lookup is no worse.
    assert!(spal.mean_lookup_cycles() <= cache_only.mean_lookup_cycles() * 1.05);
}

#[test]
fn storage_claim_holds_end_to_end() {
    // Sec. 4's conclusion: per-LC SRAM saving from partitioning dwarfs
    // the LR-cache added (4K blocks x 6 B = 24 KB).
    let table = synth::synthesize(&synth::SynthConfig::sized(40_000, 11));
    let whole = ForwardingTable::build(LpmAlgorithm::Lulea, &table).storage_bytes();
    let bits = select_bits(&table, 4);
    let part = Partitioning::new(&table, bits, 16);
    let max_part = part
        .forwarding_tables(&table)
        .iter()
        .map(|t| ForwardingTable::build(LpmAlgorithm::Lulea, t).storage_bytes())
        .max()
        .unwrap();
    let saving = whole - max_part;
    assert!(
        saving > 4096 * 6,
        "saving {saving} must exceed the 24 KB LR-cache"
    );
}

#[test]
fn update_flush_preserves_correctness() {
    let table = synth::synthesize(&synth::SynthConfig::sized(3_000, 13));
    let mut router = SpalRouter::build(
        &table,
        &SpalRouterConfig {
            psi: 2,
            algorithm: LpmAlgorithm::Dp,
            cache: LrCacheConfig {
                blocks: 256,
                ..LrCacheConfig::default()
            },
        },
    );
    let addrs = addresses(&table, 300, 15);
    for &a in &addrs {
        router.lookup(0, a);
    }
    router.flush_caches();
    for &a in &addrs {
        let (nh, _) = router.lookup(1, a);
        assert_eq!(nh, table.longest_match(a).map(|e| e.next_hop));
    }
}
