//! Property test for the batched lookup contract: for **every** engine,
//! `lookup_batch` must be bit-identical to per-address `lookup_counted`
//! — next hops *and* modelled memory-access counts — and
//! `forward_batch` must yield the same next hops as `lookup` and as the
//! counted path, for arbitrary tables, arbitrary address mixes, and
//! every batch length from 0 to 40 (covering 16-lane groups, 4-lane
//! groups and the scalar tails of the group drivers), before and after
//! an `apply_delta` of an arbitrary update stream.

use proptest::prelude::*;
use spal_lpm::binary::BinaryTrie;
use spal_lpm::dir24::Dir24_8;
use spal_lpm::dp::DpTrie;
use spal_lpm::lctrie::LcTrie;
use spal_lpm::lulea::LuleaTrie;
use spal_lpm::multibit::MultibitTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::{CountedLookup, Lpm};
use spal_rib::updates::{apply, update_stream, UpdateStreamConfig};
use spal_rib::{synth, Prefix, RoutingTable};

/// Address mix: half biased near the table's prefixes (via the low-seed
/// synth generator's preference for common first octets), half fully
/// random, plus edge addresses — so batches mix hits, misses, shallow
/// and deep walks.
fn arb_addrs() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u32>(),
            (0u32..=0xFF).prop_map(|hi| hi << 24 | 0x0101),
            Just(0u32),
            Just(u32::MAX),
        ],
        0..=130,
    )
}

fn check_engine(lpm: &dyn Lpm, addrs: &[u32], batch: usize) -> Result<(), TestCaseError> {
    // Length 0 is a batch too.
    lpm.lookup_batch(&[], &mut []);
    lpm.forward_batch(&[], &mut []);
    let mut out = vec![CountedLookup::MISS; addrs.len()];
    let mut fwd = vec![None; addrs.len()];
    for ((chunk, chunk_out), chunk_fwd) in addrs
        .chunks(batch)
        .zip(out.chunks_mut(batch))
        .zip(fwd.chunks_mut(batch))
    {
        lpm.lookup_batch(chunk, chunk_out);
        lpm.forward_batch(chunk, chunk_fwd);
    }
    for (i, (&addr, &got)) in addrs.iter().zip(out.iter()).enumerate() {
        let want = lpm.lookup_counted(addr);
        prop_assert_eq!(
            (fwd[i], lpm.lookup(addr)),
            (want.next_hop, want.next_hop),
            "{}: forward_batch / lookup diverged from lookup_counted at index {} \
             addr {:#010x} (batch size {})",
            lpm.name(),
            i,
            addr,
            batch
        );
        prop_assert_eq!(
            got.next_hop,
            want.next_hop,
            "{}: next hop diverged at index {} addr {:#010x} (batch size {})",
            lpm.name(),
            i,
            addr,
            batch
        );
        prop_assert_eq!(
            got.mem_accesses,
            want.mem_accesses,
            "{}: access count diverged at index {} addr {:#010x} (batch size {})",
            lpm.name(),
            i,
            addr,
            batch
        );
        prop_assert_eq!(
            got.lines_touched,
            want.lines_touched,
            "{}: line count diverged at index {} addr {:#010x} (batch size {})",
            lpm.name(),
            i,
            addr,
            batch
        );
    }
    Ok(())
}

/// Every IPv4 engine with the constructor `apply_delta`'s rebuild
/// fallback uses.
type Build = fn(&RoutingTable) -> Box<dyn Lpm>;
const ENGINES: [Build; 7] = [
    |t| Box::new(Dir24_8::build(t)),
    |t| Box::new(LuleaTrie::build(t)),
    |t| Box::new(LcTrie::build(t)),
    |t| Box::new(BinaryTrie::build(t)),
    |t| Box::new(DpTrie::build(t)),
    |t| Box::new(MultibitTrie::build_16_8_8(t)),
    |t| Box::new(Poptrie::build(t)),
];

proptest! {
    // Each case builds seven engines over a fresh table; keep the count
    // modest — the address/batch-size space inside a case is wide.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_matches_scalar_on_every_engine(
        table_size in 50usize..1200,
        table_seed in 0u64..50,
        addrs in arb_addrs(),
        batch in 1usize..=40,
        update_count in 1usize..120,
        stream_seed in 0u64..1_000,
    ) {
        let table = synth::synthesize(&synth::SynthConfig::sized(table_size, table_seed));
        // One delta batch from `update_equiv`'s stream generator.
        let (updates, _) = update_stream(&table, &UpdateStreamConfig {
            count: update_count,
            withdraw_fraction: 0.4,
            seed: stream_seed,
        });
        let mut rib = table.clone();
        let mut changed: Vec<Prefix> = Vec::new();
        for &u in &updates {
            if !changed.contains(&u.prefix()) {
                changed.push(u.prefix());
            }
            apply(&mut rib, u);
        }
        for build in ENGINES {
            let mut lpm = build(&table);
            check_engine(lpm.as_ref(), &addrs, batch)?;
            if lpm.apply_delta(&changed, &rib).is_none() {
                lpm = build(&rib);
            }
            check_engine(lpm.as_ref(), &addrs, batch)?;
        }
    }
}

#[test]
#[should_panic(expected = "addrs and out must have equal lengths")]
fn forward_batch_rejects_unequal_lengths_like_lookup_batch() {
    let lpm = Poptrie::build(&synth::small(1));
    lpm.forward_batch(&[1, 2, 3], &mut [None; 2]);
}

#[test]
#[should_panic(expected = "addrs and out must have equal lengths")]
fn lookup_batch_rejects_unequal_lengths() {
    let lpm = Poptrie::build(&synth::small(1));
    lpm.lookup_batch(&[1, 2, 3], &mut [CountedLookup::MISS; 2]);
}
