//! Property test for the batched lookup contract: for **every** IPv4
//! engine, `lookup_batch` must be bit-identical to per-address
//! `lookup_counted` — next hops *and* modelled memory-access and line
//! counts — and `forward_batch` must yield the same next hops as
//! `lookup` and as the counted path, for arbitrary tables, arbitrary
//! address mixes, and every batch length from 0 to 40 (covering 16-lane
//! groups, 4-lane groups and the scalar tails of the group drivers),
//! before and after an `apply_delta` of an arbitrary update stream. The
//! checks are the shared battery's (`common`); the 128-bit engines run
//! it in `ship_equiv.rs`.

mod common;

use common::check_delta_stream;
use proptest::prelude::*;
use spal_lpm::binary::BinaryTrie;
use spal_lpm::dir24::Dir24_8;
use spal_lpm::dp::DpTrie;
use spal_lpm::lctrie::LcTrie;
use spal_lpm::lulea::LuleaTrie;
use spal_lpm::multibit::MultibitTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::{CountedLookup, Lpm};
use spal_rib::synth;
use spal_rib::updates::{update_stream, UpdateStreamConfig};

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
        let all = updates.len();
        check_delta_stream(Dir24_8::build, &table, &updates, all, &addrs, batch)?;
        check_delta_stream(LuleaTrie::build, &table, &updates, all, &addrs, batch)?;
        check_delta_stream(LcTrie::build, &table, &updates, all, &addrs, batch)?;
        check_delta_stream(BinaryTrie::build, &table, &updates, all, &addrs, batch)?;
        check_delta_stream(DpTrie::build, &table, &updates, all, &addrs, batch)?;
        check_delta_stream(MultibitTrie::build_16_8_8, &table, &updates, all, &addrs, batch)?;
        check_delta_stream(Poptrie::build, &table, &updates, all, &addrs, batch)?;
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
