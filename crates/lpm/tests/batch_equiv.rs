//! Property test for the batched lookup contract: for **every** IPv4
//! engine, `lookup_batch` must be bit-identical to per-address
//! `lookup_counted` — next hops *and* modelled memory-access and line
//! counts — and `forward_batch` must yield the same next hops as
//! `lookup` and as the counted path, for arbitrary tables, arbitrary
//! address mixes, and every batch length from 0 to 40 (covering 16-lane
//! groups, 4-lane groups and the scalar tails of the group drivers),
//! before and after an `apply_delta` of an arbitrary update stream —
//! over synthesized tables and over one fixed table of uneven depth, so
//! a lane group mixes walks of very different lengths. The checks are
//! the shared battery's (`common`); the 128-bit engines run it in
//! `ship_equiv.rs`.

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
use spal_rib::updates::{update_stream, UpdateStreamConfig};
use spal_rib::{synth, NextHop, Prefix, RouteEntry, RoutingTable};

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

/// The host route at the bottom of [`uneven_table`]'s nested chain.
const DEEP: u32 = 0x0A00_0101;

/// A /0 default, a few /8s, and a chain of nested routes down to the
/// /32 [`DEEP`]: one group of [`uneven_addrs`] holds lanes that end at
/// their first read, part way down the chain, and at full depth, so the
/// lane driver retires lanes in every round.
fn uneven_table() -> RoutingTable {
    let chain = (8..=32).step_by(3).map(|len| (DEEP, len));
    let eights = [1u32, 10, 172, 192].map(|hi| (hi << 24, 8));
    RoutingTable::from_entries(
        [(0, 0)]
            .into_iter()
            .chain(eights)
            .chain(chain)
            .zip(1u16..)
            .map(|((bits, len), nh)| RouteEntry {
                prefix: Prefix::new(bits, len).unwrap(),
                next_hop: NextHop(nh),
            }),
    )
}

/// Each address, then [`DEEP`], then [`DEEP`] with one bit flipped —
/// a walk that leaves the chain at a depth the address picks.
fn uneven_addrs(addrs: &[u32]) -> Vec<u32> {
    addrs
        .iter()
        .flat_map(|&a| [a, DEEP, DEEP ^ 1 << (a % 32)])
        .collect()
}

proptest! {
    // Each case builds seven engines over a fresh table; keep the count
    // modest — the address/batch-size space inside a case is wide.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_matches_scalar_on_every_engine(
        uneven in any::<bool>(),
        table_size in 50usize..1200,
        table_seed in 0u64..50,
        addrs in arb_addrs(),
        batch in 1usize..=40,
        update_count in 1usize..120,
        stream_seed in 0u64..1_000,
    ) {
        let (table, addrs) = if uneven {
            (uneven_table(), uneven_addrs(&addrs))
        } else {
            (synth::synthesize(&synth::SynthConfig::sized(table_size, table_seed)), addrs)
        };
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
