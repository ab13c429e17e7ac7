//! Property suite for the two IPv6 engines — SHIP and the 128-bit
//! binary trie every v6 oracle check trusts: agreement with the table's
//! linear longest-match over arbitrary v6 RIBs, bit-identity of scalar
//! vs batch lookups, and the incremental contract — `apply_delta` over
//! arbitrary update streams must be lookup-identical to a fresh
//! rebuild, with SHIP's decline → rebuild fallback exercised as part of
//! the contract. The shared battery (`common`) at the 128-bit width,
//! over generators biased toward SHIP's bin boundary.

mod common;

use common::{check_delta_stream, check_oracle};
use proptest::prelude::*;
use spal_lpm::binary::GenericBinaryTrie;
use spal_lpm::ship::Ship6;
use spal_rib::updates::{update_stream, UpdateStreamConfig};
use spal_rib::v6::{synthesize6_dfz, Prefix6, RouteEntry6, RoutingTable6};
use spal_rib::NextHop;

/// Arbitrary v6 prefix, biased toward the cases that stress SHIP's
/// two-level split: lengths at and around the 16-bit bin boundary, the
/// /0 default, /128 host routes, and clustered top bits so bins
/// actually share tries.
fn arb_prefix6() -> impl Strategy<Value = Prefix6> {
    let len = prop_oneof![
        4 => 0u8..=128,
        2 => 14u8..=18,
        1 => Just(0u8),
        1 => Just(128u8),
        2 => prop_oneof![Just(32u8), Just(48u8), Just(64u8)],
    ];
    let bits = prop_oneof![
        3 => any::<u128>(),
        // Cluster into 16 top-16 blocks so bins collide.
        2 => (0u128..16, any::<u128>())
            .prop_map(|(blk, low)| (0x2000 + blk) << 112 | (low >> 16)),
    ];
    (bits, len).prop_map(|(bits, len)| Prefix6::new(bits, len).expect("len <= 128"))
}

fn arb_table6(max: usize) -> impl Strategy<Value = RoutingTable6> {
    proptest::collection::vec((arb_prefix6(), 0u16..64), 0..max).prop_map(|routes| {
        RoutingTable6::from_entries(routes.into_iter().map(|(prefix, nh)| RouteEntry6 {
            prefix,
            next_hop: NextHop(nh),
        }))
    })
}

/// Probe mix: the random draws plus every prefix's first address, a
/// bit-flipped neighbour, and the last covered address — exact matches,
/// near misses, and range edges.
fn probe_addrs(table: &RoutingTable6, random: &[u128]) -> Vec<u128> {
    let mut addrs = random.to_vec();
    for e in table.entries().iter().take(200) {
        let a = e.prefix.first_addr();
        addrs.push(a);
        addrs.push(a ^ 1);
        addrs.push(e.prefix.last_addr());
        addrs.push(a.wrapping_sub(1));
    }
    addrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SHIP == binary trie == linear oracle on arbitrary tables.
    #[test]
    fn ship_matches_binary_oracle(
        table in arb_table6(120),
        random in proptest::collection::vec(any::<u128>(), 1..=48),
    ) {
        let probes = probe_addrs(&table, &random);
        check_oracle(&Ship6::build(&table), &table, &probes)?;
        check_oracle(&GenericBinaryTrie::build(&table), &table, &probes)?;
    }

    /// Batched lookups are bit-identical to scalar — next hops, access
    /// counts, and line counts — and `forward_batch` yields the same
    /// next hops as `lookup` and the counted path, for every batch
    /// length across the 4-lane group driver's aligned and tail paths
    /// (0 included), before and after an `apply_delta`.
    #[test]
    fn ship_batch_bit_identical(
        table in arb_table6(150),
        random in proptest::collection::vec(any::<u128>(), 0..=100),
        batch in 1usize..=40,
        update_count in 1usize..80,
        stream_seed in 0u64..1_000,
    ) {
        let (updates, fin) = update_stream(&table, &UpdateStreamConfig {
            count: update_count,
            withdraw_fraction: 0.4,
            seed: stream_seed,
        });
        let mut probes = probe_addrs(&table, &random);
        probes.extend(probe_addrs(&fin, &[]));
        let all = updates.len();
        check_delta_stream(Ship6::build, &table, &updates, all, &probes, batch)?;
        check_delta_stream(GenericBinaryTrie::build, &table, &updates, all, &probes, batch)?;
    }
}

proptest! {
    // Each case replays a whole stream against two engines; modest count.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Delta patching over an arbitrary DFZ-shaped update stream stays
    /// lookup-identical to a fresh build and to the table oracle, across
    /// batch sizes: bin-granular on SHIP, where a decline (`None`)
    /// triggers the contract's rebuild fallback, and natively
    /// incremental on the binary trie, which never declines.
    #[test]
    fn ship_delta_stream_matches_rebuild(
        table_size in 30usize..500,
        table_seed in 0u64..40,
        update_count in 1usize..300,
        withdraw_tenths in 0u32..=9,
        stream_seed in 0u64..1_000,
        batch in 1usize..24,
        random in proptest::collection::vec(any::<u128>(), 1..=32),
    ) {
        let base = synthesize6_dfz(table_size, table_seed);
        let (updates, fin) = update_stream(&base, &UpdateStreamConfig {
            count: update_count,
            withdraw_fraction: withdraw_tenths as f64 / 10.0,
            seed: stream_seed,
        });
        let probes = probe_addrs(&fin, &random);
        check_delta_stream(Ship6::build, &base, &updates, batch, &probes, batch)?;
        let declined =
            check_delta_stream(GenericBinaryTrie::build, &base, &updates, batch, &probes, batch)?;
        prop_assert_eq!(declined, 0, "binary trie is natively incremental and never declines");
    }
}
