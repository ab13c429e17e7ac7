//! Property suite for the SHIP IPv6 engine: bit-identity of scalar vs
//! batch lookups, equivalence with the generic binary trie (the IPv6
//! reference structure) over arbitrary v6 RIBs, and the incremental
//! contract — bin-granular `apply_delta` over arbitrary update streams
//! must be lookup-identical to a fresh rebuild, with the decline →
//! rebuild fallback exercised as part of the contract. Mirrors
//! `batch_equiv.rs` / `update_equiv.rs` at the 128-bit width.

use proptest::prelude::*;
use spal_lpm::binary::GenericBinaryTrie;
use spal_lpm::ship::Ship6;
use spal_lpm::{CountedLookup, Lpm6};
use spal_rib::updates::{apply, update_stream, UpdateStreamConfig};
use spal_rib::v6::{synthesize6_dfz, Prefix6, RouteEntry6, RoutingTable6, Update6};
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
        let ship = Ship6::build(&table);
        let trie = GenericBinaryTrie::build(&table);
        for &addr in &probe_addrs(&table, &random) {
            let oracle = table.longest_match(addr).map(|e| e.next_hop);
            prop_assert_eq!(
                ship.lookup(addr), oracle,
                "SHIP diverged from table oracle at {:#034x}", addr
            );
            prop_assert_eq!(
                trie.lookup_generic(addr), oracle,
                "binary trie diverged from table oracle at {:#034x}", addr
            );
        }
    }

    /// Batched SHIP lookups are bit-identical to scalar — next hops,
    /// access counts, and line counts — and `forward_batch` yields the
    /// same next hops as `lookup` and the counted path, for every batch
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
        let mut ship = Ship6::build(&table);
        check_batches(&ship, &probe_addrs(&table, &random), batch)?;

        let (updates, fin) = update_stream(&table, &UpdateStreamConfig {
            count: update_count,
            withdraw_fraction: 0.4,
            seed: stream_seed,
        });
        let mut changed: Vec<Prefix6> = Vec::new();
        for u in &updates {
            if !changed.contains(&u.prefix()) {
                changed.push(u.prefix());
            }
        }
        if ship.apply_delta(&changed, &fin).is_none() {
            ship = Ship6::build(&fin);
        }
        check_batches(&ship, &probe_addrs(&fin, &random), batch)?;
    }
}

fn check_batches(ship: &Ship6, addrs: &[u128], batch: usize) -> Result<(), TestCaseError> {
    ship.lookup_batch(&[], &mut []);
    ship.forward_batch(&[], &mut []);
    let mut out = vec![CountedLookup::MISS; addrs.len()];
    let mut fwd = vec![None; addrs.len()];
    for ((chunk, chunk_out), chunk_fwd) in addrs
        .chunks(batch)
        .zip(out.chunks_mut(batch))
        .zip(fwd.chunks_mut(batch))
    {
        ship.lookup_batch(chunk, chunk_out);
        ship.forward_batch(chunk, chunk_fwd);
    }
    for (i, (&addr, &got)) in addrs.iter().zip(out.iter()).enumerate() {
        let want = ship.lookup_counted(addr);
        prop_assert_eq!(
            got,
            want,
            "batch diverged from scalar at index {} addr {:#034x} (batch size {})",
            i,
            addr,
            batch
        );
        prop_assert_eq!(
            (fwd[i], ship.lookup(addr)),
            (want.next_hop, want.next_hop),
            "forward_batch / lookup diverged from lookup_counted at index {} addr {:#034x} \
             (batch size {})",
            i,
            addr,
            batch
        );
    }
    Ok(())
}

proptest! {
    // Each case replays a whole stream against two engines; modest count.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bin-granular delta patching over an arbitrary DFZ-shaped update
    /// stream stays lookup-identical to a fresh build and to the
    /// natively incremental binary trie, across batch sizes. A decline
    /// (`None`) triggers the contract's rebuild fallback.
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

        let mut ship = Ship6::build(&base);
        let mut trie = GenericBinaryTrie::build(&base);
        let mut rib = base.clone();
        for chunk in updates.chunks(batch) {
            let mut changed: Vec<Prefix6> = Vec::with_capacity(chunk.len());
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
                ship = Ship6::build(&rib);
            }
            prop_assert!(
                Lpm6::apply_delta(&mut trie, &changed, &rib).is_some(),
                "binary trie is natively incremental and never declines"
            );
        }
        prop_assert_eq!(rib.len(), fin.len());

        let ship_fresh = Ship6::build(&fin);
        for &addr in &probe_addrs(&fin, &random) {
            let oracle = trie.lookup_generic(addr);
            prop_assert_eq!(
                ship.lookup(addr), oracle,
                "SHIP delta-patched diverged from binary trie at {:#034x}", addr
            );
            prop_assert_eq!(
                ship.lookup(addr), ship_fresh.lookup(addr),
                "SHIP delta-patched vs fresh build diverged at {:#034x}", addr
            );
        }
    }
}
