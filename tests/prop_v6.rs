//! Property-based tests for the IPv6 side: prefix semantics, the
//! generic partitioner (§6's "feasibly applicable to IPv6"), and the
//! 128-bit LR-cache invalidation path the v6 dataplane leans on —
//! `LrCache6::invalidate_covered` exactness (including the /0 and /128
//! edges) and the version gate that keeps stale fabric replies out
//! after a moved prefix's remap invalidation.

#[path = "../crates/lpm/tests/common/batches.rs"]
mod batches;
#[path = "../crates/lpm/tests/common/oracle.rs"]
mod oracle;

use proptest::prelude::*;
use spal::cache::{LrCache6, LrCacheConfig, Origin, ProbeResult};
use spal::core::v6::Partitioning6;
use spal::dataplane::{VersionedCache, VersionedFill};
use spal::rib::v6::{Prefix6, RouteEntry6, RoutingTable6};
use spal::rib::NextHop;

fn arb_prefix6() -> impl Strategy<Value = Prefix6> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Prefix6::new(bits, len).expect("len ok"))
}

fn cache6(blocks: usize) -> LrCache6<u16> {
    LrCache6::new(LrCacheConfig {
        blocks,
        assoc: 4,
        ..Default::default()
    })
}

fn arb_table6(max_routes: usize) -> impl Strategy<Value = RoutingTable6> {
    proptest::collection::vec((arb_prefix6(), 0u16..16), 1..max_routes).prop_map(|v| {
        RoutingTable6::from_entries(v.into_iter().map(|(prefix, nh)| RouteEntry6 {
            prefix,
            next_hop: NextHop(nh),
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prefix6_canonical_and_matching(bits in any::<u128>(), len in 0u8..=128) {
        let p = Prefix6::new(bits, len).unwrap();
        // Canonical: re-masking is a no-op.
        prop_assert_eq!(Prefix6::new(p.bits(), len).unwrap(), p);
        // The prefix matches its own base and everything inside.
        prop_assert!(p.matches(p.bits()));
        if len < 128 {
            let inside = p.bits() | (1u128 << (127 - len));
            prop_assert!(p.matches(inside));
        }
        // Containment is reflexive and respects length.
        prop_assert!(p.contains(p));
        if len > 0 {
            let shorter = Prefix6::new(p.bits(), len - 1).unwrap();
            prop_assert!(shorter.contains(p));
        }
    }

    #[test]
    fn tri_bit_consistency_v6(bits in any::<u128>(), len in 0u8..=128, i in 0u8..128) {
        use spal::rib::bits::TriBit;
        let p = Prefix6::new(bits, len).unwrap();
        let t = p.tri_bit(i);
        if i >= len {
            prop_assert_eq!(t, TriBit::Wild);
        } else {
            // A concrete bit matches exactly one value.
            prop_assert!(t.matches(true) != t.matches(false));
        }
    }

    #[test]
    fn home_lookup_equals_full_lookup_v6(
        table in arb_table6(40),
        psi in 1usize..=6,
        addrs in proptest::collection::vec(any::<u128>(), 12),
    ) {
        let eta = spal::core::bits::eta_for(psi);
        let prefixes: Vec<Prefix6> = table.entries().iter().map(|e| e.prefix).collect();
        let bits = spal::core::bits::select_bits_generic(prefixes, eta, 127);
        let part = Partitioning6::new(&table, bits, psi);
        let fragments = part.forwarding_tables(&table);
        for addr in addrs {
            let home = part.home_of(addr) as usize;
            prop_assert!(home < psi);
            prop_assert_eq!(
                fragments[home].longest_match(addr).map(|e| e.next_hop),
                table.longest_match(addr).map(|e| e.next_hop),
                "addr {:#034x}", addr
            );
        }
    }

    #[test]
    fn lr_cache6_invalidate_covered_is_exact(
        prefix in arb_prefix6(),
        addrs in proptest::collection::vec(any::<u128>(), 1..80),
        biased in 0usize..4,
    ) {
        let mut cache = cache6(32);
        for (i, &addr) in addrs.iter().enumerate() {
            // Bias some fills inside the prefix so the covered set is
            // rarely empty even for long prefixes.
            let addr = if i % 4 == biased && prefix.len() < 128 {
                prefix.bits() | (addr >> prefix.len())
            } else {
                addr
            };
            cache.fill(addr, i as u16, Origin::Loc);
        }
        let before: Vec<(u128, u16)> = cache.entries().collect();
        let covered_before = before
            .iter()
            .filter(|&&(a, _)| prefix.matches(a))
            .count();
        let dropped = cache.invalidate_covered(prefix.bits(), prefix.len());
        prop_assert_eq!(dropped, covered_before);
        let mut after: Vec<(u128, u16)> = cache.entries().collect();
        // Exactly the uncovered entries survive, values intact.
        let mut expect: Vec<(u128, u16)> = before
            .into_iter()
            .filter(|&(a, _)| !prefix.matches(a))
            .collect();
        after.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(after, expect);
    }

    #[test]
    fn lr_cache6_invalidation_edges(
        addrs in proptest::collection::vec(any::<u128>(), 1..48),
        target in 0usize..48,
    ) {
        // /128: evicts exactly the one address, nothing else.
        let mut cache = cache6(32);
        for (i, &addr) in addrs.iter().enumerate() {
            cache.fill(addr, i as u16, Origin::Loc);
        }
        let target = addrs[target % addrs.len()];
        let resident: Vec<(u128, u16)> = cache.entries().collect();
        let dropped = cache.invalidate_covered(target, 128);
        let held = resident.iter().filter(|&&(a, _)| a == target).count();
        prop_assert_eq!(dropped, held);
        prop_assert!(cache.entries().all(|(a, _)| a != target));
        prop_assert_eq!(cache.entries().count(), resident.len() - held);

        // /0: a full flush regardless of the bits argument.
        let dropped = cache.invalidate_covered(target, 0);
        prop_assert_eq!(dropped, resident.len() - held);
        prop_assert_eq!(cache.entries().count(), 0);
    }

    #[test]
    fn versioned_cache6_remap_invalidation_gates_stale_replies(
        prefix in arb_prefix6(),
        addr_bits in any::<u128>(),
        version in 1u64..32,
    ) {
        // The v6 dataplane path for a moved prefix: the control plane
        // re-publishes and broadcasts a targeted invalidation; cached
        // results under the prefix vanish, and any fabric reply stamped
        // with an older table version must not repopulate the cache.
        let mut vc: VersionedCache<u16, u128> = VersionedCache::new(cache6(32));
        let covered = if prefix.len() >= 128 {
            prefix.bits()
        } else {
            prefix.bits() | (addr_bits >> prefix.len())
        };
        vc.fill_local(covered, 7, Origin::Loc);
        prop_assert!(matches!(vc.probe(covered), ProbeResult::Hit { value: 7, .. }));
        let dropped = vc.apply_invalidation(prefix.bits(), prefix.len(), version);
        prop_assert!(dropped >= 1);
        prop_assert_eq!(vc.probe(covered), ProbeResult::Miss);

        // Stale reply (computed against the pre-remap table): dropped,
        // and the re-reserved waiter is evicted so a follower re-asks.
        vc.reserve(covered);
        prop_assert_eq!(
            vc.fill_versioned(covered, 9, Origin::Rem, version - 1),
            VersionedFill::StaleDropped
        );
        prop_assert_eq!(vc.probe(covered), ProbeResult::Miss);

        // Current reply: cached.
        prop_assert!(matches!(
            vc.fill_versioned(covered, 9, Origin::Rem, version),
            VersionedFill::Cached(_)
        ));
        prop_assert!(matches!(vc.probe(covered), ProbeResult::Hit { value: 9, .. }));
    }

    /// Both v6 engines against the table's linear longest-match: the
    /// binary trie by scalar lookup, SHIP by scalar lookup with its
    /// batch entry points held to it, built fresh and again after an
    /// `apply_delta` that withdraws every other route and re-targets
    /// the rest.
    #[test]
    fn generic_binary_trie_matches_v6_oracle(
        table in arb_table6(40),
        addrs in proptest::collection::vec(any::<u128>(), 12),
    ) {
        use spal::lpm::binary::GenericBinaryTrie;
        use spal::lpm::ship::Ship6;
        use spal::lpm::Lpm;
        let mut trie: GenericBinaryTrie<u128> = GenericBinaryTrie::new();
        for e in table.entries() {
            trie.insert(e.prefix.bits(), e.prefix.len(), e.next_hop);
        }
        let mut probes = addrs;
        for e in table.entries() {
            probes.push(e.prefix.bits());
            probes.push(e.prefix.bits() | !u128::MAX.checked_shl(128 - e.prefix.len() as u32).unwrap_or(0));
        }
        oracle::check_oracle(&trie, &table, &probes)?;

        // Batches of 7: a 4-lane group and a scalar tail each.
        let check_ship = |ship: &Ship6, rib: &RoutingTable6| -> Result<(), TestCaseError> {
            oracle::check_oracle(ship, rib, &probes)?;
            batches::check_batches(ship, &probes, 7)
        };
        let mut ship = Ship6::build(&table);
        check_ship(&ship, &table)?;
        let mut rib = table.clone();
        let changed: Vec<Prefix6> = table.entries().iter().map(|e| e.prefix).collect();
        for (i, e) in table.entries().iter().enumerate() {
            if i % 2 == 0 {
                rib.remove(e.prefix);
            } else {
                rib.insert(RouteEntry6 { prefix: e.prefix, next_hop: NextHop(e.next_hop.0 + 16) });
            }
        }
        if ship.apply_delta(&changed, &rib).is_none() {
            ship = Ship6::build(&rib);
        }
        check_ship(&ship, &rib)?;
    }
}
