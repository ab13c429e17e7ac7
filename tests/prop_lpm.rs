//! Property-based tests: every LPM implementation agrees with the
//! reference matcher (`RoutingTable::longest_match`) on arbitrary prefix sets and addresses
//! (`check_oracle` is the `spal-lpm` battery's, shared by file).

#[path = "../crates/lpm/tests/common/oracle.rs"]
mod oracle;

use oracle::check_oracle;
use proptest::prelude::*;
use spal::core::{ForwardingTable, LpmAlgorithm};
use spal::lpm::lctrie::LcTrie;
use spal::lpm::Lpm;
use spal::rib::{NextHop, Prefix, RouteEntry, RoutingTable};

/// An arbitrary canonical prefix: random bits masked to a random length.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::new(bits, len).expect("len <= 32"))
}

fn arb_table(max_routes: usize) -> impl Strategy<Value = RoutingTable> {
    proptest::collection::vec((arb_prefix(), 0u16..64), 0..max_routes).prop_map(|v| {
        RoutingTable::from_entries(v.into_iter().map(|(prefix, nh)| RouteEntry {
            prefix,
            next_hop: NextHop(nh),
        }))
    })
}

/// Addresses biased toward prefix boundaries (first/last covered
/// address) plus uniform randoms — the corners where trie bugs live.
fn probe_addresses(table: &RoutingTable, randoms: &[u32]) -> Vec<u32> {
    let mut addrs: Vec<u32> = randoms.to_vec();
    for e in table {
        addrs.push(e.prefix.first_addr());
        addrs.push(e.prefix.last_addr());
        addrs.push(e.prefix.first_addr().wrapping_sub(1));
        addrs.push(e.prefix.last_addr().wrapping_add(1));
    }
    addrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_trie_matches_oracle(
        table in arb_table(60),
        randoms in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let trie = ForwardingTable::build(LpmAlgorithm::Binary, &table);
        check_oracle(&trie, &table, &probe_addresses(&table, &randoms))?;
    }

    #[test]
    fn dp_trie_matches_oracle(
        table in arb_table(60),
        randoms in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let trie = ForwardingTable::build(LpmAlgorithm::Dp, &table);
        check_oracle(&trie, &table, &probe_addresses(&table, &randoms))?;
    }

    #[test]
    fn lulea_trie_matches_oracle(
        table in arb_table(60),
        randoms in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let trie = ForwardingTable::build(LpmAlgorithm::Lulea, &table);
        check_oracle(&trie, &table, &probe_addresses(&table, &randoms))?;
    }

    #[test]
    fn lc_trie_matches_oracle_across_fill_factors(
        table in arb_table(60),
        randoms in proptest::collection::vec(any::<u32>(), 16),
        fill in prop::sample::select(vec![0.125f64, 0.25, 0.5, 1.0]),
    ) {
        let trie = LcTrie::build_with_fill(&table, fill);
        check_oracle(&trie, &table, &probe_addresses(&table, &randoms))?;
    }

    #[test]
    fn dp_insert_remove_roundtrip(
        routes in proptest::collection::vec((arb_prefix(), 0u16..8), 1..40),
        remove_mask in proptest::collection::vec(any::<bool>(), 40),
        randoms in proptest::collection::vec(any::<u32>(), 16),
    ) {
        use spal::lpm::dp::DpTrie;
        // Insert everything, remove a random subset, compare with the
        // oracle built from the survivors.
        let mut trie = DpTrie::new();
        let mut survivors: Vec<RouteEntry> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, &(prefix, nh)) in routes.iter().enumerate() {
            trie.insert(prefix, NextHop(nh));
            if !seen.insert(prefix) {
                survivors.retain(|e| e.prefix != prefix);
            }
            survivors.push(RouteEntry { prefix, next_hop: NextHop(nh) });
            if *remove_mask.get(i).unwrap_or(&false) {
                trie.remove(prefix);
                survivors.retain(|e| e.prefix != prefix);
            }
        }
        let oracle = RoutingTable::from_entries(survivors.iter().copied());
        prop_assert_eq!(trie.route_count(), oracle.len());
        for addr in probe_addresses(&oracle, &randoms) {
            prop_assert_eq!(
                spal::lpm::Lpm::lookup(&trie, addr),
                oracle.longest_match(addr).map(|e| e.next_hop),
                "addr {:#010x}", addr
            );
        }
    }

    #[test]
    fn multibit_matches_oracle_for_random_strides(
        table in arb_table(50),
        cuts in proptest::collection::btree_set(1u8..32, 0..5),
        randoms in proptest::collection::vec(any::<u32>(), 12),
    ) {
        // Random cut points partition 32 bits into a stride vector.
        use spal::lpm::multibit::MultibitTrie;
        let mut strides = Vec::new();
        let mut prev = 0u8;
        for c in cuts {
            // Strides wider than 24 are rejected by the builder; clamp by
            // splitting oversized segments.
            let mut seg = c - prev;
            while seg > 24 {
                strides.push(24);
                seg -= 24;
            }
            if seg > 0 {
                strides.push(seg);
            }
            prev = c;
        }
        let mut tail = 32 - prev;
        while tail > 24 {
            strides.push(24);
            tail -= 24;
        }
        if tail > 0 {
            strides.push(tail);
        }
        let trie = MultibitTrie::build(&table, &strides);
        check_oracle(&trie, &table, &probe_addresses(&table, &randoms))?;
    }

    #[test]
    fn access_counts_are_sane(
        table in arb_table(40),
        randoms in proptest::collection::vec(any::<u32>(), 8),
    ) {
        for algo in [LpmAlgorithm::Binary, LpmAlgorithm::Dp, LpmAlgorithm::Lulea,
                     LpmAlgorithm::Lc] {
            let trie = ForwardingTable::build(algo, &table);
            for &addr in &randoms {
                let c = trie.lookup_counted(addr);
                prop_assert!(c.mem_accesses >= 1);
                prop_assert!(c.mem_accesses < 200, "{} accesses", c.mem_accesses);
            }
        }
    }
}
