//! The schemes the paper contrasts SPAL with, short of whole routers.
//! (The conventional router of §1/§5.2 and ref \[6\]'s cache-only router
//! are simulated as `spal_sim::RouterKind::{Conventional, CacheOnly}`.)
//!
//! * [`interval_map`] — ref \[6\]'s range caching (§2.2): the table's
//!   address space cut into intervals of constant lookup result, with
//!   [`interval_of`] to locate one and [`interval_stats`] for the
//!   granularity argument against it.
//! * [`partition_by_length`] — ref \[1\]'s scheme: prefixes grouped by
//!   *length*. Partition sizes vary wildly (≈50 % of a backbone table is
//!   /24), every FE keeps all partitions, and no result is shared.

use spal_lpm::Lpm;
use spal_rib::{NextHop, RoutingTable};

/// One interval of the address space over which the routing table's
/// longest-prefix match is constant: `[start, end]` inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u32,
    pub end: u32,
    pub next_hop: Option<NextHop>,
}

/// Compute the full interval map of a routing table: disjoint intervals
/// covering the whole 32-bit space, each with a uniform lookup result,
/// adjacent equal-result intervals merged (ref \[6\]'s range-merging
/// step). This is what a range-caching forwarding engine (§2.2) hands to
/// its cache on a miss — and its granularity statistics are the §2.2
/// argument against it: any /32 route forces single-address intervals.
pub fn interval_map(table: &RoutingTable) -> Vec<Interval> {
    use spal_lpm::binary::BinaryTrie;
    // Boundary points: starts of prefixes and the address after their
    // ends (u64 to survive last_addr = u32::MAX).
    let mut bounds: Vec<u64> = vec![0];
    for e in table {
        bounds.push(e.prefix.first_addr() as u64);
        bounds.push(e.prefix.last_addr() as u64 + 1);
    }
    bounds.push(1u64 << 32);
    bounds.sort_unstable();
    bounds.dedup();
    let trie = BinaryTrie::build(table);
    let mut out: Vec<Interval> = Vec::with_capacity(bounds.len());
    for w in bounds.windows(2) {
        let (start, end) = (w[0] as u32, (w[1] - 1) as u32);
        let next_hop = trie.lookup(start);
        match out.last_mut() {
            // Range merging: coalesce equal-result neighbours.
            Some(prev) if prev.next_hop == next_hop => prev.end = end,
            _ => out.push(Interval {
                start,
                end,
                next_hop,
            }),
        }
    }
    out
}

/// Locate the interval containing `addr` (binary search).
pub fn interval_of(map: &[Interval], addr: u32) -> Interval {
    let i = map.partition_point(|iv| iv.end < addr);
    debug_assert!(map[i].contains_addr(addr));
    map[i]
}

impl Interval {
    /// Whether `addr` falls inside this interval.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        self.start <= addr && addr <= self.end
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        self.end as u64 - self.start as u64 + 1
    }
}

/// Granularity statistics of an interval map — the §2.2 quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalStats {
    pub count: usize,
    pub min_size: u64,
    pub mean_size: f64,
}

/// Summarise an interval map (only intervals with a route count toward
/// `min_size`; the uncovered gaps between allocations are huge and would
/// mask the granularity signal).
pub fn interval_stats(map: &[Interval]) -> IntervalStats {
    let routed: Vec<&Interval> = map.iter().filter(|iv| iv.next_hop.is_some()).collect();
    let min_size = routed.iter().map(|iv| iv.size()).min().unwrap_or(0);
    let mean_size = if routed.is_empty() {
        0.0
    } else {
        routed.iter().map(|iv| iv.size()).sum::<u64>() as f64 / routed.len() as f64
    };
    IntervalStats {
        count: map.len(),
        min_size,
        mean_size,
    }
}

/// Ref \[1\]'s partitioning: group prefixes by length, then pack the ≤ 33
/// length classes onto `psi` partitions by greedy size balancing (the
/// closest realisable analogue when ψ < 33). Returns the per-partition
/// tables; their wild size imbalance is the point of the comparison.
pub fn partition_by_length(table: &RoutingTable, psi: usize) -> Vec<RoutingTable> {
    assert!(psi >= 1);
    let mut by_len: Vec<Vec<spal_rib::RouteEntry>> = vec![Vec::new(); 33];
    for e in table {
        by_len[e.prefix.len() as usize].push(*e);
    }
    // Greedy: biggest class to least-loaded partition.
    let mut order: Vec<usize> = (0..33).collect();
    order.sort_by_key(|&l| std::cmp::Reverse(by_len[l].len()));
    let mut parts: Vec<Vec<spal_rib::RouteEntry>> = vec![Vec::new(); psi];
    for l in order {
        let p = (0..psi)
            .min_by_key(|&i| (parts[i].len(), i))
            .expect("psi >= 1");
        parts[p].extend(by_len[l].iter().copied());
    }
    parts.into_iter().map(RoutingTable::from_entries).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStats;
    use spal_rib::synth;

    #[test]
    fn length_partitioning_is_lossless_but_imbalanced() {
        let rt = synth::synthesize(&synth::SynthConfig::sized(20_000, 9));
        let parts = partition_by_length(&rt, 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rt.len()); // no replication, unlike SPAL
        let stats = PartitionStats::of(rt.len(), parts.iter().map(|p| p.len()));
        // /24 alone is ≈half the table, so one partition dwarfs the rest.
        assert!(
            stats.imbalance_ratio() > 2.0,
            "imbalance {}",
            stats.imbalance_ratio()
        );
    }

    #[test]
    fn interval_map_covers_space_and_matches_oracle() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(71);
        let map = interval_map(&rt);
        // Full coverage, disjoint, ordered.
        assert_eq!(map[0].start, 0);
        assert_eq!(map.last().unwrap().end, u32::MAX);
        for w in map.windows(2) {
            assert_eq!(w[0].end as u64 + 1, w[1].start as u64);
            assert_ne!(w[0].next_hop, w[1].next_hop, "unmerged neighbours");
        }
        // Interval values equal the oracle everywhere sampled.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..300 {
            let addr: u32 = rng.gen();
            let iv = interval_of(&map, addr);
            assert!(iv.contains_addr(addr));
            assert_eq!(iv.next_hop, rt.longest_match(addr).map(|e| e.next_hop));
        }
    }

    #[test]
    fn host_routes_force_unit_granularity() {
        // §2.2: a /32 route makes the minimum range size 1.
        let rt = RoutingTable::from_entries([
            spal_rib::RouteEntry {
                prefix: "10.0.0.0/8".parse().unwrap(),
                next_hop: NextHop(1),
            },
            spal_rib::RouteEntry {
                prefix: "10.1.2.3/32".parse().unwrap(),
                next_hop: NextHop(2),
            },
        ]);
        let stats = interval_stats(&interval_map(&rt));
        assert_eq!(stats.min_size, 1);
        // Without the host route the granularity is the /8 itself.
        let rt2 = RoutingTable::from_entries([spal_rib::RouteEntry {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: NextHop(1),
        }]);
        let stats2 = interval_stats(&interval_map(&rt2));
        assert_eq!(stats2.min_size, 1 << 24);
    }

    #[test]
    fn length_partitioning_psi_one() {
        let rt = synth::small(67);
        let parts = partition_by_length(&rt, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), rt.len());
    }
}
