//! In-memory routing tables and the reference longest-prefix match.

use crate::bits::AddressBits;
use crate::prefix::Prefix;
use std::fmt;

/// Identifier of the line card a matched packet must be forwarded to — the
/// `Next_hop_LC#` field the paper stores in every LR-cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NextHop(pub u16);

impl fmt::Display for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nh{}", self.0)
    }
}

/// One route: a prefix and the next hop it resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteEntry<A: AddressBits = u32> {
    pub prefix: Prefix<A>,
    pub next_hop: NextHop,
}

/// A BGP-style routing table: a set of routes with unique prefixes, over
/// addresses of type `A` (`u32` for IPv4, the default; `u128` for IPv6,
/// spelled [`crate::v6::RoutingTable6`]).
///
/// `RoutingTable` is the exchange format between the synthetic generators,
/// the partitioner and the trie builders. It also provides
/// [`RoutingTable::longest_match`], a deliberately simple O(W·log n)
/// matcher (one binary search per prefix length) that shares no code with
/// any engine and serves as the correctness oracle for every trie
/// implementation in `spal-lpm`.
#[derive(Debug, Clone)]
pub struct RoutingTable<A: AddressBits = u32> {
    entries: Vec<RouteEntry<A>>,
}

impl<A: AddressBits> Default for RoutingTable<A> {
    fn default() -> Self {
        RoutingTable {
            entries: Vec::new(),
        }
    }
}

impl<A: AddressBits> RoutingTable<A> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of routes. Later duplicates of the same prefix
    /// replace earlier ones (mirroring a routing update). Entries are kept
    /// sorted by (prefix bits, length) for deterministic iteration.
    pub fn from_entries(entries: impl IntoIterator<Item = RouteEntry<A>>) -> Self {
        let mut entries: Vec<RouteEntry<A>> = entries.into_iter().collect();
        // Stable, so each run of equal prefixes stays in input order;
        // `dedup_by` hands the later entry first and keeps the earlier
        // slot, so copying the later next hop into it keeps the last.
        entries.sort_by_key(|e| key(e.prefix));
        entries.dedup_by(|later, kept| {
            let dup = later.prefix == kept.prefix;
            if dup {
                kept.next_hop = later.next_hop;
            }
            dup
        });
        RoutingTable { entries }
    }

    /// Where `prefix` sits in the entry order: `Ok` at its index, `Err`
    /// at the index it would be inserted at. O(log n).
    fn search(&self, prefix: Prefix<A>) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&key(prefix), |e| key(e.prefix))
    }

    /// Insert or replace one route. O(n): it shifts the tail. Bulk
    /// changes go through [`crate::updates::apply_batch`] (at most two
    /// tail moves per batch) or [`RoutingTable::from_entries`].
    pub fn insert(&mut self, entry: RouteEntry<A>) {
        match self.search(entry.prefix) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Remove the route for `prefix`, returning it if present. O(n), like
    /// [`RoutingTable::insert`].
    pub fn remove(&mut self, prefix: Prefix<A>) -> Option<RouteEntry<A>> {
        self.search(prefix).ok().map(|i| self.entries.remove(i))
    }

    /// Set the route of each `(prefix, next hop)` — `None` removes it —
    /// with at most two tail moves: the body of
    /// [`crate::updates::apply_batch`]. `changes` must be in entry order,
    /// each prefix once.
    pub(crate) fn set_sorted(
        &mut self,
        changes: impl IntoIterator<Item = (Prefix<A>, Option<NextHop>)>,
    ) {
        let mut removals: Vec<usize> = Vec::new();
        let mut insertions: Vec<(usize, RouteEntry<A>)> = Vec::new();
        for (prefix, next_hop) in changes {
            match (self.search(prefix), next_hop) {
                (Ok(i), Some(next_hop)) => self.entries[i].next_hop = next_hop,
                (Ok(i), None) => removals.push(i),
                (Err(i), Some(next_hop)) => insertions.push((i, RouteEntry { prefix, next_hop })),
                (Err(_), None) => {}
            }
        }
        debug_assert!(
            removals.is_sorted_by(|a, b| a < b)
                && insertions.is_sorted_by(|a, b| key(a.1.prefix) < key(b.1.prefix)),
            "changes out of entry order or repeated"
        );
        let entries = &mut self.entries;
        // Close the removals, left to right: each run between two removed
        // indices moves down by the number removed before it.
        if let Some(&first) = removals.first() {
            let mut write = first;
            for (k, &r) in removals.iter().enumerate() {
                let end = removals.get(k + 1).copied().unwrap_or(entries.len());
                entries.copy_within(r + 1..end, write);
                write += end - r - 1;
            }
            entries.truncate(write);
        }
        // Open the insertions, right to left, at their post-removal
        // indices: the run in front of the `j`-th insertion moves up by
        // `j + 1`.
        if let Some(&(_, filler)) = insertions.first() {
            let mut removed_before = 0;
            for (at, _) in insertions.iter_mut() {
                while removals.get(removed_before).is_some_and(|&r| r < *at) {
                    removed_before += 1;
                }
                *at -= removed_before;
            }
            let mut src_end = entries.len();
            entries.resize(src_end + insertions.len(), filler);
            for (j, &(at, e)) in insertions.iter().enumerate().rev() {
                entries.copy_within(at..src_end, at + j + 1);
                entries[at + j] = e;
                src_end = at;
            }
        }
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The routes, sorted by (bits, length).
    pub fn entries(&self) -> &[RouteEntry<A>] {
        &self.entries
    }

    /// Just the prefixes, in entry order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix<A>> + '_ {
        self.entries.iter().map(|e| e.prefix)
    }

    /// The next hop stored for exactly `prefix`, if present. O(log n).
    pub fn get(&self, prefix: Prefix<A>) -> Option<NextHop> {
        self.search(prefix).ok().map(|i| self.entries[i].next_hop)
    }

    /// All routes whose canonical bits fall inside `[lo, hi]`, as a
    /// contiguous sorted slice. O(log n) to locate (what lets the SHIP
    /// engine rebuild one bin without a table scan). For a prefix-aligned
    /// query range this is every route *contained* in the range plus, when
    /// a shorter route starts exactly at `lo`, routes containing it —
    /// aligned ranges cannot partially overlap, so callers filter by
    /// length.
    pub fn range(&self, lo: A, hi: A) -> &[RouteEntry<A>] {
        let start = self.entries.partition_point(|e| e.prefix.bits() < lo);
        let end = self.entries.partition_point(|e| e.prefix.bits() <= hi);
        &self.entries[start..end]
    }

    /// Longest match for `addr` among routes no longer than `max_len`
    /// bits. O(max_len · log n) — walks candidate prefix lengths from
    /// most to least specific. Used by the incremental patch paths to
    /// recompute the "default" value a region inherits from above.
    pub fn best_cover(&self, addr: A, max_len: u8) -> Option<RouteEntry<A>> {
        for len in (0..=max_len).rev() {
            let p = Prefix::new(addr, len).expect("masked prefix is valid");
            if let Some(nh) = self.get(p) {
                return Some(RouteEntry {
                    prefix: p,
                    next_hop: nh,
                });
            }
        }
        None
    }

    /// Reference longest-prefix match: [`RoutingTable::best_cover`] with
    /// no length cap, one binary search per prefix length. O(W·log n) per
    /// lookup and independent of every engine — the oracle the trie
    /// implementations, the dataplane's final check and its cache sweeps
    /// are tested against.
    pub fn longest_match(&self, addr: A) -> Option<RouteEntry<A>> {
        self.best_cover(addr, A::BITS)
    }

    /// Whether any route matches `addr`. O(W·log n).
    pub fn covers(&self, addr: A) -> bool {
        self.longest_match(addr).is_some()
    }

    /// The largest next-hop index present, plus one (i.e. the size a
    /// next-hop table must have). Zero for an empty table.
    pub fn next_hop_count(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.next_hop.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// The entry order: prefix bits, then length.
fn key<A: AddressBits>(p: Prefix<A>) -> (A, u8) {
    (p.bits(), p.len())
}

impl<A: AddressBits> FromIterator<RouteEntry<A>> for RoutingTable<A> {
    fn from_iter<T: IntoIterator<Item = RouteEntry<A>>>(iter: T) -> Self {
        RoutingTable::from_entries(iter)
    }
}

impl<'a, A: AddressBits> IntoIterator for &'a RoutingTable<A> {
    type Item = &'a RouteEntry<A>;
    type IntoIter = std::slice::Iter<'a, RouteEntry<A>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prefix::tests::{addr, for_both_widths, prefix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// A uniformly random address at either width.
    pub(crate) trait RandomAddr: AddressBits {
        fn random(rng: &mut StdRng) -> Self;
    }

    impl RandomAddr for u32 {
        fn random(rng: &mut StdRng) -> Self {
            rng.gen()
        }
    }

    impl RandomAddr for u128 {
        fn random(rng: &mut StdRng) -> Self {
            rng.gen()
        }
    }

    /// A random prefix near one of `bases` (so routes nest and overlap),
    /// a third of the time the `/0` or a full-length host route.
    pub(crate) fn random_prefix<A: RandomAddr>(rng: &mut StdRng, bases: &[A]) -> Prefix<A> {
        let len = match rng.gen_range(0..6) {
            0 => 0,
            1 => A::BITS,
            _ => rng.gen_range(1..A::BITS),
        };
        let base = bases[rng.gen_range(0..bases.len())];
        // Keep a random number of the base's leading bits, draw the rest.
        let keep = A::prefix_mask(rng.gen_range(0..=len));
        let bits = (base & keep) | (A::random(rng) & !keep);
        Prefix::new(bits, len).expect("len <= BITS")
    }

    /// Up to `max_routes` random routes (possibly none) around a few
    /// random base addresses; the `/0` is present in about half the
    /// tables, so some addresses are covered by nothing.
    pub(crate) fn random_table<A: RandomAddr>(
        rng: &mut StdRng,
        max_routes: usize,
    ) -> RoutingTable<A> {
        let bases: Vec<A> = (0..4).map(|_| A::random(rng)).collect();
        let with_default = rng.gen_bool(0.5);
        let n = rng.gen_range(0..=max_routes);
        let routes: Vec<RouteEntry<A>> = (0..n)
            .map(|_| RouteEntry {
                prefix: random_prefix(rng, &bases),
                next_hop: NextHop(rng.gen_range(0..16)),
            })
            .filter(|e| with_default || !e.prefix.is_default())
            .collect();
        RoutingTable::from_entries(routes)
    }

    /// The linear-scan matcher `longest_match` replaced: the reference
    /// for the per-length binary search.
    fn linear_longest_match<A: AddressBits>(t: &RoutingTable<A>, addr: A) -> Option<RouteEntry<A>> {
        t.entries()
            .iter()
            .filter(|e| e.prefix.matches(addr))
            .max_by_key(|e| e.prefix.len())
            .copied()
    }

    fn route<A: AddressBits>(bytes: &[u8], len: u8, nh: u16) -> RouteEntry<A> {
        RouteEntry {
            prefix: prefix(bytes, len),
            next_hop: NextHop(nh),
        }
    }

    for_both_widths!(
        from_entries_dedups_keeping_last,
        longest_match_picks_most_specific,
        longest_match_none_without_default,
        insert_and_remove_keep_sorted_unique,
        next_hop_count,
        same_bits_different_len_are_distinct_routes,
        range_and_best_cover,
        collects_and_iterates,
        longest_match_and_covers_equal_a_linear_scan,
        from_entries_equals_a_map_keeping_the_last,
    );

    fn longest_match_and_covers_equal_a_linear_scan<A: RandomAddr>() {
        let mut rng = StdRng::seed_from_u64(0x5fa1);
        let (mut covered, mut uncovered, mut empty_tables) = (0, 0, 0);
        for _ in 0..300 {
            let t = random_table::<A>(&mut rng, 40);
            empty_tables += t.is_empty() as u32;
            // Uniform randoms, then inside and at both ends of every
            // route and in its sibling (outside it).
            let mut probes: Vec<A> = (0..16).map(|_| A::random(&mut rng)).collect();
            for e in &t {
                let p = e.prefix;
                let host = !A::prefix_mask(p.len());
                probes.extend([p.first_addr(), p.last_addr()]);
                probes.push(p.bits() | (A::random(&mut rng) & host));
                if p.len() > 0 {
                    // The prefix's last bit, flipped.
                    let last = A::prefix_mask(p.len()) & !A::prefix_mask(p.len() - 1);
                    probes.push((p.bits() | last) & !(p.bits() & last));
                }
            }
            for addr in probes {
                let expect = linear_longest_match(&t, addr);
                assert_eq!(
                    t.longest_match(addr),
                    expect,
                    "{addr:?} in {:?}",
                    t.entries()
                );
                assert_eq!(t.covers(addr), expect.is_some());
                if expect.is_some() {
                    covered += 1;
                } else {
                    uncovered += 1;
                }
            }
        }
        assert!(
            covered > 1_000 && uncovered > 1_000,
            "{covered} / {uncovered}"
        );
        assert!(empty_tables > 0, "no empty table drawn");
    }

    fn from_entries_equals_a_map_keeping_the_last<A: RandomAddr>() {
        let mut rng = StdRng::seed_from_u64(0xf0e1);
        for _ in 0..100 {
            let bases: Vec<A> = (0..3).map(|_| A::random(&mut rng)).collect();
            // Few distinct lengths and bases: plenty of duplicates.
            let input: Vec<RouteEntry<A>> = (0..rng.gen_range(0..200))
                .map(|_| RouteEntry {
                    prefix: random_prefix(&mut rng, &bases),
                    next_hop: NextHop(rng.gen_range(0..8)),
                })
                .collect();
            // The former body: last write wins in a map, then sort.
            let mut map = HashMap::new();
            for e in &input {
                map.insert(e.prefix, e.next_hop);
            }
            let mut expect: Vec<RouteEntry<A>> = map
                .into_iter()
                .map(|(prefix, next_hop)| RouteEntry { prefix, next_hop })
                .collect();
            expect.sort_by_key(|e| key(e.prefix));
            assert_eq!(RoutingTable::from_entries(input).entries(), expect);
        }
    }

    fn from_entries_dedups_keeping_last<A: AddressBits>() {
        let t = RoutingTable::<A>::from_entries([route(&[10], 8, 1), route(&[10], 8, 2)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].next_hop, NextHop(2));
    }

    fn longest_match_picks_most_specific<A: AddressBits>() {
        let t = RoutingTable::<A>::from_entries([
            route(&[], 0, 0),
            route(&[10], 8, 1),
            route(&[10, 1], 16, 2),
            route(&[10, 1, 2], 24, 3),
        ]);
        let nh = |bytes: &[u8]| t.longest_match(addr(bytes)).unwrap().next_hop;
        assert_eq!(nh(&[10, 1, 2, 3]), NextHop(3));
        assert_eq!(nh(&[10, 1, 3, 3]), NextHop(2));
        assert_eq!(nh(&[10, 2]), NextHop(1));
        assert_eq!(nh(&[11]), NextHop(0));
    }

    fn longest_match_none_without_default<A: AddressBits>() {
        let t = RoutingTable::<A>::from_entries([route(&[10], 8, 1)]);
        assert!(t.longest_match(addr(&[11])).is_none());
        assert!(!t.covers(addr(&[11])));
        assert!(t.covers(addr(&[10])));
        assert!(!RoutingTable::<A>::new().covers(A::ZERO));
    }

    fn insert_and_remove_keep_sorted_unique<A: AddressBits>() {
        let mut t = RoutingTable::<A>::new();
        t.insert(route(&[10], 8, 1));
        t.insert(route(&[9], 8, 2));
        t.insert(route(&[10], 8, 3)); // replace
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].prefix, prefix(&[9], 8));
        assert_eq!(t.get(prefix(&[10], 8)), Some(NextHop(3)));
        assert_eq!(t.longest_match(addr(&[10])).unwrap().next_hop, NextHop(3));
        let removed = t.remove(prefix(&[9], 8)).unwrap();
        assert_eq!(removed.next_hop, NextHop(2));
        assert_eq!(t.len(), 1);
        assert!(t.remove(prefix(&[9], 8)).is_none());
        assert_eq!(t.get(prefix(&[9], 8)), None);
    }

    fn next_hop_count<A: AddressBits>() {
        assert_eq!(RoutingTable::<A>::new().next_hop_count(), 0);
        let t = RoutingTable::<A>::from_entries([route(&[10], 8, 7), route(&[11], 8, 3)]);
        assert_eq!(t.next_hop_count(), 8);
    }

    fn same_bits_different_len_are_distinct_routes<A: AddressBits>() {
        let t = RoutingTable::<A>::from_entries([route(&[10], 8, 1), route(&[10], 16, 2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.longest_match(addr(&[10, 0, 0, 1])).unwrap().next_hop,
            NextHop(2)
        );
        assert_eq!(
            t.longest_match(addr(&[10, 1, 0, 1])).unwrap().next_hop,
            NextHop(1)
        );
    }

    fn range_and_best_cover<A: AddressBits>() {
        let p16 = prefix::<A>(&[0x20, 0x01], 16);
        let host = prefix::<A>(&[0x20, 0x01, 0x0d, 0xb8], A::BITS);
        let t = RoutingTable::from_entries([
            route(&[], 0, 0),
            route(&[0x20, 0x01], 16, 1),
            route(&[0x20, 0x01, 0x0d, 0xb8], A::BITS, 2),
            route(&[0x20, 0x02], 16, 3),
        ]);
        // The /16's span holds itself and the full-length route inside
        // it; the default starts below it, the sibling /16 above.
        let span = t.range(p16.first_addr(), p16.last_addr());
        assert_eq!(
            span.iter().map(|e| e.prefix).collect::<Vec<_>>(),
            [p16, host]
        );
        // The whole address space is every route.
        assert_eq!(t.range(A::ZERO, !A::ZERO).len(), 4);
        // best_cover honours the length cap, down to the /0.
        let a = host.bits();
        assert_eq!(t.best_cover(a, A::BITS).unwrap().prefix, host);
        assert_eq!(t.best_cover(a, A::BITS - 1).unwrap().prefix, p16);
        assert_eq!(t.best_cover(a, 15).unwrap().prefix, Prefix::DEFAULT);
        assert_eq!(
            RoutingTable::from_entries([route::<A>(&[10], 8, 1)]).best_cover(a, A::BITS),
            None
        );
    }

    fn collects_and_iterates<A: AddressBits>() {
        let t: RoutingTable<A> = [route(&[11], 8, 3), route(&[10], 8, 1), route(&[11], 8, 4)]
            .into_iter()
            .collect();
        let seen: Vec<(Prefix<A>, u16)> =
            (&t).into_iter().map(|e| (e.prefix, e.next_hop.0)).collect();
        assert_eq!(seen, [(prefix(&[10], 8), 1), (prefix(&[11], 8), 4)]);
        assert_eq!(t.prefixes().count(), 2);
    }
}
