//! In-memory routing tables and the linear reference longest-prefix match.

use crate::bits::AddressBits;
use crate::prefix::Prefix;
use std::collections::HashMap;
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
/// [`RoutingTable::longest_match`], a deliberately simple O(n) matcher used
/// as the correctness oracle for every trie implementation in `spal-lpm`.
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
        let mut map: HashMap<Prefix<A>, NextHop> = HashMap::new();
        for e in entries {
            map.insert(e.prefix, e.next_hop);
        }
        let mut entries: Vec<RouteEntry<A>> = map
            .into_iter()
            .map(|(prefix, next_hop)| RouteEntry { prefix, next_hop })
            .collect();
        entries.sort_by_key(|e| (e.prefix.bits(), e.prefix.len()));
        RoutingTable { entries }
    }

    /// Insert or replace a route. O(n) — tables are built in bulk via
    /// [`RoutingTable::from_entries`]; this exists for incremental-update
    /// tests and the update-flush experiments.
    pub fn insert(&mut self, entry: RouteEntry<A>) {
        match self
            .entries
            .binary_search_by_key(&(entry.prefix.bits(), entry.prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            }) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Remove the route for `prefix`, returning it if present.
    pub fn remove(&mut self, prefix: Prefix<A>) -> Option<RouteEntry<A>> {
        match self
            .entries
            .binary_search_by_key(&(prefix.bits(), prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            }) {
            Ok(i) => Some(self.entries.remove(i)),
            Err(_) => None,
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
        self.entries
            .binary_search_by_key(&(prefix.bits(), prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            })
            .ok()
            .map(|i| self.entries[i].next_hop)
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

    /// Reference longest-prefix match: scans every route. O(n) per lookup,
    /// used as the oracle the trie implementations are tested against.
    pub fn longest_match(&self, addr: A) -> Option<RouteEntry<A>> {
        self.entries
            .iter()
            .filter(|e| e.prefix.matches(addr))
            .max_by_key(|e| e.prefix.len())
            .copied()
    }

    /// Whether any route matches `addr`.
    pub fn covers(&self, addr: A) -> bool {
        self.entries.iter().any(|e| e.prefix.matches(addr))
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
mod tests {
    use super::*;
    use crate::prefix::tests::{addr, for_both_widths, prefix};

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
    );

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
