//! In-memory routing tables and the linear reference longest-prefix match.

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
pub struct RouteEntry {
    pub prefix: Prefix,
    pub next_hop: NextHop,
}

/// A BGP-style routing table: a set of routes with unique prefixes.
///
/// `RoutingTable` is the exchange format between the synthetic generators,
/// the partitioner and the trie builders. It also provides
/// [`RoutingTable::longest_match`], a deliberately simple O(n) matcher used
/// as the correctness oracle for every trie implementation in `spal-lpm`.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: Vec<RouteEntry>,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of routes. Later duplicates of the same prefix
    /// replace earlier ones (mirroring a routing update). Entries are kept
    /// sorted by (prefix bits, length) for deterministic iteration.
    pub fn from_entries(entries: impl IntoIterator<Item = RouteEntry>) -> Self {
        let mut map: HashMap<Prefix, NextHop> = HashMap::new();
        for e in entries {
            map.insert(e.prefix, e.next_hop);
        }
        let mut entries: Vec<RouteEntry> = map
            .into_iter()
            .map(|(prefix, next_hop)| RouteEntry { prefix, next_hop })
            .collect();
        entries.sort_by_key(|e| (e.prefix.bits(), e.prefix.len()));
        RoutingTable { entries }
    }

    /// Insert or replace a route. O(n) — tables are built in bulk via
    /// [`RoutingTable::from_entries`]; this exists for incremental-update
    /// tests and the update-flush experiments.
    pub fn insert(&mut self, entry: RouteEntry) {
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
    pub fn remove(&mut self, prefix: Prefix) -> Option<RouteEntry> {
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
    pub fn entries(&self) -> &[RouteEntry] {
        &self.entries
    }

    /// Just the prefixes, in entry order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.entries.iter().map(|e| e.prefix)
    }

    /// The next hop stored for exactly `prefix`, if present. O(log n).
    pub fn get(&self, prefix: Prefix) -> Option<NextHop> {
        self.entries
            .binary_search_by_key(&(prefix.bits(), prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            })
            .ok()
            .map(|i| self.entries[i].next_hop)
    }

    /// All routes whose canonical bits fall inside `[lo, hi]`, as a
    /// contiguous sorted slice. O(log n) to locate. For a prefix-aligned
    /// query range this is every route *contained* in the range plus, when
    /// a shorter route starts exactly at `lo`, routes containing it —
    /// aligned ranges cannot partially overlap, so callers filter by
    /// length.
    pub fn range(&self, lo: u32, hi: u32) -> &[RouteEntry] {
        let start = self.entries.partition_point(|e| e.prefix.bits() < lo);
        let end = self.entries.partition_point(|e| e.prefix.bits() <= hi);
        &self.entries[start..end]
    }

    /// Longest match for `addr` among routes no longer than `max_len`
    /// bits. O(max_len · log n) — walks candidate prefix lengths from
    /// most to least specific. Used by the incremental patch paths to
    /// recompute the "default" value a region inherits from above.
    pub fn best_cover(&self, addr: u32, max_len: u8) -> Option<RouteEntry> {
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

    /// Whether any route strictly contained in `prefix` (longer, inside
    /// its range) exists, other than routes in `except`. Used by the
    /// LC-trie patch path to detect leaf↔internal classification flips.
    pub fn has_strict_descendant_except(&self, prefix: Prefix, except: &[Prefix]) -> bool {
        self.range(prefix.first_addr(), prefix.last_addr())
            .iter()
            .any(|e| {
                e.prefix.len() > prefix.len()
                    && prefix.contains(e.prefix)
                    && !except.contains(&e.prefix)
            })
    }

    /// Reference longest-prefix match: scans every route. O(n) per lookup,
    /// used as the oracle the trie implementations are tested against.
    pub fn longest_match(&self, addr: u32) -> Option<RouteEntry> {
        self.entries
            .iter()
            .filter(|e| e.prefix.matches(addr))
            .max_by_key(|e| e.prefix.len())
            .copied()
    }

    /// Whether any route matches `addr`.
    pub fn covers(&self, addr: u32) -> bool {
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

impl crate::bits::IpTable for RoutingTable {
    type Prefix = Prefix;
    type Entry = RouteEntry;

    fn from_entries(entries: Vec<RouteEntry>) -> Self {
        RoutingTable::from_entries(entries)
    }

    fn entries(&self) -> &[RouteEntry] {
        RoutingTable::entries(self)
    }

    fn prefix_of(entry: &RouteEntry) -> Prefix {
        entry.prefix
    }
}

impl FromIterator<RouteEntry> for RoutingTable {
    fn from_iter<T: IntoIterator<Item = RouteEntry>>(iter: T) -> Self {
        RoutingTable::from_entries(iter)
    }
}

impl<'a> IntoIterator for &'a RoutingTable {
    type Item = &'a RouteEntry;
    type IntoIter = std::slice::Iter<'a, RouteEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(s: &str, nh: u16) -> RouteEntry {
        RouteEntry {
            prefix: s.parse().unwrap(),
            next_hop: NextHop(nh),
        }
    }

    #[test]
    fn from_entries_dedups_keeping_last() {
        let t = RoutingTable::from_entries([route("10.0.0.0/8", 1), route("10.0.0.0/8", 2)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].next_hop, NextHop(2));
    }

    #[test]
    fn longest_match_picks_most_specific() {
        let t = RoutingTable::from_entries([
            route("0.0.0.0/0", 0),
            route("10.0.0.0/8", 1),
            route("10.1.0.0/16", 2),
            route("10.1.2.0/24", 3),
        ]);
        assert_eq!(t.longest_match(0x0A01_0203).unwrap().next_hop, NextHop(3)); // 10.1.2.3
        assert_eq!(t.longest_match(0x0A01_0303).unwrap().next_hop, NextHop(2)); // 10.1.3.3
        assert_eq!(t.longest_match(0x0A02_0000).unwrap().next_hop, NextHop(1)); // 10.2.0.0
        assert_eq!(t.longest_match(0x0B00_0000).unwrap().next_hop, NextHop(0)); // 11.0.0.0
    }

    #[test]
    fn longest_match_none_without_default() {
        let t = RoutingTable::from_entries([route("10.0.0.0/8", 1)]);
        assert!(t.longest_match(0x0B00_0000).is_none());
        assert!(!t.covers(0x0B00_0000));
        assert!(t.covers(0x0A00_0000));
    }

    #[test]
    fn insert_and_remove_keep_sorted_unique() {
        let mut t = RoutingTable::new();
        t.insert(route("10.0.0.0/8", 1));
        t.insert(route("9.0.0.0/8", 2));
        t.insert(route("10.0.0.0/8", 3)); // replace
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].prefix.to_string(), "9.0.0.0/8");
        assert_eq!(t.longest_match(0x0A000000).unwrap().next_hop, NextHop(3));
        let removed = t.remove("9.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(removed.next_hop, NextHop(2));
        assert_eq!(t.len(), 1);
        assert!(t.remove("9.0.0.0/8".parse().unwrap()).is_none());
    }

    #[test]
    fn next_hop_count() {
        assert_eq!(RoutingTable::new().next_hop_count(), 0);
        let t = RoutingTable::from_entries([route("10.0.0.0/8", 7), route("11.0.0.0/8", 3)]);
        assert_eq!(t.next_hop_count(), 8);
    }

    #[test]
    fn same_bits_different_len_are_distinct_routes() {
        let t = RoutingTable::from_entries([route("10.0.0.0/8", 1), route("10.0.0.0/16", 2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.longest_match(0x0A00_0001).unwrap().next_hop, NextHop(2));
        assert_eq!(t.longest_match(0x0A01_0001).unwrap().next_hop, NextHop(1));
    }
}
