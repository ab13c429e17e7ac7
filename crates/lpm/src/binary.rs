//! Plain binary (uni-bit) trie: the reference LPM structure.
//!
//! One node per distinct prefix of a stored prefix. Lookup inspects a bit
//! per level and remembers the deepest route passed. This is the slowest
//! and most storage-hungry structure (the paper's motivation for the
//! compressed tries), but it is trivially correct, supports incremental
//! insert/withdraw, and is generic over address width so the IPv6
//! extension (§6) can reuse it unchanged.

use crate::{CountedLookup, DeltaStats, Lpm, Tally, Walk, BATCH_LANES};
use spal_rib::bits::AddressBits;
use spal_rib::{NextHop, Prefix, RoutingTable};

/// Line-accounting region tag: the node arena (the only array read).
const REGION_NODES: u32 = 0;

/// Sentinel for "no child".
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    children: [u32; 2],
    route: Option<NextHop>,
}

impl Node {
    fn new() -> Self {
        Node {
            children: [NONE, NONE],
            route: None,
        }
    }
}

/// Byte size modelled per node: two 4-byte child pointers plus a 4-byte
/// route field (next hop + validity).
pub const NODE_BYTES: usize = 12;

/// A binary trie over addresses of type `A` (`u32` for IPv4, `u128` for
/// IPv6). Nodes live in a `Vec` arena; child links are indices.
#[derive(Debug, Clone)]
pub struct GenericBinaryTrie<A: AddressBits> {
    nodes: Vec<Node>,
    routes: usize,
    _marker: std::marker::PhantomData<A>,
}

/// The IPv4 binary trie.
pub type BinaryTrie = GenericBinaryTrie<u32>;

impl<A: AddressBits> Default for GenericBinaryTrie<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: AddressBits> GenericBinaryTrie<A> {
    /// An empty trie (just a root node).
    pub fn new() -> Self {
        GenericBinaryTrie {
            nodes: vec![Node::new()],
            routes: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Build a binary trie from a routing table.
    pub fn build(table: &RoutingTable<A>) -> Self {
        let mut trie = Self::new();
        for e in table {
            trie.insert(e.prefix.bits(), e.prefix.len(), e.next_hop);
        }
        trie
    }

    /// Number of nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of stored routes.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Insert (or replace) a route for the prefix `(bits, len)`.
    /// Returns the previous next hop if the prefix was present.
    ///
    /// # Panics
    /// Panics if `len > A::BITS`.
    pub fn insert(&mut self, bits: A, len: u8, next_hop: NextHop) -> Option<NextHop> {
        assert!(len <= A::BITS, "prefix length {len} exceeds address width");
        let mut node = 0usize;
        for i in 0..len {
            let b = bits.bit(i) as usize;
            let child = self.nodes[node].children[b];
            node = if child == NONE {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[node].children[b] = idx;
                idx as usize
            } else {
                child as usize
            };
        }
        let prev = self.nodes[node].route.replace(next_hop);
        if prev.is_none() {
            self.routes += 1;
        }
        prev
    }

    /// Withdraw the route for `(bits, len)`, returning its next hop if it
    /// was present. Nodes are not pruned (withdrawals are rare relative to
    /// lookups; a rebuild reclaims the space).
    pub fn remove(&mut self, bits: A, len: u8) -> Option<NextHop> {
        assert!(len <= A::BITS, "prefix length {len} exceeds address width");
        let mut node = 0usize;
        for i in 0..len {
            let b = bits.bit(i) as usize;
            let child = self.nodes[node].children[b];
            if child == NONE {
                return None;
            }
            node = child as usize;
        }
        let prev = self.nodes[node].route.take();
        if prev.is_some() {
            self.routes -= 1;
        }
        prev
    }
}

/// Per-lane walk state: the node last read, the address bits consumed,
/// and the deepest route passed.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    node: u32,
    depth: u8,
    best: Option<NextHop>,
}

/// One access per node visited. Lines: each visited node is a
/// [`NODE_BYTES`]-byte record at `index * NODE_BYTES` in the arena;
/// records straddling a 64-byte boundary touch two lines.
impl<A: AddressBits> Walk for GenericBinaryTrie<A> {
    type Addr = A;
    type Lane = Lane;

    #[inline]
    fn start<T: Tally>(&self, _addr: A, t: &mut T) -> Lane {
        t.read(REGION_NODES, 0, NODE_BYTES); // root read
        Lane {
            node: 0,
            depth: 0,
            best: self.nodes[0].route,
        }
    }

    /// Read the child the next address bit selects.
    #[inline]
    fn step<T: Tally>(&self, addr: A, lane: &mut Lane, t: &mut T) -> bool {
        if lane.depth >= A::BITS {
            return false;
        }
        let child = self.nodes[lane.node as usize].children[addr.bit(lane.depth) as usize];
        if child == NONE {
            return false;
        }
        lane.node = child;
        t.read(REGION_NODES, child as usize * NODE_BYTES, NODE_BYTES);
        if let Some(nh) = self.nodes[child as usize].route {
            lane.best = Some(nh);
        }
        lane.depth += 1;
        true
    }

    #[inline]
    fn finish<T: Tally>(&self, _addr: A, lane: &Lane, t: &mut T) -> T::Out {
        t.done(lane.best)
    }
}

impl<A: AddressBits> Lpm<A> for GenericBinaryTrie<A> {
    // The counted walk runs one lane: its per-node line-set insert, not
    // memory, bounds a deep walk, and four interleaved lanes ran it at
    // 0.41× one lane on the DFZ v6 table and 0.73× on the DFZ v4 table
    // (EXPERIMENTS E44 §1).
    walk_lookups!(A, BATCH_LANES, 1);

    /// The binary trie is natively incremental: each change replays
    /// through [`GenericBinaryTrie::insert`]/[`GenericBinaryTrie::remove`],
    /// touching only the path to the changed prefix. Never declines.
    fn apply_delta(&mut self, changed: &[Prefix<A>], rib: &RoutingTable<A>) -> Option<DeltaStats> {
        let before = self.nodes.len();
        for &p in changed {
            match rib.get(p) {
                Some(nh) => {
                    self.insert(p.bits(), p.len(), nh);
                }
                None => {
                    self.remove(p.bits(), p.len());
                }
            }
        }
        Some(DeltaStats {
            prefixes_applied: changed.len(),
            // Terminal-node rewrite per change plus the path nodes
            // allocated or freed.
            bytes_touched: (changed.len() + self.nodes.len().abs_diff(before)) * NODE_BYTES,
        })
    }

    fn storage_bytes(&self) -> usize {
        self.nodes.len() * NODE_BYTES
    }

    /// `"Binary"` at 32 bits, `"Binary6"` at 128 — the labels the
    /// committed benchmark rows carry.
    fn name(&self) -> &'static str {
        if A::BITS == 32 {
            "Binary"
        } else {
            "Binary6"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::{RouteEntry, RoutingTable};

    fn table(prefixes: &[(&str, u16)]) -> RoutingTable {
        RoutingTable::from_entries(prefixes.iter().map(|&(s, nh)| RouteEntry {
            prefix: s.parse().unwrap(),
            next_hop: NextHop(nh),
        }))
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let t = BinaryTrie::new();
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(u32::MAX), None);
        assert_eq!(t.route_count(), 0);
    }

    #[test]
    fn longest_match_agrees_with_oracle() {
        let rt = table(&[
            ("0.0.0.0/0", 0),
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.0/24", 3),
            ("10.1.2.3/32", 4),
        ]);
        let trie = BinaryTrie::build(&rt);
        for addr in [
            0x0A01_0203u32,
            0x0A01_0204,
            0x0A01_0300,
            0x0A02_0000,
            0x0B00_0000,
        ] {
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#x}"
            );
        }
    }

    #[test]
    fn default_route_only() {
        let rt = table(&[("0.0.0.0/0", 9)]);
        let trie = BinaryTrie::build(&rt);
        assert_eq!(trie.lookup(12345), Some(NextHop(9)));
        // Root-only lookup costs a single access.
        assert_eq!(trie.lookup_counted(12345).mem_accesses, 1);
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = BinaryTrie::new();
        assert_eq!(t.insert(0x0A00_0000, 8, NextHop(1)), None);
        assert_eq!(t.insert(0x0A00_0000, 8, NextHop(2)), Some(NextHop(1)));
        assert_eq!(t.route_count(), 1);
        assert_eq!(t.lookup(0x0A05_0000), Some(NextHop(2)));
        assert_eq!(t.remove(0x0A00_0000, 8), Some(NextHop(2)));
        assert_eq!(t.remove(0x0A00_0000, 8), None);
        assert_eq!(t.lookup(0x0A05_0000), None);
        assert_eq!(t.route_count(), 0);
    }

    #[test]
    fn remove_missing_deep_prefix() {
        let mut t = BinaryTrie::new();
        t.insert(0x0A00_0000, 8, NextHop(1));
        assert_eq!(t.remove(0x0A00_0000, 16), None);
        assert_eq!(t.lookup(0x0A00_0000), Some(NextHop(1)));
    }

    #[test]
    fn access_count_is_depth_plus_one() {
        let rt = table(&[("10.1.2.0/24", 3)]);
        let trie = BinaryTrie::build(&rt);
        let c = trie.lookup_counted(0x0A01_0203);
        assert_eq!(c.next_hop, Some(NextHop(3)));
        assert_eq!(c.mem_accesses, 25); // root + 24 levels
    }

    #[test]
    fn storage_grows_with_nodes() {
        let rt = table(&[("10.0.0.0/8", 1)]);
        let trie = BinaryTrie::build(&rt);
        assert_eq!(trie.node_count(), 9); // root + 8 path nodes
        assert_eq!(trie.storage_bytes(), 9 * NODE_BYTES);
    }

    #[test]
    fn ipv6_binary_trie() {
        let mut t: GenericBinaryTrie<u128> = GenericBinaryTrie::new();
        let p32 = 0x2001_0db8u128 << 96;
        let p48 = 0x2001_0db8_0001u128 << 80;
        t.insert(p32, 32, NextHop(1));
        t.insert(p48, 48, NextHop(2));
        assert_eq!(t.lookup(p48 | 5), Some(NextHop(2)));
        assert_eq!(t.lookup(p32 | (2u128 << 80)), Some(NextHop(1)));
        assert_eq!(t.lookup(0x3000u128 << 112), None);
    }

    #[test]
    fn dense_sibling_prefixes() {
        // Both children of a node carry routes; check bit-direction is right.
        let rt = table(&[("128.0.0.0/1", 1), ("0.0.0.0/1", 2)]);
        let trie = BinaryTrie::build(&rt);
        assert_eq!(trie.lookup(0xFFFF_FFFF), Some(NextHop(1)));
        assert_eq!(trie.lookup(0x0000_0001), Some(NextHop(2)));
    }
}
