//! DP trie — the *dynamic prefix trie* of Doeringer, Karjoth & Nassehi,
//! "Routing on Longest-Matching Prefixes" (ref \[8\] of the paper).
//!
//! The DP trie is a path-compressed binary trie that stores prefixes in
//! its nodes: a node exists for every stored prefix and for every branch
//! point where two stored prefixes diverge. Search walks down comparing
//! the packed path label at each node and keeps the deepest matching
//! route, which on backbone tables costs ≈16 memory accesses per lookup —
//! the figure the paper measures in §5.1 and turns into its 62-cycle FE
//! model.
//!
//! Storage follows the paper's §4 model exactly: each node is one byte of
//! index plus five 4-byte pointers (left, right, parent, key, data) —
//! [`DP_NODE_BYTES`] = 21 bytes. The full update machinery of \[8\] is
//! condensed to the standard radix insert/withdraw with node splitting and
//! pruning; no experiment in the paper exercises more.

use crate::{CountedLookup, Lpm, Tally, Walk, BATCH_LANES};
use spal_rib::{NextHop, Prefix, RoutingTable};

/// Bytes per DP-trie node under the paper's model (§4): 1 index byte +
/// five 4-byte pointers.
pub const DP_NODE_BYTES: usize = 21;

/// Modeled bytes per next-hop data record (the "data pointer" read that
/// ends a successful lookup in \[8\]).
const NH_DATA_BYTES: usize = 4;

/// Line-accounting region tags: the node arena and the next-hop data
/// table are distinct arrays.
const REGION_NODES: u32 = 0;
const REGION_NH: u32 = 1;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    /// Path label from the root: the node "owns" the prefix
    /// `key_bits/key_len`.
    key_bits: u32,
    key_len: u8,
    route: Option<NextHop>,
    children: [u32; 2],
    /// Kept for structural fidelity with [8] (and used by pruning).
    parent: u32,
}

impl Node {
    fn new(key_bits: u32, key_len: u8, parent: u32) -> Self {
        Node {
            key_bits,
            key_len,
            route: None,
            children: [NONE, NONE],
            parent,
        }
    }
}

/// The DP (dynamic prefix) trie.
#[derive(Debug, Clone)]
pub struct DpTrie {
    nodes: Vec<Node>,
    /// Recycled node slots (from withdrawals).
    free: Vec<u32>,
    routes: usize,
}

impl Default for DpTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl DpTrie {
    /// An empty trie (root node only).
    pub fn new() -> Self {
        DpTrie {
            nodes: vec![Node::new(0, 0, NONE)],
            free: Vec::new(),
            routes: 0,
        }
    }

    /// Build from a routing table.
    pub fn build(table: &RoutingTable) -> Self {
        let mut t = Self::new();
        for e in table {
            t.insert(e.prefix, e.next_hop);
        }
        t
    }

    /// Number of live nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Number of stored routes.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(node);
            idx
        }
    }

    /// Leading bits on which `prefix` and the node label `(bits, len)`
    /// agree, capped at both lengths.
    fn common_with(prefix: Prefix, bits: u32, len: u8) -> u8 {
        let raw = (prefix.bits() ^ bits).leading_zeros() as u8;
        raw.min(prefix.len()).min(len)
    }

    /// Insert (or replace) a route. Returns the previous next hop if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, next_hop: NextHop) -> Option<NextHop> {
        let mut cur = 0u32;
        loop {
            let (cur_len, cur_bits) = {
                let n = &self.nodes[cur as usize];
                (n.key_len, n.key_bits)
            };
            debug_assert!(
                Self::common_with(prefix, cur_bits, cur_len) == cur_len.min(prefix.len())
            );
            if cur_len == prefix.len() {
                // Node label equals the prefix: store here.
                let prev = self.nodes[cur as usize].route.replace(next_hop);
                if prev.is_none() {
                    self.routes += 1;
                }
                return Some(prev).flatten();
            }
            // prefix extends below this node; pick the branch bit.
            let b = prefix.bits().bit(cur_len) as usize;
            let child = self.nodes[cur as usize].children[b];
            if child == NONE {
                let idx = self.alloc(Node::new(prefix.bits(), prefix.len(), cur));
                self.nodes[idx as usize].route = Some(next_hop);
                self.nodes[cur as usize].children[b] = idx;
                self.routes += 1;
                return None;
            }
            let (child_bits, child_len) = {
                let n = &self.nodes[child as usize];
                (n.key_bits, n.key_len)
            };
            let common = Self::common_with(prefix, child_bits, child_len);
            if common == child_len {
                // Child label is a prefix of `prefix`: descend.
                cur = child;
                continue;
            }
            // Split the edge at `common`.
            let mid_bits = child_bits & mask(common);
            let mid = self.alloc(Node::new(mid_bits, common, cur));
            self.nodes[cur as usize].children[b] = mid;
            let child_bit = child_bits.bit(common) as usize;
            self.nodes[mid as usize].children[child_bit] = child;
            self.nodes[child as usize].parent = mid;
            if prefix.len() == common {
                self.nodes[mid as usize].route = Some(next_hop);
                self.routes += 1;
            } else {
                // The prefix diverges from the child at `common`.
                let leaf = self.alloc(Node::new(prefix.bits(), prefix.len(), mid));
                self.nodes[leaf as usize].route = Some(next_hop);
                debug_assert_ne!(prefix.bits().bit(common) as usize, child_bit);
                self.nodes[mid as usize].children[prefix.bits().bit(common) as usize] = leaf;
                self.routes += 1;
            }
            return None;
        }
    }

    /// Withdraw the route for `prefix`, returning its next hop if it was
    /// present. Childless routeless nodes are pruned and their slots
    /// recycled; single-child pass-through nodes are merged away.
    pub fn remove(&mut self, prefix: Prefix) -> Option<NextHop> {
        // Find the node whose label equals the prefix.
        let mut cur = 0u32;
        loop {
            let n = &self.nodes[cur as usize];
            if n.key_len == prefix.len() && n.key_bits == prefix.bits() {
                break;
            }
            if n.key_len >= prefix.len() {
                return None;
            }
            let child = n.children[prefix.bits().bit(n.key_len) as usize];
            if child == NONE {
                return None;
            }
            let c = &self.nodes[child as usize];
            if Self::common_with(prefix, c.key_bits, c.key_len) < c.key_len.min(prefix.len()) {
                return None;
            }
            if c.key_len > prefix.len() {
                return None;
            }
            cur = child;
        }
        let prev = self.nodes[cur as usize].route.take();
        if prev.is_some() {
            self.routes -= 1;
            self.prune(cur);
        }
        prev
    }

    /// Remove structurally useless nodes starting at `idx` and walking up.
    fn prune(&mut self, mut idx: u32) {
        while idx != 0 {
            let (parent, child_count, first_child, has_route) = {
                let n = &self.nodes[idx as usize];
                let cc = n.children.iter().filter(|&&c| c != NONE).count();
                let fc = n.children.iter().copied().find(|&c| c != NONE);
                (n.parent, cc, fc, n.route.is_some())
            };
            if has_route {
                return;
            }
            match (child_count, first_child) {
                (0, _) => {
                    // Unlink from parent and recycle.
                    let p = &mut self.nodes[parent as usize];
                    for c in &mut p.children {
                        if *c == idx {
                            *c = NONE;
                        }
                    }
                    self.free.push(idx);
                    idx = parent;
                }
                (1, Some(only)) => {
                    // Merge: the single child replaces this node.
                    let p = &mut self.nodes[parent as usize];
                    for c in &mut p.children {
                        if *c == idx {
                            *c = only;
                        }
                    }
                    self.nodes[only as usize].parent = parent;
                    self.free.push(idx);
                    return;
                }
                _ => return,
            }
        }
    }
}

#[inline]
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// MSB-first bit accessor matching `spal_rib::bits::AddressBits`.
trait BitAt {
    fn bit(self, i: u8) -> bool;
}
impl BitAt for u32 {
    #[inline]
    fn bit(self, i: u8) -> bool {
        (self >> (31 - i)) & 1 == 1
    }
}

/// Per-lane walk state: the node whose label matched last, and the
/// deepest route seen.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    cur: usize,
    best: Option<NextHop>,
}

impl Walk for DpTrie {
    type Addr = u32;
    type Lane = Lane;

    #[inline]
    fn start<T: Tally>(&self, _addr: u32, t: &mut T) -> Lane {
        t.read(REGION_NODES, 0, DP_NODE_BYTES); // root node read
        Lane { cur: 0, best: None }
    }

    /// Route check, branch bit, child read, label compare.
    #[inline]
    fn step<T: Tally>(&self, addr: u32, lane: &mut Lane, t: &mut T) -> bool {
        let n = &self.nodes[lane.cur];
        // `cur`'s label is guaranteed to match `addr` (checked before
        // descending), so any route here is a candidate.
        if let Some(nh) = n.route {
            lane.best = Some(nh);
        }
        if n.key_len >= 32 {
            return false;
        }
        let child = n.children[addr.bit(n.key_len) as usize];
        if child == NONE {
            return false;
        }
        // One access reads the child node — its label (index/key) and
        // pointers come in the same 21-byte read. The lane moves to it
        // before the label compare, not under it: a lane updated under
        // that data-dependent branch cost the lane driver 5–7 %
        // (EXPERIMENTS E42).
        lane.cur = child as usize;
        let c = &self.nodes[lane.cur];
        t.read(REGION_NODES, lane.cur * DP_NODE_BYTES, DP_NODE_BYTES);
        // Path compression may have skipped over a divergence; then the
        // deepest match seen so far is the answer ([8]'s backtrack ends
        // here because ancestors were already inspected on the way
        // down).
        addr & mask(c.key_len) == c.key_bits
    }

    /// Tally the next-hop (data pointer) read on a match.
    #[inline]
    fn finish<T: Tally>(&self, _addr: u32, lane: &Lane, t: &mut T) -> T::Out {
        if let Some(nh) = lane.best {
            t.read(REGION_NH, nh.0 as usize * NH_DATA_BYTES, NH_DATA_BYTES);
        }
        t.done(lane.best)
    }
}

impl Lpm for DpTrie {
    walk_lookups!(u32, BATCH_LANES);

    /// The DP trie is natively incremental (\[8\]'s whole point): each
    /// change replays through [`DpTrie::insert`]/[`DpTrie::remove`].
    fn apply_delta(
        &mut self,
        changed: &[Prefix],
        rib: &spal_rib::RoutingTable,
    ) -> Option<crate::DeltaStats> {
        let before = self.node_count();
        for &p in changed {
            match rib.get(p) {
                Some(nh) => {
                    self.insert(p, nh);
                }
                None => {
                    self.remove(p);
                }
            }
        }
        Some(crate::DeltaStats {
            prefixes_applied: changed.len(),
            bytes_touched: (changed.len() + self.node_count().abs_diff(before)) * DP_NODE_BYTES,
        })
    }

    fn storage_bytes(&self) -> usize {
        self.node_count() * DP_NODE_BYTES
    }

    fn name(&self) -> &'static str {
        "DP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::{synth, RouteEntry};

    fn table(prefixes: &[(&str, u16)]) -> RoutingTable {
        RoutingTable::from_entries(prefixes.iter().map(|&(s, nh)| RouteEntry {
            prefix: s.parse().unwrap(),
            next_hop: NextHop(nh),
        }))
    }

    fn assert_agrees_with_oracle(rt: &RoutingTable, addrs: impl Iterator<Item = u32>) {
        let trie = DpTrie::build(rt);
        for addr in addrs {
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn empty() {
        let t = DpTrie::new();
        assert_eq!(t.lookup(0xDEAD_BEEF), None);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn nested_prefixes() {
        let rt = table(&[
            ("0.0.0.0/0", 0),
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.0/24", 3),
            ("10.1.2.3/32", 4),
        ]);
        assert_agrees_with_oracle(
            &rt,
            [
                0x0A01_0203u32,
                0x0A01_0204,
                0x0A01_0300,
                0x0A02_0000,
                0x0B00_0000,
            ]
            .into_iter(),
        );
    }

    #[test]
    fn split_edge_cases() {
        // Force edge splits: siblings diverging mid-label, and a prefix
        // that lands exactly on a split point.
        let rt = table(&[
            ("10.1.2.0/24", 1),
            ("10.1.3.0/24", 2), // diverges from the first at bit 23
            ("10.1.0.0/16", 3), // lands on an existing split point
            ("10.128.0.0/9", 4),
        ]);
        assert_agrees_with_oracle(
            &rt,
            [
                0x0A01_0200u32,
                0x0A01_0300,
                0x0A01_0400,
                0x0A80_0000,
                0x0A00_0000,
            ]
            .into_iter(),
        );
    }

    #[test]
    fn node_count_scales_like_prefix_count() {
        let rt = synth::small(11);
        let trie = DpTrie::build(&rt);
        assert_eq!(trie.route_count(), rt.len());
        // Path compression: between n and 2n nodes for n prefixes.
        assert!(trie.node_count() >= rt.len());
        assert!(trie.node_count() <= 2 * rt.len() + 1);
        assert_eq!(trie.storage_bytes(), trie.node_count() * DP_NODE_BYTES);
    }

    #[test]
    fn agrees_with_oracle_on_synthetic_table() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        // Mix of random addresses and addresses inside known prefixes.
        let mut addrs: Vec<u32> = (0..300).map(|_| rng.gen()).collect();
        for e in rt.entries().iter().step_by(7) {
            addrs.push(e.prefix.first_addr());
            addrs.push(e.prefix.last_addr());
        }
        assert_agrees_with_oracle(&rt, addrs.into_iter());
    }

    #[test]
    fn insert_replace() {
        let mut t = DpTrie::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(t.insert(p, NextHop(1)), None);
        assert_eq!(t.insert(p, NextHop(2)), Some(NextHop(1)));
        assert_eq!(t.route_count(), 1);
        assert_eq!(t.lookup(0x0A00_0001), Some(NextHop(2)));
    }

    #[test]
    fn remove_and_prune() {
        let mut t = DpTrie::new();
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p16: Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Prefix = "10.1.2.0/24".parse().unwrap();
        t.insert(p8, NextHop(1));
        t.insert(p16, NextHop(2));
        t.insert(p24, NextHop(3));
        assert_eq!(t.remove(p16), Some(NextHop(2)));
        assert_eq!(t.lookup(0x0A01_0203), Some(NextHop(3)));
        assert_eq!(t.lookup(0x0A01_0003), Some(NextHop(1)));
        assert_eq!(t.remove(p16), None);
        assert_eq!(t.remove("10.1.0.0/17".parse().unwrap()), None);
        assert_eq!(t.remove(p24), Some(NextHop(3)));
        assert_eq!(t.lookup(0x0A01_0203), Some(NextHop(1)));
        assert_eq!(t.remove(p8), Some(NextHop(1)));
        assert_eq!(t.lookup(0x0A01_0203), None);
        // Everything pruned back to the root.
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn remove_reuses_slots() {
        let mut t = DpTrie::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        t.insert(p, NextHop(1));
        let count = t.node_count();
        t.remove(p);
        t.insert(p, NextHop(2));
        assert_eq!(t.node_count(), count);
        assert_eq!(t.lookup(0x0A00_0000), Some(NextHop(2)));
    }

    #[test]
    fn default_route() {
        let mut t = DpTrie::new();
        t.insert(Prefix::DEFAULT, NextHop(7));
        assert_eq!(t.lookup(0), Some(NextHop(7)));
        assert_eq!(t.lookup(u32::MAX), Some(NextHop(7)));
        assert_eq!(t.remove(Prefix::DEFAULT), Some(NextHop(7)));
        assert_eq!(t.lookup(0), None);
    }

    #[test]
    fn host_routes() {
        let rt = table(&[("1.2.3.4/32", 1), ("1.2.3.5/32", 2), ("1.2.3.4/31", 3)]);
        assert_agrees_with_oracle(&rt, [0x0102_0304u32, 0x0102_0305, 0x0102_0306].into_iter());
    }

    #[test]
    fn access_count_reasonable() {
        let rt = synth::small(21);
        let trie = DpTrie::build(&rt);
        let c = trie.lookup_counted(rt.entries()[500].prefix.first_addr());
        // Path-compressed depth: strictly fewer accesses than the 25-33 a
        // binary trie would need, but more than one.
        assert!(
            c.mem_accesses > 1 && c.mem_accesses < 33,
            "{}",
            c.mem_accesses
        );
    }
}
