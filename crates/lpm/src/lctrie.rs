//! LC-trie — Nilsson & Karlsson, "IP-Address Lookup Using LC-Tries"
//! (ref \[12\] of the paper): a level- and path-compressed trie over the
//! *leaf* prefixes of the table, with the *internal* prefixes (those that
//! are proper prefixes of another stored prefix) moved to a prefix vector
//! reached through per-leaf chains.
//!
//! Each trie node packs a branch factor, a skip count and a child/leaf
//! index (modelled at the classic 4 bytes). The branch factor at every
//! node is the largest `b` for which at least `FILL_FACTOR` · 2^b of
//! the 2^b child slots are non-empty (the paper evaluates 0.25);
//! empty slots are backed by the sorted-order neighbour sharing the most
//! bits with the slot pattern, which keeps the prefix-chain fallback
//! correct (see `lookup_counted`). Branching never inspects bits past the
//! shortest string in a range, so no leaf prefix can be skipped over.

use crate::{CountedLookup, Lpm, Tally, Walk, BATCH_LANES};
use spal_rib::{NextHop, Prefix, RoutingTable};

/// Share of a node's 2^b child slots that must be non-empty for it to
/// branch b ways: the fill factor the paper evaluates.
const FILL_FACTOR: f64 = 0.25;
/// Modelled bytes per trie node: branch/skip/address packed in 32 bits.
pub const NODE_BYTES: usize = 4;
/// Modelled bytes per base-vector entry: string (4) + length/flags (2) +
/// next hop (2) + prefix-chain pointer (4).
pub const BASE_BYTES: usize = 12;
/// Modelled bytes per prefix-vector entry: length (1) + next hop (2) +
/// chain pointer (4), padded.
pub const PREFIX_BYTES: usize = 8;

/// Line-accounting region tags: the node array, the base vector and the
/// prefix vector are distinct arrays.
const REGION_NODES: u32 = 0;
const REGION_BASE: u32 = 1;
const REGION_PREFIX: u32 = 2;

const NONE: u32 = u32::MAX;
/// Upper bound on a single node's branch factor (2^20 children), keeping
/// worst-case build memory bounded.
const MAX_BRANCH: u8 = 20;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// 0 for a leaf; otherwise the node has 2^branch children.
    branch: u8,
    /// Path-compressed bits skipped before the branch bits.
    skip: u8,
    /// First-child index for internal nodes; base-vector index for leaves.
    adr: u32,
}

#[derive(Debug, Clone, Copy)]
struct BaseEntry {
    bits: u32,
    len: u8,
    next_hop: NextHop,
    /// Deepest internal proper ancestor, as an index into `prefixes`.
    chain: u32,
}

#[derive(Debug, Clone, Copy)]
struct PrefixEntry {
    len: u8,
    next_hop: NextHop,
    /// Next shorter internal ancestor.
    chain: u32,
}

/// The level-compressed trie.
#[derive(Debug, Clone)]
pub struct LcTrie {
    nodes: Vec<Node>,
    base: Vec<BaseEntry>,
    prefixes: Vec<PrefixEntry>,
    routes: usize,
}

impl LcTrie {
    /// Build the trie at the paper's fill factor, `FILL_FACTOR`.
    pub fn build(table: &RoutingTable) -> Self {
        let routes = table.len();
        // Split the prefix set: internal prefixes (proper prefixes of
        // another stored prefix) go to the prefix vector; the rest are the
        // prefix-free leaf set the trie is built over.
        let all: Vec<(Prefix, NextHop)> = table
            .entries()
            .iter()
            .map(|e| (e.prefix, e.next_hop))
            .collect();
        let set: std::collections::HashSet<Prefix> = table.prefixes().collect();
        let mut is_internal = vec![false; all.len()];
        for (i, &(p, _)) in all.iter().enumerate() {
            // p is internal iff some stored prefix strictly extends it.
            // Check by walking down: any descendant in the set shares p's
            // bits; test the two children's subtrees via the sorted order.
            is_internal[i] = has_proper_descendant(&set, &all, p);
        }

        // Prefix vector: internal prefixes sorted by (bits, len) so chains
        // can be resolved by ancestor search.
        let mut internal: Vec<(Prefix, NextHop)> = all
            .iter()
            .zip(&is_internal)
            .filter(|&(_, &internal)| internal)
            .map(|(&e, _)| e)
            .collect();
        internal.sort_by_key(|&(p, _)| (p.bits(), p.len()));
        let find_internal = |p: Prefix| -> Option<u32> {
            internal
                .binary_search_by_key(&(p.bits(), p.len()), |&(q, _)| (q.bits(), q.len()))
                .ok()
                .map(|i| i as u32)
        };
        // Deepest internal proper ancestor of a prefix.
        let deepest_ancestor = |p: Prefix| -> u32 {
            let mut cur = p;
            while let Some(parent) = cur.parent() {
                cur = parent;
                if set.contains(&cur) {
                    if let Some(i) = find_internal(cur) {
                        return i;
                    }
                }
            }
            NONE
        };
        let prefixes: Vec<PrefixEntry> = internal
            .iter()
            .map(|&(p, nh)| PrefixEntry {
                len: p.len(),
                next_hop: nh,
                chain: deepest_ancestor(p),
            })
            .collect();

        // Base vector: leaf prefixes sorted by bits (they are prefix-free,
        // so bit order is unambiguous).
        let mut base: Vec<BaseEntry> = all
            .iter()
            .zip(&is_internal)
            .filter(|&(_, &internal)| !internal)
            .map(|(&(p, nh), _)| BaseEntry {
                bits: p.bits(),
                len: p.len(),
                next_hop: nh,
                chain: deepest_ancestor(p),
            })
            .collect();
        base.sort_by_key(|e| e.bits);

        let mut trie = LcTrie {
            nodes: Vec::new(),
            base,
            prefixes,
            routes,
        };
        if trie.base.is_empty() {
            trie.nodes.push(Node {
                branch: 0,
                skip: 0,
                adr: NONE,
            });
        } else {
            trie.nodes.push(Node {
                branch: 0,
                skip: 0,
                adr: 0,
            });
            trie.subdivide(0, 0, trie.base.len(), 0);
        }
        trie
    }

    /// Recursively build the node at `node_idx` covering base entries
    /// `[first, first+n)`, with `pos` address bits already consumed.
    fn subdivide(&mut self, node_idx: usize, first: usize, n: usize, pos: u8) {
        if n == 1 {
            self.nodes[node_idx] = Node {
                branch: 0,
                skip: 0,
                adr: first as u32,
            };
            return;
        }
        let lo = self.base[first].bits;
        let hi = self.base[first + n - 1].bits;
        let common = (lo ^ hi).leading_zeros() as u8; // > pos since sorted & distinct
        debug_assert!(common >= pos);
        let skip = common - pos;
        // Branch bits may not pass the shortest string in the range
        // (otherwise that leaf prefix could be skipped past).
        let min_len = self.base[first..first + n]
            .iter()
            .map(|e| e.len)
            .min()
            .expect("range non-empty");
        let cap = min_len
            .saturating_sub(common)
            .min(MAX_BRANCH)
            .min(32 - common);
        debug_assert!(cap >= 1, "range of ≥2 entries implies one branchable bit");
        let branch = self.pick_branch(first, n, common, cap);

        // Partition the (sorted) range by the branch-bit pattern.
        let shift = 32 - common as u32 - branch as u32;
        let pattern_of = |bits: u32| ((bits >> shift) as usize) & ((1 << branch) - 1);
        let children_base = self.nodes.len();
        let slots = 1usize << branch;
        self.nodes[node_idx] = Node {
            branch,
            skip,
            adr: children_base as u32,
        };
        self.nodes.resize(
            children_base + slots,
            Node {
                branch: 0,
                skip: 0,
                adr: NONE,
            },
        );
        let mut start = first;
        for pat in 0..slots {
            let mut end = start;
            while end < first + n && pattern_of(self.base[end].bits) == pat {
                end += 1;
            }
            let child = children_base + pat;
            if end == start {
                // Empty slot: back it with the sorted-order neighbour that
                // shares the most bits with the slot pattern, so the
                // prefix-chain fallback still finds every ancestor route.
                let key = self.base[first].bits & !(u32::MAX >> common) | ((pat as u32) << shift);
                let adr = self.nearest_in_range(first, n, key);
                self.nodes[child] = Node {
                    branch: 0,
                    skip: 0,
                    adr,
                };
            } else if end - start == 1 {
                self.nodes[child] = Node {
                    branch: 0,
                    skip: 0,
                    adr: start as u32,
                };
            } else {
                self.subdivide(child, start, end - start, common + branch);
            }
            start = end;
        }
        debug_assert_eq!(start, first + n);
    }

    /// Largest branch factor `b ≤ cap` whose 2^b slots are at least
    /// `FILL_FACTOR` full over the given range.
    fn pick_branch(&self, first: usize, n: usize, common: u8, cap: u8) -> u8 {
        let mut best = 1u8;
        for b in 2..=cap {
            let slots = 1usize << b;
            if slots > 2 * n {
                break; // cannot possibly stay ≥ 50 % of fill levels; cheap cut-off
            }
            let shift = 32 - common as u32 - b as u32;
            let mut nonempty = 0usize;
            let mut prev = usize::MAX;
            for e in &self.base[first..first + n] {
                let pat = ((e.bits >> shift) as usize) & (slots - 1);
                if pat != prev {
                    nonempty += 1;
                    prev = pat;
                }
            }
            if nonempty as f64 >= FILL_FACTOR * slots as f64 {
                best = b;
            }
        }
        best
    }

    /// Base index within `[first, first+n)` sharing the most leading bits
    /// with `key` (one of the two sorted neighbours of the insertion
    /// point).
    fn nearest_in_range(&self, first: usize, n: usize, key: u32) -> u32 {
        let range = &self.base[first..first + n];
        let idx = range.partition_point(|e| e.bits < key);
        let share = |i: usize| (range[i].bits ^ key).leading_zeros();
        let pick = match (idx.checked_sub(1), (idx < n).then_some(idx)) {
            (Some(a), Some(b)) => {
                if share(a) >= share(b) {
                    a
                } else {
                    b
                }
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!("range is non-empty"),
        };
        (first + pick) as u32
    }

    /// Number of trie nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Sizes of the base (leaf) and prefix (internal) vectors.
    pub fn vector_sizes(&self) -> (usize, usize) {
        (self.base.len(), self.prefixes.len())
    }

    /// Number of routes the trie was built from.
    pub fn route_count(&self) -> usize {
        self.routes
    }
}

/// Whether some member of `set` strictly extends `p`.
fn has_proper_descendant(
    set: &std::collections::HashSet<Prefix>,
    all: &[(Prefix, NextHop)],
    p: Prefix,
) -> bool {
    // Tables are bulk-built once per experiment, so an O(n) scan per
    // prefix would be O(n²); instead walk candidate descendants via the
    // sorted `all` slice: prefixes extending p form a contiguous bits
    // range [p.bits(), p.last_addr()].
    let lo = all.partition_point(|&(q, _)| q.bits() < p.bits());
    for &(q, _) in &all[lo..] {
        if q.bits() > p.last_addr() {
            break;
        }
        if q != p && p.contains(q) {
            debug_assert!(set.contains(&q));
            return true;
        }
    }
    false
}

impl Lpm for LcTrie {
    walk_lookups!(u32, BATCH_LANES);

    fn storage_bytes(&self) -> usize {
        self.nodes.len() * NODE_BYTES
            + self.base.len() * BASE_BYTES
            + self.prefixes.len() * PREFIX_BYTES
    }

    fn name(&self) -> &'static str {
        "LC"
    }
}

/// Per-lane walk state: the node last read and the address bits
/// consumed.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    node: Node,
    pos: u8,
}

impl Walk for LcTrie {
    type Addr = u32;
    type Lane = Lane;

    #[inline]
    fn start<T: Tally>(&self, _addr: u32, t: &mut T) -> Lane {
        t.read(REGION_NODES, 0, NODE_BYTES); // root read
        Lane {
            node: self.nodes[0],
            pos: 0,
        }
    }

    /// One level: from a branching node, read the child `addr` selects.
    #[inline]
    fn step<T: Tally>(&self, addr: u32, lane: &mut Lane, t: &mut T) -> bool {
        let node = lane.node;
        if node.branch == 0 {
            return false;
        }
        lane.pos += node.skip;
        let shift = 32 - lane.pos as u32 - node.branch as u32;
        let idx = node.adr as usize + (((addr >> shift) as usize) & ((1 << node.branch) - 1));
        lane.pos += node.branch;
        t.read(REGION_NODES, idx * NODE_BYTES, NODE_BYTES);
        lane.node = self.nodes[idx];
        true
    }

    /// Resolve the leaf: base-vector read, full-match test, then the
    /// prefix-chain fallback.
    fn finish<T: Tally>(&self, addr: u32, lane: &Lane, t: &mut T) -> T::Out {
        let node = lane.node;
        if node.adr == NONE {
            return t.done(None);
        }
        t.read(REGION_BASE, node.adr as usize * BASE_BYTES, BASE_BYTES);
        let entry = self.base[node.adr as usize];
        // Leading bits on which the address agrees with the leaf string.
        let common = ((addr ^ entry.bits).leading_zeros() as u8).min(32);
        if common >= entry.len {
            // The leaf prefix matches in full: it is the longest match.
            return t.done(Some(entry.next_hop));
        }
        // Fall back through the chain of internal ancestors: the deepest
        // one fitting within the agreed bits matches the address.
        let mut chain = entry.chain;
        while chain != NONE {
            t.read(REGION_PREFIX, chain as usize * PREFIX_BYTES, PREFIX_BYTES);
            let p = self.prefixes[chain as usize];
            if p.len <= common {
                return t.done(Some(p.next_hop));
            }
            chain = p.chain;
        }
        t.done(None)
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

    fn assert_agrees(rt: &RoutingTable, addrs: impl Iterator<Item = u32>) {
        let trie = LcTrie::build(rt);
        for addr in addrs {
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn empty_table() {
        let trie = LcTrie::build(&RoutingTable::new());
        assert_eq!(trie.lookup(0), None);
        assert_eq!(trie.lookup(u32::MAX), None);
    }

    #[test]
    fn single_route() {
        let rt = table(&[("10.0.0.0/8", 1)]);
        let trie = LcTrie::build(&rt);
        assert_eq!(trie.lookup(0x0A01_0203), Some(NextHop(1)));
        assert_eq!(trie.lookup(0x0B00_0000), None);
    }

    #[test]
    fn internal_prefixes_via_chain() {
        let rt = table(&[
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.0/24", 3),
            ("10.9.0.0/16", 4),
        ]);
        let trie = LcTrie::build(&rt);
        let (base, pre) = trie.vector_sizes();
        assert_eq!(base, 2); // 10.1.2.0/24 and 10.9.0.0/16 are leaves
        assert_eq!(pre, 2); // /8 and 10.1/16 are internal
        assert_eq!(trie.lookup(0x0A01_0203), Some(NextHop(3)));
        assert_eq!(trie.lookup(0x0A01_0303), Some(NextHop(2)));
        assert_eq!(trie.lookup(0x0A02_0000), Some(NextHop(1)));
        assert_eq!(trie.lookup(0x0A09_0001), Some(NextHop(4)));
        assert_eq!(trie.lookup(0x0B00_0000), None);
    }

    #[test]
    fn default_route_chain_terminates() {
        let rt = table(&[("0.0.0.0/0", 9), ("10.0.0.0/8", 1)]);
        let trie = LcTrie::build(&rt);
        assert_eq!(trie.lookup(0x0A00_0001), Some(NextHop(1)));
        assert_eq!(trie.lookup(0xC000_0000), Some(NextHop(9)));
    }

    #[test]
    fn empty_slot_fallback_is_correct() {
        // A wide branch over sparse children leaves empty slots; an
        // address landing in one must still resolve through the chain.
        let rt = table(&[
            ("10.0.0.0/8", 1),
            ("10.0.0.0/24", 2),
            ("10.64.0.0/24", 3),
            ("10.128.0.0/24", 4),
            ("10.192.0.0/24", 5),
        ]);
        // The root branches 8 ways over the four /24s: half its slots
        // are empty, which the 0.25 fill allows.
        assert_eq!(LcTrie::build(&rt).node_count(), 1 + 8);
        assert_agrees(
            &rt,
            [
                0x0A00_0001u32, // /24 at 10.0.0
                0x0A40_0001,    // /24 at 10.64.0
                0x0A20_0000,    // gap → /8 via chain
                0x0AFF_0000,    // gap → /8 via chain
                0x0B00_0000,    // outside → miss
            ]
            .into_iter(),
        );
    }

    #[test]
    fn agrees_with_oracle_on_synthetic_table() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(31);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut addrs: Vec<u32> = (0..200).map(|_| rng.gen()).collect();
        for e in rt.entries().iter().step_by(9) {
            addrs.push(e.prefix.first_addr());
            addrs.push(e.prefix.last_addr());
        }
        assert_agrees(&rt, addrs.into_iter());
    }

    #[test]
    fn route_count_preserved() {
        let rt = synth::small(41);
        let trie = LcTrie::build(&rt);
        let (base, pre) = trie.vector_sizes();
        assert_eq!(base + pre, rt.len());
        assert_eq!(trie.route_count(), rt.len());
    }

    #[test]
    fn sibling_host_routes() {
        let rt = table(&[("1.2.3.4/32", 1), ("1.2.3.5/32", 2), ("1.2.3.4/30", 3)]);
        let trie = LcTrie::build(&rt);
        assert_eq!(trie.lookup(0x0102_0304), Some(NextHop(1)));
        assert_eq!(trie.lookup(0x0102_0305), Some(NextHop(2)));
        assert_eq!(trie.lookup(0x0102_0306), Some(NextHop(3)));
        assert_eq!(trie.lookup(0x0102_0308), None);
    }
}
