//! LC-trie — Nilsson & Karlsson, "IP-Address Lookup Using LC-Tries"
//! (ref \[12\] of the paper): a level- and path-compressed trie over the
//! *leaf* prefixes of the table, with the *internal* prefixes (those that
//! are proper prefixes of another stored prefix) moved to a prefix vector
//! reached through per-leaf chains.
//!
//! Each trie node packs a branch factor, a skip count and a child/leaf
//! index (modelled at the classic 4 bytes). The branch factor at every
//! node is the largest `b` for which at least `fill_factor · 2^b` of the
//! 2^b child slots are non-empty (the paper evaluates fill factor 0.25);
//! empty slots are backed by the sorted-order neighbour sharing the most
//! bits with the slot pattern, which keeps the prefix-chain fallback
//! correct (see `lookup_counted`). Branching never inspects bits past the
//! shortest string in a range, so no leaf prefix can be skipped over.

use crate::{CountedLookup, DeltaStats, Lpm, Tally, Walk, BATCH_LANES};
use spal_rib::{NextHop, Prefix, RoutingTable};
use std::collections::{HashMap, HashSet};

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
    fill_factor: f64,
    routes: usize,
    /// Control-plane index: internal prefix → `prefixes` slot. Retained
    /// for incremental patching (chain resolution); not part of the
    /// modelled SRAM footprint.
    internal_idx: HashMap<Prefix, u32>,
    /// Control-plane shadow of `prefixes`: the full prefix at each slot
    /// (the SRAM entry models only the length). Needed to re-thread
    /// chains when a classification flip inserts or removes a slot.
    internal_keys: Vec<Prefix>,
    /// Distinct leaves currently reachable from the node array. Patched
    /// rebuilds append base segments and strand the old copies, so
    /// `base.len() - live_base` is the garbage the next full rebuild
    /// reclaims.
    live_base: usize,
}

impl LcTrie {
    /// Build with the paper's default fill factor of 0.25.
    pub fn build(table: &RoutingTable) -> Self {
        Self::build_with_fill(table, 0.25)
    }

    /// Build with an explicit fill factor in `(0, 1]`. Higher values
    /// produce deeper but smaller tries.
    pub fn build_with_fill(table: &RoutingTable, fill_factor: f64) -> Self {
        assert!(
            fill_factor > 0.0 && fill_factor <= 1.0,
            "fill factor must be in (0, 1]"
        );
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

        let internal_idx: HashMap<Prefix, u32> = internal
            .iter()
            .enumerate()
            .map(|(i, &(p, _))| (p, i as u32))
            .collect();
        let internal_keys: Vec<Prefix> = internal.iter().map(|&(p, _)| p).collect();
        let live_base = base.len();
        let mut trie = LcTrie {
            nodes: Vec::new(),
            base,
            prefixes,
            fill_factor,
            routes,
            internal_idx,
            internal_keys,
            live_base,
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
    /// `fill_factor` full over the given range.
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
            if nonempty as f64 >= self.fill_factor * slots as f64 {
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

    /// The fill factor the trie was built with.
    pub fn fill_factor(&self) -> f64 {
        self.fill_factor
    }

    /// Deepest internal ancestor of `p` currently in the prefix vector.
    fn chain_of(&self, p: Prefix) -> u32 {
        let mut cur = p;
        while let Some(parent) = cur.parent() {
            cur = parent;
            if let Some(&i) = self.internal_idx.get(&cur) {
                return i;
            }
        }
        NONE
    }

    /// Bits of some leaf in `node_idx`'s subtree — every leaf (including
    /// empty-slot backers, which are drawn from the same build range)
    /// agrees with the subtree's common prefix, so any one tells the
    /// patch path where the subtree lives in address space.
    fn sample_bits(&self, mut idx: usize) -> u32 {
        loop {
            let n = self.nodes[idx];
            if n.branch == 0 {
                return self.base[n.adr as usize].bits;
            }
            idx = n.adr as usize;
        }
    }

    /// Collect the distinct live leaves reachable from `node_idx`.
    /// Empty-slot backers and stale pre-patch copies repeat a (bits, len)
    /// key, so dedup by key rather than by base index.
    fn collect_leaves(
        &self,
        node_idx: usize,
        out: &mut Vec<(u32, u8)>,
        seen: &mut HashSet<(u32, u8)>,
    ) {
        let node = self.nodes[node_idx];
        if node.branch == 0 {
            if node.adr == NONE {
                return;
            }
            let e = self.base[node.adr as usize];
            if seen.insert((e.bits, e.len)) {
                out.push((e.bits, e.len));
            }
            return;
        }
        for c in 0..(1usize << node.branch) {
            self.collect_leaves(node.adr as usize + c, out, seen);
        }
    }

    /// Dirty-subtrie rebuild: re-derive `node_idx`'s subtree from its
    /// live leaves (±`add`/`remove`), writing the leaves as a fresh
    /// contiguous base segment and splicing the new child nodes onto the
    /// shared arena. Old nodes and base entries are stranded as garbage;
    /// stale base copies stay valid for the empty-slot backers elsewhere
    /// that still reference them (their bits and chains are unchanged,
    /// and a backed slot can never full-match its backer). Next hops are
    /// refreshed from `rib` so stale copies collected through backers
    /// cannot resurrect old targets.
    fn rebuild_at(
        &mut self,
        node_idx: usize,
        pos: u8,
        rib: &RoutingTable,
        add: Option<Prefix>,
        remove: Option<Prefix>,
    ) -> Option<usize> {
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        self.collect_leaves(node_idx, &mut keys, &mut seen);
        let pre = keys.len();
        if let Some(p) = add {
            if seen.insert((p.bits(), p.len())) {
                keys.push((p.bits(), p.len()));
            }
        }
        if let Some(p) = remove {
            keys.retain(|&(b, l)| (b, l) != (p.bits(), p.len()));
        }
        let mut entries: Vec<BaseEntry> = Vec::new();
        for (b, l) in keys {
            let q = Prefix::new(b, l).expect("stored prefixes are canonical");
            if let Some(nh) = rib.get(q) {
                entries.push(BaseEntry {
                    bits: b,
                    len: l,
                    next_hop: nh,
                    chain: self.chain_of(q),
                });
            }
        }
        entries.sort_by_key(|e| e.bits);
        let n = entries.len();
        if node_idx == 0 {
            // Root-spanning change (e.g. an announce shorter than every
            // current leaf): compact instead of stranding the whole old
            // structure as garbage — clear both arenas and rebuild from
            // the live leaf set. Chains were recomputed per entry above;
            // the prefix vector is untouched.
            self.nodes.clear();
            self.base.clear();
            self.live_base = n;
            let adr = if n == 0 { NONE } else { 0 };
            self.nodes.push(Node {
                branch: 0,
                skip: 0,
                adr,
            });
            self.base.extend(entries);
            if n > 1 {
                self.subdivide(0, 0, n, 0);
            }
            return Some(NODE_BYTES * self.nodes.len() + BASE_BYTES * n);
        }
        if n == 0 {
            // Every distinct leaf under this node was a stale backer copy
            // of an already-withdrawn prefix (the rib refresh dropped them
            // all). Only the root may become an empty leaf; anywhere else
            // the slot must keep backing an ancestor match we cannot
            // derive locally, so decline and let the caller rebuild.
            return None;
        }
        self.live_base = self.live_base + n - pre.min(self.live_base);
        let first = self.base.len();
        self.base.extend(entries);
        let nodes_before = self.nodes.len();
        if n == 0 {
            self.nodes[node_idx] = Node {
                branch: 0,
                skip: 0,
                adr: NONE,
            };
        } else {
            self.subdivide(node_idx, first, n, pos);
        }
        Some(NODE_BYTES * (1 + self.nodes.len() - nodes_before) + BASE_BYTES * n)
    }

    /// Insert (or re-target) the leaf prefix `p`. The walk descends while
    /// `p` agrees with each subtree's common prefix and is long enough to
    /// index a full branch slot; an empty slot takes the new leaf
    /// directly, anything structural falls back to [`LcTrie::rebuild_at`]
    /// on the deepest covering node.
    fn insert_leaf(&mut self, p: Prefix, rib: &RoutingTable) -> Option<usize> {
        let nh = rib.get(p)?;
        let root = self.nodes[0];
        if root.branch == 0 {
            if root.adr == NONE {
                let bi = self.base.len() as u32;
                self.base.push(BaseEntry {
                    bits: p.bits(),
                    len: p.len(),
                    next_hop: nh,
                    chain: self.chain_of(p),
                });
                self.nodes[0] = Node {
                    branch: 0,
                    skip: 0,
                    adr: bi,
                };
                self.live_base += 1;
                return Some(NODE_BYTES + BASE_BYTES);
            }
            let e = self.base[root.adr as usize];
            if (e.bits, e.len) == (p.bits(), p.len()) {
                self.base[root.adr as usize].next_hop = nh;
                return Some(BASE_BYTES);
            }
            return self.rebuild_at(0, 0, rib, Some(p), None);
        }
        let mut node_idx = 0usize;
        let mut pos = 0u8;
        loop {
            let node = self.nodes[node_idx];
            let sample = self.sample_bits(node_idx);
            let bp = pos + node.skip;
            let agree = ((p.bits() ^ sample).leading_zeros() as u8).min(32);
            if agree < bp || (p.len() as u16) < bp as u16 + node.branch as u16 {
                // Diverges inside the skip, or too short to occupy a
                // single slot: re-derive this subtree with `p` included
                // (subdivide re-caps the branch at the new shortest).
                return self.rebuild_at(node_idx, pos, rib, Some(p), None);
            }
            let shift = 32 - bp as u32 - node.branch as u32;
            let idx = ((p.bits() >> shift) as usize) & ((1usize << node.branch) - 1);
            let child = node.adr as usize + idx;
            let cnode = self.nodes[child];
            if cnode.branch != 0 {
                node_idx = child;
                pos = bp + node.branch;
                continue;
            }
            let e = self.base[cnode.adr as usize];
            let epat = ((e.bits >> shift) as usize) & ((1usize << node.branch) - 1);
            if epat != idx {
                // Empty-backed slot: the new leaf claims it outright.
                // Existing empty-slot backings stay correct — `p` adds no
                // internal prefix, and addresses matching `p` now route
                // to this very slot.
                let bi = self.base.len() as u32;
                self.base.push(BaseEntry {
                    bits: p.bits(),
                    len: p.len(),
                    next_hop: nh,
                    chain: self.chain_of(p),
                });
                self.nodes[child] = Node {
                    branch: 0,
                    skip: 0,
                    adr: bi,
                };
                self.live_base += 1;
                return Some(NODE_BYTES + BASE_BYTES);
            }
            if (e.bits, e.len) == (p.bits(), p.len()) {
                self.base[cnode.adr as usize].next_hop = nh;
                return Some(BASE_BYTES);
            }
            // Slot already holds a different leaf: split via subtree
            // rebuild at the covering node.
            return self.rebuild_at(node_idx, pos, rib, Some(p), None);
        }
    }

    /// Withdraw the leaf prefix `p`, rebuilding its parent node's subtree
    /// without it. Absent prefixes (including walks that diverge inside
    /// skipped bits) are a no-op.
    fn withdraw_leaf(&mut self, p: Prefix, rib: &RoutingTable) -> Option<usize> {
        let root = self.nodes[0];
        if root.branch == 0 {
            if root.adr != NONE {
                let e = self.base[root.adr as usize];
                if (e.bits, e.len) == (p.bits(), p.len()) {
                    self.nodes[0] = Node {
                        branch: 0,
                        skip: 0,
                        adr: NONE,
                    };
                    self.live_base -= 1;
                    return Some(NODE_BYTES);
                }
            }
            return Some(0);
        }
        let mut node_idx = 0usize;
        let mut pos = 0u8;
        loop {
            let node = self.nodes[node_idx];
            let bp = pos + node.skip;
            if (p.len() as u16) < bp as u16 + node.branch as u16 {
                return Some(0); // cannot be a leaf under this branch
            }
            let shift = 32 - bp as u32 - node.branch as u32;
            let idx = ((p.bits() >> shift) as usize) & ((1usize << node.branch) - 1);
            let child = node.adr as usize + idx;
            let cnode = self.nodes[child];
            if cnode.branch != 0 {
                node_idx = child;
                pos = bp + node.branch;
                continue;
            }
            let e = self.base[cnode.adr as usize];
            if (e.bits, e.len) == (p.bits(), p.len()) {
                return self.rebuild_at(node_idx, pos, rib, None, Some(p));
            }
            return Some(0);
        }
    }

    /// Append `p` to the prefix vector (new internal route, or a leaf →
    /// internal flip) and re-thread chains: every entry strictly below
    /// `p` whose chain currently skips past it must now stop at `p`
    /// first. Stale base copies are re-threaded too — they still serve
    /// as chain heads for backed slots. Returns modelled bytes touched.
    fn add_internal(&mut self, p: Prefix, nh: NextHop) -> usize {
        let j = self.prefixes.len() as u32;
        self.prefixes.push(PrefixEntry {
            len: p.len(),
            next_hop: nh,
            chain: self.chain_of(p),
        });
        self.internal_keys.push(p);
        self.internal_idx.insert(p, j);
        let mut touched = PREFIX_BYTES;
        // A chain pointer shallower than p (or NONE) on a strict
        // descendant means the chain skips p; deeper pointers reach p
        // transitively once their own entries are re-threaded.
        for i in 0..self.base.len() {
            let e = self.base[i];
            let q = Prefix::new(e.bits, e.len).expect("stored prefixes are canonical");
            if q != p && p.contains(q) {
                let c = self.base[i].chain;
                if c == NONE || self.prefixes[c as usize].len < p.len() {
                    self.base[i].chain = j;
                    touched += 4;
                }
            }
        }
        for qi in 0..self.internal_keys.len() {
            let q = self.internal_keys[qi];
            if q != p && p.contains(q) {
                let c = self.prefixes[qi].chain;
                if c == NONE || self.prefixes[c as usize].len < p.len() {
                    self.prefixes[qi].chain = j;
                    touched += 4;
                }
            }
        }
        touched
    }

    /// Remove `p` from the prefix vector (internal withdraw, or an
    /// internal → leaf flip), re-threading every chain through it to its
    /// own next ancestor and patching up the swap-removed slot's index.
    /// Returns modelled bytes touched.
    fn remove_internal(&mut self, p: Prefix) -> usize {
        let i = self
            .internal_idx
            .remove(&p)
            .expect("flip source is internal");
        let removed = self.prefixes.swap_remove(i as usize);
        self.internal_keys.swap_remove(i as usize);
        let last = self.prefixes.len() as u32; // old index of the entry now at i
        if i != last {
            let moved = self.internal_keys[i as usize];
            self.internal_idx.insert(moved, i);
        }
        // If p's own ancestor sat in the slot that just moved, chase it.
        let bypass = if removed.chain == last && i != last {
            i
        } else {
            removed.chain
        };
        let mut touched = PREFIX_BYTES;
        for e in &mut self.base {
            if e.chain == i {
                e.chain = bypass;
                touched += 4;
            } else if e.chain == last {
                e.chain = i;
                touched += 4;
            }
        }
        for pe in &mut self.prefixes {
            if pe.chain == i {
                pe.chain = bypass;
                touched += 4;
            } else if pe.chain == last {
                pe.chain = i;
                touched += 4;
            }
        }
        touched
    }

    /// After removing `p` from the route set, the deepest stored internal
    /// ancestor may have lost its last strict descendant; flip it back to
    /// a leaf. At most one ancestor can flip — any shallower internal
    /// ancestor keeps the flipped route itself as a strict descendant.
    /// Ancestors withdrawn in the same batch are skipped; their own
    /// `changed` entry removes them.
    fn flip_childless_ancestor(&mut self, p: Prefix, rib: &RoutingTable) -> Option<usize> {
        let mut anc = p;
        while let Some(a) = anc.parent() {
            anc = a;
            if self.internal_idx.contains_key(&anc)
                && rib.get(anc).is_some()
                && !rib.has_strict_descendant_except(anc, &[])
            {
                let bytes = self.remove_internal(anc);
                return Some(bytes + self.insert_leaf(anc, rib)?);
            }
        }
        Some(0)
    }

    /// Patch one changed prefix, or `None` to demand a full rebuild.
    /// Leaf announces/withdrawals rebuild the deepest covering subtree;
    /// internal re-targets write one prefix-vector slot; leaf/internal
    /// classification flips move the prefix between the base and prefix
    /// vectors with a chain re-thread (including flips induced on stored
    /// ancestors). The only remaining decline is a subtree whose live
    /// leaves all vanished under a non-root node (`rebuild_at`).
    fn patch_prefix(&mut self, p: Prefix, rib: &RoutingTable) -> Option<usize> {
        let now = rib.get(p);
        let was_internal = self.internal_idx.contains_key(&p);
        match now {
            Some(nh) if was_internal => {
                if rib.has_strict_descendant_except(p, &[]) {
                    let i = self.internal_idx[&p] as usize;
                    self.prefixes[i].next_hop = nh;
                    Some(PREFIX_BYTES)
                } else {
                    // internal → leaf flip: the descendants are gone.
                    let bytes = self.remove_internal(p);
                    Some(bytes + self.insert_leaf(p, rib)?)
                }
            }
            None if was_internal => {
                // Internal withdraw: descendants' chains bypass p, and an
                // internal ancestor left childless flips back to a leaf.
                let bytes = self.remove_internal(p);
                Some(bytes + self.flip_childless_ancestor(p, rib)?)
            }
            Some(nh) => {
                if rib.has_strict_descendant_except(p, &[]) {
                    // New internal route, or a leaf → internal flip.
                    let bytes = self.add_internal(p, nh);
                    Some(bytes + self.withdraw_leaf(p, rib)?)
                } else {
                    // Stored strict ancestors not yet internal flip first,
                    // so p's chain (and its subtree rebuilds) resolve
                    // through them.
                    let mut bytes = 0usize;
                    let mut anc = p;
                    while let Some(a) = anc.parent() {
                        anc = a;
                        if let Some(anh) = rib.get(anc) {
                            if !self.internal_idx.contains_key(&anc) {
                                bytes += self.add_internal(anc, anh);
                                bytes += self.withdraw_leaf(anc, rib)?;
                            }
                        }
                    }
                    Some(bytes + self.insert_leaf(p, rib)?)
                }
            }
            None => {
                let bytes = self.withdraw_leaf(p, rib)?;
                Some(bytes + self.flip_childless_ancestor(p, rib)?)
            }
        }
    }

    /// Mean depth (trie nodes visited) over all leaves — the quantity
    /// level compression minimises.
    pub fn mean_leaf_depth(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut total = 0u64;
        let mut leaves = 0u64;
        let mut stack = vec![(0usize, 1u64)];
        while let Some((idx, depth)) = stack.pop() {
            let node = self.nodes[idx];
            if node.branch == 0 {
                total += depth;
                leaves += 1;
            } else {
                for c in 0..(1usize << node.branch) {
                    stack.push((node.adr as usize + c, depth + 1));
                }
            }
        }
        total as f64 / leaves as f64
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

    /// Dirty-subtrie patching. Leaf announces, withdrawals and
    /// re-targets rebuild only the deepest covering node's subtree;
    /// internal re-targets write one prefix-vector slot; leaf/internal
    /// classification flips splice the prefix vector and re-thread
    /// chains. Garbage buildup (stranded base segments exceeding the
    /// live leaf count) declines, handing the caller a full rebuild
    /// that reclaims the stranded space.
    fn apply_delta(&mut self, changed: &[Prefix], rib: &RoutingTable) -> Option<DeltaStats> {
        if self.base.len() > (2 * self.live_base).max(64) {
            return None; // stranded segments dominate: rebuild reclaims them
        }
        let mut stats = DeltaStats::default();
        for &p in changed {
            stats.bytes_touched += self.patch_prefix(p, rib)?;
            stats.prefixes_applied += 1;
        }
        self.routes = rib.len();
        Some(stats)
    }

    fn storage_bytes(&self) -> usize {
        // Includes stranded patch garbage: it occupies SRAM until the
        // next full rebuild reclaims it.
        self.nodes.len() * NODE_BYTES
            + self.base.len() * BASE_BYTES
            + self.prefixes.len() * PREFIX_BYTES
    }

    fn name(&self) -> &'static str {
        "LC"
    }
}

impl LcTrie {
    /// One level of the trie walk: from branching node `node` with `pos`
    /// address bits consumed, read the child `addr` selects.
    #[inline]
    fn child<T: Tally>(&self, addr: u32, node: Node, pos: &mut u8, t: &mut T) -> Node {
        *pos += node.skip;
        let shift = 32 - *pos as u32 - node.branch as u32;
        let idx = node.adr as usize + (((addr >> shift) as usize) & ((1 << node.branch) - 1));
        *pos += node.branch;
        t.read(REGION_NODES, idx * NODE_BYTES, NODE_BYTES);
        self.nodes[idx]
    }

    /// Resolve a finished trie walk: base-vector read, full-match test,
    /// then the prefix-chain fallback. Shared between the scalar and
    /// batch paths so both tally identically.
    fn finish_lookup<T: Tally>(&self, addr: u32, node: Node, t: &mut T) -> T::Out {
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

impl Walk for LcTrie {
    type Addr = u32;

    fn walk<T: Tally>(&self, addr: u32, t: &mut T) -> T::Out {
        t.read(REGION_NODES, 0, NODE_BYTES); // root read
        let mut node = self.nodes[0];
        let mut pos = 0u8;
        while node.branch != 0 {
            node = self.child(addr, node, &mut pos, t);
        }
        self.finish_lookup(addr, node, t)
    }

    /// The level walk advances each still-branching lane one node per
    /// round so the dependent child-array reads overlap; finished lanes
    /// park on their leaf until the group drains, then every lane
    /// resolves through [`LcTrie::finish_lookup`].
    fn group<T: Tally, const N: usize>(
        &self,
        addrs: &[u32; N],
        t: &mut [T; N],
        out: &mut [T::Out; N],
    ) {
        let mut node = [self.nodes[0]; N];
        let mut pos = [0u8; N];
        for lane in t.iter_mut() {
            lane.read(REGION_NODES, 0, NODE_BYTES); // root read
        }
        loop {
            let mut any = false;
            for l in 0..N {
                if node[l].branch == 0 {
                    continue;
                }
                node[l] = self.child(addrs[l], node[l], &mut pos[l], &mut t[l]);
                any = true;
            }
            if !any {
                break;
            }
        }
        for l in 0..N {
            out[l] = self.finish_lookup(addrs[l], node[l], &mut t[l]);
        }
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

    fn assert_agrees(rt: &RoutingTable, fill: f64, addrs: impl Iterator<Item = u32>) {
        let trie = LcTrie::build_with_fill(rt, fill);
        for addr in addrs {
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x} (fill {fill})"
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
        // Low fill factor creates wide branches with empty slots; an
        // address landing in one must still resolve through the chain.
        let rt = table(&[
            ("10.0.0.0/8", 1),
            ("10.0.0.0/24", 2),
            ("10.64.0.0/24", 3),
            ("10.128.0.0/24", 4),
            ("10.192.0.0/24", 5),
        ]);
        // Fill 0.1 lets the root branch wide over sparse children.
        assert_agrees(
            &rt,
            0.1,
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
    fn agrees_with_oracle_across_fill_factors() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(31);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut addrs: Vec<u32> = (0..200).map(|_| rng.gen()).collect();
        for e in rt.entries().iter().step_by(9) {
            addrs.push(e.prefix.first_addr());
            addrs.push(e.prefix.last_addr());
        }
        for fill in [0.125, 0.25, 0.5, 1.0] {
            assert_agrees(&rt, fill, addrs.iter().copied());
        }
    }

    #[test]
    fn lower_fill_is_shallower_but_bigger() {
        let rt = synth::small(37);
        let shallow = LcTrie::build_with_fill(&rt, 0.125);
        let deep = LcTrie::build_with_fill(&rt, 1.0);
        assert!(shallow.mean_leaf_depth() <= deep.mean_leaf_depth());
        assert!(shallow.node_count() >= deep.node_count());
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
    #[should_panic]
    fn zero_fill_factor_rejected() {
        let _ = LcTrie::build_with_fill(&RoutingTable::new(), 0.0);
    }

    #[test]
    fn delta_patch_matches_rebuild() {
        let mut rt = table(&[
            ("10.0.0.0/8", 1),
            ("10.1.0.0/16", 2),
            ("10.1.2.0/24", 3),
            ("10.9.0.0/16", 4),
            ("192.168.0.0/24", 5),
        ]);
        let mut trie = LcTrie::build(&rt);
        // (prefix, next hop or withdraw, patch must succeed)
        let steps: &[(&str, Option<u16>, bool)] = &[
            ("10.9.0.0/16", Some(14), true),   // leaf re-target in place
            ("10.0.0.0/8", Some(11), true),    // internal re-target in place
            ("192.168.1.0/24", Some(6), true), // new leaf near a sibling
            ("172.16.0.0/12", Some(7), true),  // new leaf in fresh space
            ("192.168.1.0/24", None, true),    // withdraw rebuilds the parent
            ("10.9.0.0/16", None, true),       // withdraw a build-time leaf
            ("10.1.0.0/16", None, true),       // internal withdraw re-threads
            ("10.1.2.9/32", Some(8), true),    // flips 10.1.2.0/24 to internal
            ("10.1.2.9/32", None, true),       // flips it back to a leaf
        ];
        for &(s, nh, expect_patch) in steps {
            let p: Prefix = s.parse().unwrap();
            match nh {
                Some(nh) => {
                    rt.insert(RouteEntry {
                        prefix: p,
                        next_hop: NextHop(nh),
                    });
                }
                None => {
                    rt.remove(p);
                }
            }
            match trie.apply_delta(&[p], &rt) {
                Some(stats) => {
                    assert!(expect_patch, "expected decline after {s}");
                    assert_eq!(stats.prefixes_applied, 1);
                }
                None => {
                    assert!(!expect_patch, "expected patch after {s}");
                    trie = LcTrie::build(&rt); // the contract: caller rebuilds
                }
            }
            let fresh = LcTrie::build(&rt);
            let mut probes: Vec<u32> = vec![0, 1, u32::MAX, 0x0A01_0203, 0xC0A8_0105, 0xAC10_0001];
            for e in rt.entries() {
                for a in [e.prefix.first_addr(), e.prefix.last_addr()] {
                    probes.push(a);
                    probes.push(a.wrapping_sub(1));
                    probes.push(a.wrapping_add(1));
                }
            }
            for &a in &probes {
                assert_eq!(
                    trie.lookup(a),
                    fresh.lookup(a),
                    "patched vs rebuilt at {a:#010x} after {s}"
                );
                assert_eq!(
                    trie.lookup(a),
                    rt.longest_match(a).map(|e| e.next_hop),
                    "patched vs oracle at {a:#010x} after {s}"
                );
            }
        }
    }

    #[test]
    fn delta_patches_classification_flips() {
        // Withdrawing the /16 leaves the internal /8 without descendants:
        // /8 must flip back to a leaf inside the patch.
        let rt0 = table(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2)]);
        let mut trie = LcTrie::build(&rt0);
        let mut rt = rt0.clone();
        rt.remove("10.1.0.0/16".parse().unwrap());
        assert!(trie
            .apply_delta(&["10.1.0.0/16".parse().unwrap()], &rt)
            .is_some());
        assert_eq!(trie.lookup(0x0A01_0203), Some(NextHop(1)));
        assert_eq!(trie.lookup(0x0B00_0000), None);
        // A later re-target of the flipped /8 must hit the leaf copy.
        rt.insert(RouteEntry {
            prefix: "10.0.0.0/8".parse().unwrap(),
            next_hop: NextHop(7),
        });
        assert!(trie
            .apply_delta(&["10.0.0.0/8".parse().unwrap()], &rt)
            .is_some());
        assert_eq!(trie.lookup(0x0A01_0203), Some(NextHop(7)));

        // Announcing below the leaf /16 flips it to internal; lookups
        // between the two must now chain through it.
        let mut trie = LcTrie::build(&rt0);
        let mut rt = rt0.clone();
        let deep: Prefix = "10.1.2.0/24".parse().unwrap();
        rt.insert(RouteEntry {
            prefix: deep,
            next_hop: NextHop(3),
        });
        assert!(trie.apply_delta(&[deep], &rt).is_some());
        assert_eq!(trie.lookup(0x0A01_0203), Some(NextHop(3)));
        assert_eq!(trie.lookup(0x0A01_0303), Some(NextHop(2)));
        assert_eq!(trie.lookup(0x0A02_0000), Some(NextHop(1)));

        // A batch whose announce order lists the deep leaf before its
        // brand-new ancestors forces the ancestor-flip walk.
        let mut rt = rt0.clone();
        let mut trie = LcTrie::build(&rt);
        for (s, nh) in [("10.1.2.0/24", 3), ("10.1.2.0/25", 4), ("10.1.2.0/26", 5)] {
            rt.insert(RouteEntry {
                prefix: s.parse().unwrap(),
                next_hop: NextHop(nh),
            });
        }
        let changed: Vec<Prefix> = ["10.1.2.0/26", "10.1.2.0/25", "10.1.2.0/24"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(trie.apply_delta(&changed, &rt).is_some());
        let fresh = LcTrie::build(&rt);
        for a in [
            0x0A01_0200u32,
            0x0A01_0250,
            0x0A01_02C0,
            0x0A01_0300,
            0x0A02_0000,
        ] {
            assert_eq!(trie.lookup(a), fresh.lookup(a), "addr {a:#010x}");
            assert_eq!(trie.lookup(a), rt.longest_match(a).map(|e| e.next_hop));
        }
    }

    /// DFZ-shaped churn regression: before classification flips were
    /// patchable, every 256-update batch at this nesting density
    /// declined (8/8 at both 150k and 1M — see EXPERIMENTS.md E25). The
    /// patch path must absorb whole batches and stay oracle-equivalent.
    #[test]
    fn delta_survives_dfz_churn_without_decline() {
        use spal_rib::updates::{update_stream, Update, UpdateStreamConfig};
        let table = synth::synthesize(&synth::SynthConfig::dfz2026(8_000, 0xFEE1));
        let mut trie = LcTrie::build(&table);
        let (updates, fin) = update_stream(
            &table,
            &UpdateStreamConfig {
                count: 600,
                withdraw_fraction: 0.3,
                seed: 0xBEEF,
            },
        );
        let mut rib = table.clone();
        let mut declines = 0usize;
        for chunk in updates.chunks(64) {
            let mut changed: Vec<Prefix> = Vec::new();
            for &u in chunk {
                let p = match u {
                    Update::Announce(e) => e.prefix,
                    Update::Withdraw(p) => p,
                };
                if !changed.contains(&p) {
                    changed.push(p);
                }
                spal_rib::updates::apply(&mut rib, u);
            }
            if trie.apply_delta(&changed, &rib).is_none() {
                declines += 1;
                trie = LcTrie::build(&rib);
            }
        }
        assert_eq!(rib.len(), fin.len());
        // The garbage guard may still fire late in a long stream; the
        // flip paths themselves must not decline on the first batches.
        assert!(
            declines <= 2,
            "classification flips regressed to declines: {declines}/10 batches"
        );
        let fresh = LcTrie::build(&fin);
        let mut addrs: Vec<u32> = Vec::new();
        for e in fin.entries().iter().step_by(7) {
            addrs.push(e.prefix.first_addr());
            addrs.push(e.prefix.first_addr() ^ 1);
            addrs.push(e.prefix.last_addr());
        }
        for &a in &addrs {
            assert_eq!(trie.lookup(a), fresh.lookup(a), "addr {a:#010x}");
        }
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
