//! Fixed-stride multibit trie with controlled prefix expansion (CPE) —
//! the general structure behind §2.1's "multiple-bit inspection at each
//! search step", surveyed in the paper's ref \[15\]. The Lulea trie is
//! the compressed 16/8/8 instance; the hardware DIR-24-8 is the 24/8
//! instance. This implementation takes an arbitrary stride vector, which
//! lets the stride/storage/access trade-off be swept directly.
//!
//! Each level consumes `strides[d]` bits. A node holds `2^stride`
//! entries, each either a result (with the longest expanded prefix seen)
//! or a child pointer plus the best result along the way — the classic
//! expansion that removes backtracking: lookup inspects exactly one
//! entry per level.

use crate::{prefetch_slice, CountedLookup, Lpm, Tally, Walk, BATCH_LANES};
use spal_rib::{NextHop, RoutingTable};

const NO_CHILD: u32 = u32::MAX;

/// Modeled bytes per slot (2 B result + 4 B child pointer — the storage
/// model), used for both `storage_bytes` and line accounting.
const SLOT_BYTES: usize = 6;

/// Line-accounting region tag: the slot arena (the only array read).
const REGION_SLOTS: u32 = 0;

/// One slot of a multibit node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Best (longest-prefix) result covering this slot so far.
    result: Option<NextHop>,
    /// Length of the prefix that produced `result` (for CPE priority).
    result_len: u8,
    /// Child node, or `NO_CHILD`.
    child: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        result: None,
        result_len: 0,
        child: NO_CHILD,
    };
}

/// A node: `2^strides[level]` slots, stored contiguously in the arena
/// starting at `base` (the stride itself is implied by the level).
#[derive(Debug, Clone)]
struct Node {
    base: usize,
}

/// The fixed-stride multibit trie.
#[derive(Debug, Clone)]
pub struct MultibitTrie {
    strides: Vec<u8>,
    nodes: Vec<Node>,
    slots: Vec<Slot>,
    routes: usize,
}

impl MultibitTrie {
    /// Build with the given stride vector (must sum to 32; every stride
    /// in `1..=24`). Beware wide strides below the root: each node costs
    /// `2^stride` slots, and sparse tables allocate many nodes per level
    /// — the uncompressed blow-up Lulea's bitmaps avoid.
    ///
    /// # Panics
    /// Panics on an invalid stride vector.
    pub fn build(table: &RoutingTable, strides: &[u8]) -> Self {
        assert!(
            strides.iter().map(|&s| s as u32).sum::<u32>() == 32,
            "strides must sum to 32"
        );
        assert!(
            strides.iter().all(|&s| (1..=24).contains(&s)),
            "each stride must be in 1..=24"
        );
        let mut t = MultibitTrie {
            strides: strides.to_vec(),
            nodes: Vec::new(),
            slots: Vec::new(),
            routes: table.len(),
        };
        t.alloc_node(0); // root
                         // Longest-last insertion is unnecessary: CPE keeps per-slot
                         // priority via `result_len`.
        for e in table {
            t.insert(e.prefix.bits(), e.prefix.len(), e.next_hop);
        }
        t
    }

    /// The paper-flavoured default instance: strides 16/8/8 (the Lulea
    /// cut points, uncompressed).
    pub fn build_16_8_8(table: &RoutingTable) -> Self {
        Self::build(table, &[16, 8, 8])
    }

    fn alloc_node(&mut self, level: usize) -> u32 {
        let stride = self.strides[level];
        let base = self.slots.len();
        self.slots
            .extend(std::iter::repeat_n(Slot::EMPTY, 1usize << stride));
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { base });
        id
    }

    fn insert(&mut self, bits: u32, len: u8, nh: NextHop) {
        let mut node = 0u32;
        let mut consumed = 0u8;
        let mut level = 0usize;
        loop {
            let stride = self.strides[level];
            let base = self.nodes[node as usize].base;
            if len <= consumed + stride {
                // The prefix ends inside this level: expand it over the
                // covered slot range, keeping only longer-prefix wins.
                let within = len - consumed; // 0..=stride
                let first = if within == 0 {
                    0
                } else {
                    ((bits >> (32 - consumed - within)) as usize & ((1 << within) - 1))
                        << (stride - within)
                };
                let count = 1usize << (stride - within);
                for s in &mut self.slots[base + first..base + first + count] {
                    if len >= s.result_len {
                        s.result = Some(nh);
                        s.result_len = len;
                    }
                }
                return;
            }
            // Descend.
            let idx = (bits >> (32 - consumed - stride)) as usize & ((1 << stride) - 1);
            let child = self.slots[base + idx].child;
            let child = if child == NO_CHILD {
                let id = self.alloc_node(level + 1);
                self.slots[base + idx].child = id;
                id
            } else {
                child
            };
            node = child;
            consumed += stride;
            level += 1;
        }
    }

    /// The stride vector.
    pub fn strides(&self) -> &[u8] {
        &self.strides
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of routes the trie was built from.
    pub fn route_count(&self) -> usize {
        self.routes
    }
}

/// Per-lane walk state: the node at the next level ([`NO_CHILD`] once
/// the walk has ended), the address bits and levels consumed, and the
/// best expanded result so far.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    node: u32,
    consumed: u8,
    level: u8,
    best: Option<NextHop>,
}

impl MultibitTrie {
    /// The arena index of the slot `lane` reads next, and its level's
    /// stride.
    #[inline]
    fn next_slot(&self, addr: u32, lane: &Lane) -> (usize, u8) {
        let stride = self.strides[lane.level as usize];
        let base = self.nodes[lane.node as usize].base;
        let idx = (addr >> (32 - lane.consumed - stride)) as usize & ((1 << stride) - 1);
        (base + idx, stride)
    }
}

impl Walk for MultibitTrie {
    type Addr = u32;
    type Lane = Lane;

    #[inline]
    fn start<T: Tally>(&self, _addr: u32, _t: &mut T) -> Lane {
        Lane {
            node: 0,
            consumed: 0,
            level: 0,
            best: None,
        }
    }

    /// One slot read per level. The lane moves to the slot's child
    /// whether or not there is one, as in DP's step (EXPERIMENTS E42).
    #[inline]
    fn step<T: Tally>(&self, addr: u32, lane: &mut Lane, t: &mut T) -> bool {
        let (i, stride) = self.next_slot(addr, lane);
        let slot = self.slots[i];
        t.read(REGION_SLOTS, i * SLOT_BYTES, SLOT_BYTES);
        lane.best = slot.result.or(lane.best);
        lane.node = slot.child;
        lane.consumed += stride;
        lane.level += 1;
        slot.child != NO_CHILD
    }

    #[inline]
    fn finish<T: Tally>(&self, _addr: u32, lane: &Lane, t: &mut T) -> T::Out {
        t.done(lane.best)
    }

    /// The next level's slot, once the step that found its node is done.
    #[inline]
    fn prefetch(&self, addr: u32, lane: &Lane) {
        if lane.node != NO_CHILD {
            prefetch_slice(&self.slots, self.next_slot(addr, lane).0);
        }
    }
}

impl Lpm for MultibitTrie {
    walk_lookups!(u32, BATCH_LANES);

    fn storage_bytes(&self) -> usize {
        // Per slot: 2 B result + 4 B child pointer (result_len is build
        // metadata, not needed at lookup time).
        self.slots.len() * SLOT_BYTES
    }

    fn name(&self) -> &'static str {
        "Multibit"
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

    fn assert_agrees(rt: &RoutingTable, strides: &[u8], addrs: impl Iterator<Item = u32>) {
        let trie = MultibitTrie::build(rt, strides);
        for addr in addrs {
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x} strides {strides:?}"
            );
        }
    }

    #[test]
    fn empty_table() {
        let t = MultibitTrie::build_16_8_8(&RoutingTable::new());
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn default_route_expansion() {
        let rt = table(&[("0.0.0.0/0", 9)]);
        let t = MultibitTrie::build_16_8_8(&rt);
        assert_eq!(t.lookup(0), Some(NextHop(9)));
        assert_eq!(t.lookup(u32::MAX), Some(NextHop(9)));
        // Resolved at level 1: exactly one access.
        assert_eq!(t.lookup_counted(123).mem_accesses, 1);
    }

    #[test]
    fn cpe_priority_keeps_longest() {
        // /8 then /16 inserted in either order: /16 must win inside its
        // range even though both expand into the same level-1 node.
        for prefixes in [
            vec![("10.0.0.0/8", 1), ("10.1.0.0/16", 2)],
            vec![("10.1.0.0/16", 2), ("10.0.0.0/8", 1)],
        ] {
            let rt = table(&prefixes);
            let t = MultibitTrie::build_16_8_8(&rt);
            assert_eq!(t.lookup(0x0A01_0005), Some(NextHop(2)));
            assert_eq!(t.lookup(0x0A02_0005), Some(NextHop(1)));
        }
    }

    #[test]
    fn no_backtracking_needed() {
        // Deep miss under a shallow cover: the expanded cover travels
        // down slot results, so the lookup never backtracks.
        let rt = table(&[("10.0.0.0/8", 1), ("10.1.2.0/24", 2), ("10.1.2.3/32", 3)]);
        let t = MultibitTrie::build_16_8_8(&rt);
        let c = t.lookup_counted(0x0A01_0204); // /24 range, not the /32
        assert_eq!(c.next_hop, Some(NextHop(2)));
        assert!(c.mem_accesses <= 3);
        assert_eq!(t.lookup(0x0A01_0303), Some(NextHop(1))); // /8 fallback
    }

    #[test]
    fn agrees_with_oracle_across_stride_vectors() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(131);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut addrs: Vec<u32> = (0..200).map(|_| rng.gen()).collect();
        for e in rt.entries().iter().step_by(13) {
            addrs.push(e.prefix.first_addr());
            addrs.push(e.prefix.last_addr());
        }
        for strides in [
            vec![16u8, 8, 8],
            vec![8, 8, 8, 8],
            vec![4, 4, 4, 4, 4, 4, 4, 4],
            vec![12, 12, 8],
            vec![16, 16],
        ] {
            assert_agrees(&rt, &strides, addrs.iter().copied());
        }
    }

    #[test]
    fn access_count_bounded_by_levels() {
        let rt = synth::small(137);
        let t = MultibitTrie::build(&rt, &[8, 8, 8, 8]);
        for e in rt.entries().iter().step_by(29) {
            let c = t.lookup_counted(e.prefix.first_addr());
            assert!(c.mem_accesses >= 1 && c.mem_accesses <= 4);
        }
    }

    #[test]
    fn stride_tradeoff_storage_vs_depth() {
        let rt = synth::synthesize(&synth::SynthConfig::sized(10_000, 9));
        let wide = MultibitTrie::build(&rt, &[16, 8, 8]);
        let narrow = MultibitTrie::build(&rt, &[4, 4, 4, 4, 4, 4, 4, 4]);
        // Wider strides: more storage, fewer accesses.
        assert!(wide.storage_bytes() > narrow.storage_bytes());
        let addr = rt.entries()[5000].prefix.first_addr();
        assert!(wide.lookup_counted(addr).mem_accesses <= narrow.lookup_counted(addr).mem_accesses);
    }

    #[test]
    #[should_panic]
    fn strides_must_sum_to_32() {
        let _ = MultibitTrie::build(&RoutingTable::new(), &[16, 8]);
    }

    #[test]
    #[should_panic]
    fn zero_stride_rejected() {
        let _ = MultibitTrie::build(&RoutingTable::new(), &[16, 8, 8, 0]);
    }
}
