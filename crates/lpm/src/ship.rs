//! SHIP-class two-level IPv6 LPM — after Abdelsalam, Liu & Trajković /
//! the SHIP paper ("A Scalable High-performance IPv6 Lookup Algorithm
//! that Exploits Prefix Characteristics"), giving IPv6 a real engine
//! instead of the 128-level binary reference trie.
//!
//! SHIP's two ideas, as they reduce to on this repo's DFZ-2026 tables:
//!
//! * **Address-block binning** — a direct-indexed 2^16-entry array on
//!   the top 16 address bits. One read resolves the bin: the default
//!   next hop inherited from the best covering route of length ≤ 16,
//!   plus the root of that bin's trie over the remaining 112 bits.
//!   Real v6 tables concentrate in a few thousand /16 blocks (RIR
//!   super-blocks carve 2000::/3), so bins are small and shallow.
//! * **Prefix-characteristic grouping into hybrid tries** — inside a
//!   bin, every node is path-compressed *and* multibit: it skips the
//!   bits all of its routes agree on (up to 32 in one read), then
//!   branches on the next 4-bit nibble with a `u16` child bitmap whose
//!   children sit side by side, popcount-ranked, as in Poptrie. The
//!   prefix characteristics pick the skip and the record's size: a
//!   *sparse* node (a lone allocation chain: one longest match across
//!   its 16 slots) is one 16-byte unit, and a *dense* node (routes
//!   ending inside its nibble split its slots into up to 16 runs) is a
//!   32- or 64-byte record. The dominant v6 pattern — long shared
//!   allocation prefixes, then a burst of divergence at /48 — thus
//!   costs a few reads instead of the binary trie's one-read-per-bit
//!   40+.
//!
//! **One line per level.** A node's leaves are ranked by a run-start
//! bitmap (`leafvec`, Poptrie's) and stored in the node's own record,
//! the first in the header's last lane and the rest in the units after
//! it, so the longest internal match is one popcount and a load from
//! the line already read. A node's children are one block of equal
//! records (the widest sibling's class), aligned so that no record
//! straddles a line and a block of two shares one. A lookup reads the
//! bin's line and then exactly one line per node.
//!
//! Record sizes (used for `storage_bytes` and the cache-line
//! accounting) are the `size_of` of the types the walk reads, pinned by
//! a unit test: bin entry 8 B (root + default), arena unit 16 B (a node
//! header, or eight more leaves of the node before it), arena line
//! 64 B (four units, the allocation grain).
//!
//! `apply_delta` patches at **bin granularity**: a changed prefix of
//! length > 16 names exactly one bin (its top 16 bits are concrete),
//! which is rebuilt from the post-update table's sorted range — O(bin)
//! work, not O(table). Changes of length ≤ 16 repaint the covered
//! bins' defaults. Orphaned arena space is tracked, and when garbage
//! exceeds `MAX_GARBAGE_FRACTION` the patch declines (`None`) so the
//! caller rebuilds — the explicit rebuild-fallback contract of
//! [`crate::Lpm::apply_delta`].

use crate::{
    hop_of, leaf_of, prefetch_slice, CountedLookup, DeltaStats, Lpm, Tally, Walk, BATCH_LANES,
};
use spal_rib::v6::{Prefix6, RouteEntry6, RoutingTable6};
use spal_rib::NextHop;

/// Width of the address-block index: bins are the 2^16 /16 blocks.
const BIN_BITS: u8 = 16;
/// Number of bins.
const NUM_BINS: usize = 1 << BIN_BITS;

/// Sentinel for "no node".
const NONE: u32 = u32::MAX;

/// Node stride in bits (16-way branch, 16 leaf slots).
const STRIDE: u8 = 4;
/// Slots per node.
const FANOUT: usize = 1 << STRIDE;

/// Maximum bits one node can skip (its skip field is a `u32`).
const MAX_SKIP: u8 = 32;

/// Decline threshold: once more than a third of the arena is orphaned
/// by bin rebuilds, patching has drifted too far from the fresh-build
/// storage model — decline and let the caller rebuild.
const MAX_GARBAGE_FRACTION: f64 = 1.0 / 3.0;

// Record sizes, equal to the `size_of` of `Bin`, `Unit` and `Line`.
const BIN_BYTES: usize = 8;
const UNIT_BYTES: usize = 16;
const LINE_BYTES: usize = 64;
/// Units per arena line.
const LINE_UNITS: u32 = (LINE_BYTES / UNIT_BYTES) as u32;
/// `u16` lanes per unit.
const UNIT_LANES: usize = UNIT_BYTES / 2;
/// The header lane holding a node's first leaf; its other leaves follow
/// it lane by lane into the node's next units.
const LEAF_LANE: usize = UNIT_LANES - 1;

// Line-accounting regions (see [`crate::LineSet`]).
const REGION_BINS: u32 = 0;
const REGION_NODES: u32 = 1;

/// One entry of the level-1 address-block array.
#[derive(Debug, Clone, Copy)]
struct Bin {
    /// Unit index of the bin's trie root (over address bits 16..), or
    /// [`NONE`].
    root: u32,
    /// Next hop + 1 of the best covering route with length ≤ 16
    /// (0 = none).
    default: u16,
}

const EMPTY_BIN: Bin = Bin {
    root: NONE,
    default: 0,
};

/// One 16-byte arena unit, as `u16` lanes: a node header (see
/// [`Header`]), or eight more leaves of the node whose header precedes
/// it.
type Unit = [u16; UNIT_LANES];

/// One 64-byte line of the node arena, line-aligned so the modeled
/// offsets are the real ones.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct Line([Unit; LINE_UNITS as usize]);

/// A node header, unpacked from its unit's lanes: 0–1 `skip`, 2–3
/// `child_base`, 4 `ext`, 5 `leafvec`, 6 `skip_len` | `shift` << 8, and
/// lane 7 the first leaf.
#[derive(Debug, Clone, Copy)]
struct Header {
    /// The `skip_len` address bits the node consumes before it
    /// branches, right-aligned.
    skip: u32,
    skip_len: u8,
    /// Children's record size as a shift: each is `1 << shift` units.
    shift: u8,
    /// Bit `v` set when nibble `v` has a child.
    ext: u16,
    /// Bit `v` set when nibble `v` starts a leaf run; run `r`'s leaf
    /// (next hop + 1, 0 = none) is the node's leaf lane `r`.
    leafvec: u16,
    /// Unit index of the first child.
    child_base: u32,
}

impl Header {
    fn decode(u: &Unit) -> Header {
        Header {
            skip: u32::from(u[0]) | u32::from(u[1]) << 16,
            child_base: u32::from(u[2]) | u32::from(u[3]) << 16,
            ext: u[4],
            leafvec: u[5],
            skip_len: u[6] as u8,
            shift: (u[6] >> 8) as u8,
        }
    }

    /// The header's lanes, the first leaf lane left to the caller.
    fn encode(&self, u: &mut Unit) {
        u[0] = self.skip as u16;
        u[1] = (self.skip >> 16) as u16;
        u[2] = self.child_base as u16;
        u[3] = (self.child_base >> 16) as u16;
        u[4] = self.ext;
        u[5] = self.leafvec;
        u[6] = u16::from(self.skip_len) | u16::from(self.shift) << 8;
    }
}

/// Internal build/rebuild representation of one route.
#[derive(Debug, Clone, Copy)]
struct BuildRoute {
    bits: u128,
    len: u8,
    /// The next hop as a leaf ([`leaf_of`]).
    leaf: u16,
}

/// One node as the build shapes it, before its children are placed.
struct Spec {
    header: Header,
    /// One leaf per run, in slot order; `runs` of them are set.
    leaves: [u16; FANOUT],
    runs: usize,
    children: Vec<Spec>,
}

impl Spec {
    /// Shape the node for the routes of `routes` longer than `depth`.
    /// `routes` is sorted, agrees on address bits `0..depth` and holds
    /// at least one such route; the others, which its parent's leaves
    /// cover, lead it (their bits past their length are zero).
    fn new(routes: &[BuildRoute], depth: u8) -> Spec {
        let routes = &routes[routes.partition_point(|r| r.len <= depth)..];
        // The local prefix characteristics: how far every route agrees
        // past `depth`, bounded by the shortest route (it must end at
        // or after the branch) and by the address end (the branch
        // starts at bit 127 at the latest).
        let first = routes.first().expect("a route longer than depth");
        let last = routes.last().expect("a route longer than depth");
        let min_len = routes.iter().map(|r| r.len).min().expect("non-empty");
        let agree = (first.bits ^ last.bits).leading_zeros() as u8; // 128 if equal
        let skip_len = (agree.min(min_len).min(127) - depth).min(MAX_SKIP);
        let at = depth + skip_len;

        // Each slot's longest route ending in `at..=at + STRIDE`,
        // shorter lengths painted first; then the slots' runs.
        let mut slots = [0u16; FANOUT];
        for len in at..=at + STRIDE {
            for r in routes.iter().filter(|r| r.len == len) {
                let first = nibble(r.bits, at);
                slots[first..first + (1 << (at + STRIDE - len))].fill(r.leaf);
            }
        }
        let mut leafvec = 0u16;
        let mut leaves = [0u16; FANOUT];
        let mut runs = 0;
        for (v, &leaf) in slots.iter().enumerate() {
            if v == 0 || leaf != slots[v - 1] {
                leafvec |= 1 << v;
                leaves[runs] = leaf;
                runs += 1;
            }
        }

        // One child per nibble some route outlives; within a nibble's
        // group, the routes that end inside it come first.
        let mut ext = 0u16;
        let children: Vec<Spec> = routes
            .chunk_by(|a, b| nibble(a.bits, at) == nibble(b.bits, at))
            .filter(|group| group.last().expect("non-empty").len > at + STRIDE)
            .map(|group| {
                ext |= 1 << nibble(group[0].bits, at);
                Spec::new(group, at + STRIDE)
            })
            .collect();

        Spec {
            header: Header {
                skip: head(window(first.bits, depth), skip_len),
                skip_len,
                shift: 0,
                ext,
                leafvec,
                child_base: 0,
            },
            leaves,
            runs,
            children,
        }
    }

    fn units(&self) -> u32 {
        record_units(self.runs)
    }
}

/// Units a record of `runs` leaf runs takes: the header holds one leaf,
/// each further unit eight; sizes are powers of two so that a record
/// aligned to its size never straddles a line.
fn record_units(runs: usize) -> u32 {
    match runs {
        1 => 1,
        2..=9 => 2,
        _ => 4,
    }
}

/// Address bits `at..at + 64` (`at` < 128), zero-padded past bit 127:
/// a node's skip and the nibble after it (≤ 36 bits) lie inside.
#[inline]
fn window(addr: u128, at: u8) -> u64 {
    ((addr << at) >> 64) as u64
}

/// The first `len` ≤ 32 bits of a window, right-aligned (0 for `len` =
/// 0). Branch-free.
#[inline]
fn head(window: u64, len: u8) -> u32 {
    (window >> 1 >> (63 - len)) as u32
}

/// The nibble at bit `at` < 128, zero-padded past bit 127.
#[inline]
fn nibble(addr: u128, at: u8) -> usize {
    (window(addr, at) >> (64 - STRIDE)) as usize
}

/// Bits set in `x`, by two byte-table reads. The baseline x86-64 target
/// has no `popcnt`, and `count_ones` there is a dozen-op bit-twiddle;
/// two of them a step cost `forward_batch` ~10 % (EXPERIMENTS E43).
#[inline]
fn pop16(x: u16) -> u32 {
    static POP8: [u8; 256] = {
        let mut table = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            table[i] = (i as u32).count_ones() as u8;
            i += 1;
        }
        table
    };
    u32::from(POP8[(x & 0xFF) as usize]) + u32::from(POP8[(x >> 8) as usize])
}

/// The two-level SHIP engine.
#[derive(Debug, Clone)]
pub struct Ship6 {
    bins: Vec<Bin>,
    /// The node arena; `units` of it are allocated.
    lines: Vec<Line>,
    units: u32,
    /// Nodes written, dense (more than one leaf run) and sparse,
    /// orphaned ones included.
    nodes: (usize, usize),
    /// Arena bytes currently reachable from each bin's root, so bin
    /// rebuilds can account what they orphan.
    bin_bytes: Vec<u32>,
    /// Arena bytes orphaned by bin rebuilds.
    garbage_bytes: usize,
    route_count: usize,
}

impl Ship6 {
    /// Build from a routing table.
    pub fn build(table: &RoutingTable6) -> Self {
        let mut ship = Ship6 {
            bins: vec![EMPTY_BIN; NUM_BINS],
            // One line per route, where a DFZ-shaped table takes ~26
            // bytes: the lines are over-aligned, so a growing `Vec`
            // copies them instead of remapping, and the build should not
            // hold two copies at once. Capacity never written is never
            // resident.
            lines: Vec::with_capacity(table.len()),
            units: 0,
            nodes: (0, 0),
            bin_bytes: vec![0; NUM_BINS],
            garbage_bytes: 0,
            route_count: table.len(),
        };

        // Level 1: paint bin defaults from the covering short routes,
        // shortest first so more-specifics overwrite.
        let mut shorts: Vec<RouteEntry6> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() <= BIN_BITS)
            .copied()
            .collect();
        shorts.sort_by_key(|e| e.prefix.len());
        for e in &shorts {
            let base = bin_of(e.prefix.bits());
            let count = 1usize << (BIN_BITS - e.prefix.len());
            for bin in &mut ship.bins[base..base + count] {
                bin.default = leaf_of(e.next_hop);
            }
        }

        // Level 2: one hybrid trie per bin over the deep routes. The
        // table is sorted by (bits, len), so each bin's routes are a
        // contiguous run.
        let deep: Vec<BuildRoute> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() > BIN_BITS)
            .map(build_route)
            .collect();
        for routes in deep.chunk_by(|a, b| bin_of(a.bits) == bin_of(b.bits)) {
            ship.place_bin(bin_of(routes[0].bits), routes);
        }
        ship
    }

    /// Modeled bytes of the node arena (excludes the fixed bins).
    fn arena_bytes(&self) -> usize {
        self.lines.len() * LINE_BYTES
    }

    /// Number of stored routes.
    pub fn route_count(&self) -> usize {
        self.route_count
    }

    /// Node counts `(dense, sparse)`: records with more than one leaf
    /// run, and one-unit records — exposed for the stress tests'
    /// storage records.
    pub fn node_counts(&self) -> (usize, usize) {
        self.nodes
    }

    /// Build `bin`'s trie from its deep routes (none: no trie), and
    /// record the arena bytes it takes. Returns them.
    fn place_bin(&mut self, bin: usize, routes: &[BuildRoute]) -> usize {
        let before = self.units;
        self.bins[bin].root = if routes.is_empty() {
            NONE
        } else {
            let spec = Spec::new(routes, BIN_BITS);
            let units = spec.units();
            let at = self.alloc(units, units);
            self.encode(&spec, at);
            at
        };
        let bytes = (self.units - before) as usize * UNIT_BYTES;
        self.bin_bytes[bin] = bytes as u32;
        bytes
    }

    /// Allocate `units` zeroed units at a multiple of `align` (a power
    /// of two ≤ a line), growing the arena by whole lines.
    fn alloc(&mut self, units: u32, align: u32) -> u32 {
        let at = self.units.next_multiple_of(align);
        self.units = at + units;
        let lines = self.units.div_ceil(LINE_UNITS) as usize;
        self.lines.resize(lines, Line::default());
        at
    }

    fn unit(&self, at: u32) -> &Unit {
        &self.lines[(at / LINE_UNITS) as usize].0[(at % LINE_UNITS) as usize]
    }

    fn unit_mut(&mut self, at: u32) -> &mut Unit {
        &mut self.lines[(at / LINE_UNITS) as usize].0[(at % LINE_UNITS) as usize]
    }

    /// The arena's `u16` lane `idx`, counted from its start.
    fn lane(&self, idx: usize) -> u16 {
        self.unit((idx / UNIT_LANES) as u32)[idx % UNIT_LANES]
    }

    /// Write `spec` at unit `at` (its record sized by its own class or a
    /// wider sibling's), after placing its children as one block of
    /// equal records, aligned so none straddles a line and a block of
    /// up to a line's units shares one.
    fn encode(&mut self, spec: &Spec, at: u32) {
        let mut header = spec.header;
        if !spec.children.is_empty() {
            let stride = spec
                .children
                .iter()
                .map(Spec::units)
                .max()
                .expect("non-empty");
            let block = spec.children.len() as u32 * stride;
            let align = if block <= LINE_UNITS {
                block.next_power_of_two()
            } else {
                stride
            };
            header.child_base = self.alloc(block, align);
            header.shift = stride.trailing_zeros() as u8;
            for (rank, child) in spec.children.iter().enumerate() {
                self.encode(child, header.child_base + rank as u32 * stride);
            }
        }
        header.encode(self.unit_mut(at));
        for (r, &leaf) in spec.leaves[..spec.runs].iter().enumerate() {
            let lane = LEAF_LANE + r;
            self.unit_mut(at + (lane / UNIT_LANES) as u32)[lane % UNIT_LANES] = leaf;
        }
        if spec.runs > 1 {
            self.nodes.0 += 1;
        } else {
            self.nodes.1 += 1;
        }
    }

    /// Recompute one bin's default from the post-update table.
    fn repaint_default(&mut self, bin: usize, rib: &RoutingTable6) {
        let addr = (bin as u128) << (128 - BIN_BITS);
        self.bins[bin].default = rib
            .best_cover(addr, BIN_BITS)
            .map_or(0, |e| leaf_of(e.next_hop));
    }

    /// Rebuild one bin's trie from the post-update table, orphaning the
    /// old nodes. Returns the arena bytes appended.
    fn rebuild_bin(&mut self, bin: usize, rib: &RoutingTable6) -> usize {
        let lo = (bin as u128) << (128 - BIN_BITS);
        let hi = lo | ((1u128 << (128 - BIN_BITS)) - 1);
        let routes: Vec<BuildRoute> = rib
            .range(lo, hi)
            .iter()
            .filter(|e| e.prefix.len() > BIN_BITS)
            .map(build_route)
            .collect();
        self.garbage_bytes += self.bin_bytes[bin] as usize;
        self.place_bin(bin, &routes)
    }
}

fn build_route(e: &RouteEntry6) -> BuildRoute {
    BuildRoute {
        bits: e.prefix.bits(),
        len: e.prefix.len(),
        leaf: leaf_of(e.next_hop),
    }
}

/// The bin an address falls in.
fn bin_of(addr: u128) -> usize {
    (addr >> (128 - BIN_BITS)) as usize
}

/// Per-lane walk state: the node to read next ([`NONE`] once the walk
/// has ended), the address bits consumed, and the best route so far
/// (next hop + 1, 0 = none).
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    node: u32,
    depth: u8,
    best: u16,
}

/// Batched through the generic lane driver, which prefetches the node
/// each lane moves to; a step reads one line and decides once, at its
/// end, whether the walk goes on.
impl Walk for Ship6 {
    type Addr = u128;
    type Lane = Lane;

    /// Level 1: read `addr`'s bin.
    #[inline]
    fn start<T: Tally>(&self, addr: u128, t: &mut T) -> Lane {
        let bin_idx = bin_of(addr);
        t.read(REGION_BINS, bin_idx * BIN_BYTES, BIN_BYTES);
        let bin = self.bins[bin_idx];
        Lane {
            node: bin.root,
            depth: BIN_BITS,
            best: bin.default,
        }
    }

    /// Level 2: read the node `lane` stands on — header and leaf share
    /// its line — and move to the child `addr` selects, or end the walk.
    #[inline]
    fn step<T: Tally>(&self, addr: u128, lane: &mut Lane, t: &mut T) -> bool {
        let node = lane.node;
        if node == NONE {
            return false;
        }
        t.read(REGION_NODES, node as usize * UNIT_BYTES, UNIT_BYTES);
        let h = Header::decode(self.unit(node));
        let w = window(addr, lane.depth);
        let matched = head(w, h.skip_len) == h.skip;
        let slot = (w << h.skip_len >> (64 - STRIDE)) as u32;

        // Longest internal match: the slot's run, by rank.
        let run = pop16(h.leafvec & (u16::MAX >> (15 - slot))) as usize;
        let lane_idx = node as usize * UNIT_LANES + LEAF_LANE - 1 + run;
        t.touch(REGION_NODES, lane_idx * 2, 2);
        let leaf = self.lane(lane_idx);
        if matched && leaf != 0 {
            lane.best = leaf;
        }

        // The child, by rank among the present ones.
        let descend = matched && h.ext >> slot & 1 != 0;
        let rank = pop16(h.ext & ((1u32 << slot) - 1) as u16);
        lane.node = if descend {
            h.child_base + (rank << h.shift)
        } else {
            NONE
        };
        lane.depth += h.skip_len + STRIDE;
        descend
    }

    #[inline]
    fn finish<T: Tally>(&self, _addr: u128, lane: &Lane, t: &mut T) -> T::Out {
        t.done(hop_of(lane.best))
    }

    /// Prefetch the line of the node `lane` moves to (nothing for
    /// [`NONE`], which is out of range).
    #[inline]
    fn prefetch(&self, _addr: u128, lane: &Lane) {
        prefetch_slice(&self.lines, (lane.node / LINE_UNITS) as usize);
    }
}

impl Lpm<u128> for Ship6 {
    walk_lookups!(u128, BATCH_LANES);

    fn apply_delta(&mut self, changed: &[Prefix6], rib: &RoutingTable6) -> Option<DeltaStats> {
        if changed.is_empty() {
            self.route_count = rib.len();
            return Some(DeltaStats {
                prefixes_applied: 0,
                bytes_touched: 0,
            });
        }
        // A deep prefix names exactly one bin (its top 16 bits are
        // concrete); a short one repaints the defaults of every bin it
        // covers.
        let mut dirty_bins: Vec<usize> = Vec::new();
        let mut dirty_defaults: Vec<usize> = Vec::new();
        for p in changed {
            if p.len() > BIN_BITS {
                dirty_bins.push(bin_of(p.bits()));
            } else {
                let base = bin_of(p.bits());
                let count = 1usize << (BIN_BITS - p.len());
                dirty_defaults.extend(base..base + count);
            }
        }
        dirty_bins.sort_unstable();
        dirty_bins.dedup();
        dirty_defaults.sort_unstable();
        dirty_defaults.dedup();

        let mut bytes = 0usize;
        for &bin in &dirty_defaults {
            self.repaint_default(bin, rib);
            bytes += BIN_BYTES;
        }
        for &bin in &dirty_bins {
            bytes += self.rebuild_bin(bin, rib) + BIN_BYTES;
        }
        self.route_count = rib.len();

        // Explicit rebuild-fallback: too much orphaned arena means the
        // patched structure has drifted from the fresh-build model.
        let total = self.arena_bytes();
        if total > 0 && self.garbage_bytes as f64 > total as f64 * MAX_GARBAGE_FRACTION {
            return None;
        }
        Some(DeltaStats {
            prefixes_applied: changed.len(),
            bytes_touched: bytes,
        })
    }

    fn storage_bytes(&self) -> usize {
        self.bins.len() * BIN_BYTES + self.arena_bytes()
    }

    fn name(&self) -> &'static str {
        "SHIP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::GenericBinaryTrie;
    use spal_rib::v6::synthesize6_dfz;

    fn p6(bits: u128, len: u8) -> Prefix6 {
        Prefix6::new(bits, len).unwrap()
    }

    fn table(routes: &[(u128, u8, u16)]) -> RoutingTable6 {
        RoutingTable6::from_entries(routes.iter().map(|&(bits, len, nh)| RouteEntry6 {
            prefix: p6(bits, len),
            next_hop: NextHop(nh),
        }))
    }

    #[test]
    fn empty_table_matches_nothing() {
        let ship = Ship6::build(&RoutingTable6::default());
        assert_eq!(ship.lookup(0), None);
        assert_eq!(ship.lookup(u128::MAX), None);
        // One bin read is the whole lookup.
        assert_eq!(ship.lookup_counted(42).mem_accesses, 1);
    }

    #[test]
    fn short_routes_resolve_from_bin_defaults() {
        let t = table(&[
            (0, 0, 1),                      // default route
            (0x2000u128 << 112, 3, 2),      // 2000::/3
            (0x2001_0db8u128 << 96, 16, 3), // 2001::/16
        ]);
        let ship = Ship6::build(&t);
        assert_eq!(ship.lookup(0x2001u128 << 112 | 9), Some(NextHop(3)));
        assert_eq!(ship.lookup(0x2002u128 << 112), Some(NextHop(2)));
        assert_eq!(ship.lookup(0x1000u128 << 112), Some(NextHop(1)));
        // A short-route hit costs exactly the one bin read.
        assert_eq!(ship.lookup_counted(0x2002u128 << 112).mem_accesses, 1);
    }

    #[test]
    fn deep_routes_override_defaults() {
        let p32 = 0x2001_0db8u128 << 96;
        let p48 = 0x2001_0db8_0001u128 << 80;
        let t = table(&[(0x2001u128 << 112, 16, 1), (p32, 32, 2), (p48, 48, 3)]);
        let ship = Ship6::build(&t);
        assert_eq!(ship.lookup(p48 | 7), Some(NextHop(3)));
        assert_eq!(ship.lookup(p32 | (2u128 << 80)), Some(NextHop(2)));
        assert_eq!(ship.lookup(0x2001_0db9u128 << 96), Some(NextHop(1)));
    }

    #[test]
    fn host_route_and_128_edge() {
        let host = (0x2001_0db8u128 << 96) | 0xFFFF;
        let t = table(&[(host, 128, 7), (0x2001_0db8u128 << 96, 32, 1)]);
        let ship = Ship6::build(&t);
        assert_eq!(ship.lookup(host), Some(NextHop(7)));
        assert_eq!(ship.lookup(host ^ 1), Some(NextHop(1)));
    }

    #[test]
    fn dense_region_uses_dense_nodes() {
        // 16 diverging /20s under one bin force a dense node at the root.
        let routes: Vec<(u128, u8, u16)> = (0..16u128)
            .map(|v| ((0x2001u128 << 112) | (v << 108), 20, v as u16))
            .collect();
        let t = table(&routes);
        let ship = Ship6::build(&t);
        let (dense, _) = ship.node_counts();
        assert!(
            dense >= 1,
            "expected a dense node, got {:?}",
            ship.node_counts()
        );
        for v in 0..16u128 {
            let addr = (0x2001u128 << 112) | (v << 108) | 12345;
            assert_eq!(ship.lookup(addr), Some(NextHop(v as u16)), "nibble {v}");
            // A dense level is one line: the bin, then the root, whose
            // leaves share its line.
            let counted = ship.lookup_counted(addr);
            assert!(
                counted.lines_touched <= 2,
                "nibble {v}: {} lines",
                counted.lines_touched
            );
        }
    }

    /// The modeled record sizes are the sizes of the types the walk
    /// reads, and `storage_bytes` is exactly the arrays it reads.
    #[test]
    fn record_sizes_are_the_walked_types() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<Bin>(), BIN_BYTES);
        assert_eq!(size_of::<Unit>(), UNIT_BYTES);
        assert_eq!(size_of::<Line>(), LINE_BYTES);
        assert_eq!(align_of::<Line>(), LINE_BYTES);
        assert_eq!(LINE_BYTES, crate::LINE_BYTES);
        let ship = Ship6::build(&synthesize6_dfz(5_000, 3));
        assert_eq!(
            ship.storage_bytes(),
            ship.bins.len() * size_of::<Bin>() + ship.lines.len() * size_of::<Line>()
        );
    }

    /// Every record lies inside one line, and so does every child block
    /// of at most a line's units — a sibling pair included.
    #[test]
    fn records_and_small_blocks_stay_inside_one_line() {
        fn same_line(first: u32, units: u32) -> bool {
            first / LINE_UNITS == (first + units - 1) / LINE_UNITS
        }
        /// `units`: the node's record size, its own or a sibling's.
        fn check(ship: &Ship6, node: u32, units: Option<u32>, pairs: &mut usize) {
            let h = Header::decode(ship.unit(node));
            let own = record_units(h.leafvec.count_ones() as usize);
            let units = units.unwrap_or(own);
            assert!(own <= units);
            assert!(same_line(node, units), "record at unit {node} straddles");
            let children = h.ext.count_ones();
            let stride = 1u32 << h.shift;
            if children * stride <= LINE_UNITS && children > 0 {
                assert!(same_line(h.child_base, children * stride));
                *pairs += usize::from(children == 2);
            }
            for rank in 0..children {
                check(ship, h.child_base + rank * stride, Some(stride), pairs);
            }
        }
        let ship = Ship6::build(&synthesize6_dfz(20_000, 4));
        let mut pairs = 0;
        for bin in ship.bins.iter().filter(|b| b.root != NONE) {
            check(&ship, bin.root, None, &mut pairs);
        }
        assert!(pairs > 0, "the table has sibling pairs");
    }

    #[test]
    fn matches_oracle_on_dfz_table() {
        let t = synthesize6_dfz(4_000, 21);
        let ship = Ship6::build(&t);
        let trie = GenericBinaryTrie::build(&t);
        let mut rng_bits = 0x9E3779B97F4A7C15u128;
        for i in 0..2_000u128 {
            // Half probe near stored prefixes, half uniform.
            rng_bits = rng_bits.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i);
            let addr = if i % 2 == 0 {
                let e = t.entries()[(rng_bits as usize) % t.len()];
                e.prefix.bits() | (rng_bits >> 64)
            } else {
                rng_bits
            };
            assert_eq!(ship.lookup(addr), trie.lookup(addr), "addr {addr:#034x}");
        }
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        let t = synthesize6_dfz(3_000, 5);
        let ship = Ship6::build(&t);
        let addrs: Vec<u128> = t
            .entries()
            .iter()
            .step_by(3)
            .map(|e| e.prefix.bits() | 0xABCD)
            .collect();
        let mut out = vec![CountedLookup::MISS; addrs.len()];
        ship.lookup_batch(&addrs, &mut out);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(out[i], ship.lookup_counted(a), "index {i}");
        }
    }

    #[test]
    fn apply_delta_patches_bins() {
        let t = synthesize6_dfz(2_000, 8);
        let mut ship = Ship6::build(&t);
        let mut rib = t.clone();
        // Withdraw one deep route, announce a new one, flip a next hop.
        let victim = rib
            .entries()
            .iter()
            .find(|e| e.prefix.len() == 48)
            .copied()
            .unwrap();
        rib.remove(victim.prefix);
        let added = p6(0x2001_0db8_00aa_u128 << 80, 48);
        rib.insert(RouteEntry6 {
            prefix: added,
            next_hop: NextHop(9),
        });
        let flipped = *rib
            .entries()
            .iter()
            .find(|e| e.prefix != added)
            .expect("table has other routes");
        rib.insert(RouteEntry6 {
            prefix: flipped.prefix,
            next_hop: NextHop(5),
        });
        let changed = [victim.prefix, added, flipped.prefix];
        let stats = ship.apply_delta(&changed, &rib).expect("patch accepted");
        assert_eq!(stats.prefixes_applied, 3);
        assert!(stats.bytes_touched > 0);
        // Patched engine is lookup-equivalent to a fresh build.
        let oracle = GenericBinaryTrie::build(&rib);
        for e in rib.entries().iter().step_by(7) {
            let addr = e.prefix.bits() | 3;
            assert_eq!(ship.lookup(addr), oracle.lookup(addr));
        }
        for probe in [victim.prefix.bits() | 3, added.bits() | 1, added.bits()] {
            assert_eq!(ship.lookup(probe), oracle.lookup(probe));
        }
        assert_eq!(ship.lookup(added.bits()), Some(NextHop(9)));
    }

    #[test]
    fn apply_delta_short_prefix_repaints_defaults() {
        let t = table(&[(0x2001_0db8u128 << 96, 32, 2)]);
        let mut ship = Ship6::build(&t);
        let mut rib = t.clone();
        let short = p6(0x2000u128 << 112, 4);
        rib.insert(RouteEntry6 {
            prefix: short,
            next_hop: NextHop(6),
        });
        ship.apply_delta(&[short], &rib).expect("patch accepted");
        assert_eq!(ship.lookup(0x2fffu128 << 112), Some(NextHop(6)));
        assert_eq!(ship.lookup((0x2001_0db8u128 << 96) | 1), Some(NextHop(2)));
        // Withdraw it again.
        rib.remove(short);
        ship.apply_delta(&[short], &rib).expect("patch accepted");
        assert_eq!(ship.lookup(0x2fffu128 << 112), None);
    }

    #[test]
    fn apply_delta_declines_after_heavy_garbage() {
        let t = synthesize6_dfz(500, 13);
        let mut ship = Ship6::build(&t);
        let mut rib = t.clone();
        // Hammer the same bins with withdraw-all/announce-all cycles
        // until the garbage fraction trips the decline.
        let mut declined = false;
        for round in 0..200 {
            let changed: Vec<Prefix6> = rib
                .entries()
                .iter()
                .filter(|e| e.prefix.len() > 16)
                .take(50)
                .map(|e| e.prefix)
                .collect();
            for (i, &p) in changed.iter().enumerate() {
                rib.insert(RouteEntry6 {
                    prefix: p,
                    next_hop: NextHop(((round + i) % 60) as u16),
                });
            }
            if ship.apply_delta(&changed, &rib).is_none() {
                declined = true;
                break;
            }
        }
        assert!(declined, "garbage decline never fired");
    }

    /// Leaves store next hop + 1, so the one next hop that has no leaf
    /// is refused at build instead of turning into a miss.
    #[test]
    #[should_panic(expected = "NextHop(u16::MAX) has no leaf encoding")]
    fn max_next_hop_is_refused() {
        Ship6::build(&table(&[
            (0x2001_0db8u128 << 96, 32, u16::MAX),
            (0x2000u128 << 112, 12, u16::MAX),
        ]));
    }

    #[test]
    fn storage_beats_binary_trie() {
        let t = synthesize6_dfz(20_000, 30);
        let ship = Ship6::build(&t);
        let trie = GenericBinaryTrie::build(&t);
        assert!(
            ship.storage_bytes() < trie.storage_bytes(),
            "ship {} vs binary {}",
            ship.storage_bytes(),
            trie.storage_bytes()
        );
    }

    #[test]
    fn accesses_far_below_binary_trie() {
        let t = synthesize6_dfz(20_000, 31);
        let ship = Ship6::build(&t);
        let trie = GenericBinaryTrie::build(&t);
        let addrs: Vec<u128> = t
            .entries()
            .iter()
            .step_by(5)
            .map(|e| e.prefix.bits() | 0x99)
            .collect();
        let ship_mean = crate::mean_accesses(&ship, &addrs);
        let trie_mean = crate::mean_accesses(&trie, &addrs);
        assert!(
            ship_mean * 3.0 < trie_mean,
            "ship {ship_mean:.2} vs binary {trie_mean:.2}"
        );
    }
}
