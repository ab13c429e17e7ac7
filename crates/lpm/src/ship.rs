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
//!   bin, each node picks its shape from the local prefix
//!   characteristics: *dense* regions (many diverging site routes, the
//!   /48 band under a popular /32) get a 4-bit-stride poptrie-style
//!   node with `u16` child/internal bitmaps and popcount-ranked child
//!   and route arrays; *sparse* regions (a lone allocation chain) get a
//!   path-compressed node that skips up to 64 bits in one read. The
//!   dominant v6 pattern — long shared allocation prefixes, then a
//!   burst of divergence at /48 — thus costs a few reads instead of the
//!   binary trie's one-read-per-bit 40+.
//!
//! Storage models (bytes per record, used for `storage_bytes` and the
//! cache-line accounting): bin entry 8 B (root ref + default), dense
//! node 12 B (two `u16` bitmaps + child/route bases), sparse node 20 B
//! (skip bits + length + in-node route + two child refs), child ref
//! 4 B, internal route 2 B.
//!
//! `apply_delta` patches at **bin granularity**: a changed prefix of
//! length > 16 names exactly one bin (its top 16 bits are concrete),
//! which is rebuilt from the post-update table's sorted range — O(bin)
//! work, not O(table). Changes of length ≤ 16 repaint the covered
//! bins' defaults. Orphaned arena space is tracked, and when garbage
//! exceeds `MAX_GARBAGE_FRACTION` the patch declines (`None`) so the
//! caller rebuilds — the explicit rebuild-fallback contract of
//! [`crate::Lpm::apply_delta`].

use crate::{prefetch_slice, CountedLookup, DeltaStats, Lpm, Tally, Walk, BATCH_LANES};
use spal_rib::v6::{Prefix6, RouteEntry6, RoutingTable6};
use spal_rib::NextHop;

/// Width of the address-block index: bins are the 2^16 /16 blocks.
const BIN_BITS: u8 = 16;
/// Number of bins.
const NUM_BINS: usize = 1 << BIN_BITS;

/// Sentinel for "no node".
const NONE: u32 = u32::MAX;
/// Node-reference tag: set = dense arena, clear = sparse arena.
const DENSE_FLAG: u32 = 1 << 31;
/// Low bits of a node reference: the arena index.
const REF_MASK: u32 = DENSE_FLAG - 1;

/// Dense node stride in bits (16-way branch, 15-slot internal bitmap).
const STRIDE: u8 = 4;

/// Characteristics thresholds: a region is *dense* when at least this
/// many routes diverge immediately (no common prefix to skip) across at
/// least [`DENSE_MIN_NIBBLES`] distinct next-nibble values.
const DENSE_MIN_ROUTES: usize = 8;
const DENSE_MIN_NIBBLES: usize = 4;

/// Maximum bits one sparse node can skip (its skip field is a `u64`).
const MAX_SKIP: u8 = 64;

/// Decline threshold: once more than a third of the arenas is orphaned
/// by bin rebuilds, patching has drifted too far from the fresh-build
/// storage model — decline and let the caller rebuild.
const MAX_GARBAGE_FRACTION: f64 = 1.0 / 3.0;

// Modeled record sizes.
const BIN_BYTES: usize = 8;
const DENSE_BYTES: usize = 12;
const SPARSE_BYTES: usize = 20;
const REF_BYTES: usize = 4;
const ROUTE_BYTES: usize = 2;

// Line-accounting regions (see [`crate::LineSet`]).
const REGION_BINS: u32 = 0;
const REGION_DENSE: u32 = 1;
const REGION_SPARSE: u32 = 2;
const REGION_REFS: u32 = 3;
const REGION_ROUTES: u32 = 4;

/// One entry of the level-1 address-block array.
#[derive(Debug, Clone, Copy)]
struct Bin {
    /// Root of the bin's trie over address bits 16.., or [`NONE`].
    root: u32,
    /// Next hop + 1 of the best covering route with length ≤ 16
    /// (0 = none).
    default: u16,
}

const EMPTY_BIN: Bin = Bin {
    root: NONE,
    default: 0,
};

/// A 4-bit-stride dense node. `ext` has bit `v` set when nibble `v` has
/// a child; `int` is the 15-slot binary-heap bitmap of internal
/// prefixes (relative lengths 0–3). Children and internal routes live
/// at `child_base` in the ref array and `route_base` in the route
/// array, popcount-ranked.
#[derive(Debug, Clone, Copy)]
struct Dense {
    ext: u16,
    int: u16,
    child_base: u32,
    route_base: u32,
}

/// A path-compressed sparse node: consume `skip_len` bits that must
/// equal `skip`, pick up the in-node route ending exactly there
/// (`route` = next hop + 1, 0 = none), then branch one bit.
#[derive(Debug, Clone, Copy)]
struct Sparse {
    skip: u64,
    skip_len: u8,
    route: u16,
    children: [u32; 2],
}

/// Internal build/rebuild representation of one route.
#[derive(Debug, Clone, Copy)]
struct BuildRoute {
    bits: u128,
    len: u8,
    nh: u16,
}

/// The two-level SHIP engine.
#[derive(Debug, Clone)]
pub struct Ship6 {
    bins: Vec<Bin>,
    dense: Vec<Dense>,
    sparse: Vec<Sparse>,
    refs: Vec<u32>,
    routes: Vec<u16>,
    /// Modeled bytes currently reachable from each bin's root, so bin
    /// rebuilds can account what they orphan.
    bin_bytes: Vec<u32>,
    /// Modeled arena bytes orphaned by bin rebuilds.
    garbage_bytes: usize,
    route_count: usize,
}

/// Bits `start .. start+len` of `addr`, right-aligned. `len` ≤ 64 and
/// `start + len` ≤ 128; `len` = 0 yields 0.
#[inline]
fn extract_bits(addr: u128, start: u8, len: u8) -> u64 {
    if len == 0 {
        return 0;
    }
    ((addr >> (128 - start as u32 - len as u32)) & ((1u128 << len) - 1)) as u64
}

impl Ship6 {
    /// Build from a routing table.
    pub fn build(table: &RoutingTable6) -> Self {
        let mut ship = Ship6 {
            bins: vec![EMPTY_BIN; NUM_BINS],
            dense: Vec::new(),
            sparse: Vec::new(),
            refs: Vec::new(),
            routes: Vec::new(),
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
            let base = (e.prefix.bits() >> (128 - BIN_BITS)) as usize;
            let count = 1usize << (BIN_BITS - e.prefix.len());
            for bin in &mut ship.bins[base..base + count] {
                bin.default = e.next_hop.0 + 1;
            }
        }

        // Level 2: one hybrid trie per bin over the deep routes. The
        // table is sorted by (bits, len), so each bin's routes are a
        // contiguous run.
        let deep: Vec<BuildRoute> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() > BIN_BITS)
            .map(|e| BuildRoute {
                bits: e.prefix.bits(),
                len: e.prefix.len(),
                nh: e.next_hop.0,
            })
            .collect();
        let mut i = 0;
        while i < deep.len() {
            let bin = (deep[i].bits >> (128 - BIN_BITS)) as usize;
            let mut j = i + 1;
            while j < deep.len() && (deep[j].bits >> (128 - BIN_BITS)) as usize == bin {
                j += 1;
            }
            let before = ship.arena_bytes();
            ship.bins[bin].root = ship.build_node(deep[i..j].to_vec(), BIN_BITS);
            ship.bin_bytes[bin] = (ship.arena_bytes() - before) as u32;
            i = j;
        }
        ship
    }

    /// Modeled bytes in the growable arenas (excludes the fixed bins).
    fn arena_bytes(&self) -> usize {
        self.dense.len() * DENSE_BYTES
            + self.sparse.len() * SPARSE_BYTES
            + self.refs.len() * REF_BYTES
            + self.routes.len() * ROUTE_BYTES
    }

    /// Number of stored routes.
    pub fn route_count(&self) -> usize {
        self.route_count
    }

    /// Node counts `(dense, sparse)` — exposed for the stress tests'
    /// storage records.
    pub fn node_counts(&self) -> (usize, usize) {
        (self.dense.len(), self.sparse.len())
    }

    /// Build the hybrid-trie node for `routes` (all of length ≥ `depth`
    /// and sharing address bits 0..`depth`), returning its tagged ref.
    fn build_node(&mut self, routes: Vec<BuildRoute>, depth: u8) -> u32 {
        debug_assert!(!routes.is_empty());
        debug_assert!(routes.iter().all(|r| r.len >= depth));

        // The local prefix characteristics: how far every route agrees
        // past `depth` (bounded by the shortest route, which must end
        // on a node boundary), and how widely they branch if they
        // disagree immediately.
        let min_len = routes.iter().map(|r| r.len).min().expect("non-empty");
        let max_skip = (min_len - depth).min(MAX_SKIP);
        let lcp = if routes.len() == 1 {
            max_skip
        } else {
            let first = routes.first().expect("non-empty").bits;
            let last = routes.last().expect("non-empty").bits;
            let agree = (first ^ last).leading_zeros() as u8; // 128 if equal
            agree.saturating_sub(depth).min(max_skip)
        };

        if lcp == 0 && depth + STRIDE <= 128 && routes.len() >= DENSE_MIN_ROUTES {
            // Sorted input ⇒ deep routes' nibbles are non-decreasing.
            let mut nibbles = 0usize;
            let mut prev: Option<u64> = None;
            for r in routes.iter().filter(|r| r.len >= depth + STRIDE) {
                let nib = extract_bits(r.bits, depth, STRIDE);
                if prev != Some(nib) {
                    nibbles += 1;
                    prev = Some(nib);
                }
            }
            if nibbles >= DENSE_MIN_NIBBLES {
                return self.build_dense(routes, depth);
            }
        }
        self.build_sparse(routes, depth, lcp)
    }

    fn build_dense(&mut self, routes: Vec<BuildRoute>, depth: u8) -> u32 {
        let mut int: u16 = 0;
        let mut int_routes: Vec<(u8, u16)> = Vec::new();
        for r in routes.iter().filter(|r| r.len < depth + STRIDE) {
            let l = r.len - depth;
            let pos = (1u8 << l) - 1 + extract_bits(r.bits, depth, l) as u8;
            int |= 1 << pos;
            int_routes.push((pos, r.nh));
        }
        int_routes.sort_by_key(|&(pos, _)| pos);

        let mut ext: u16 = 0;
        let mut child_refs: Vec<u32> = Vec::new();
        let mut i = 0;
        let deep: Vec<BuildRoute> = routes
            .into_iter()
            .filter(|r| r.len >= depth + STRIDE)
            .collect();
        while i < deep.len() {
            let nib = extract_bits(deep[i].bits, depth, STRIDE);
            let mut j = i + 1;
            while j < deep.len() && extract_bits(deep[j].bits, depth, STRIDE) == nib {
                j += 1;
            }
            ext |= 1 << nib;
            let child = self.build_node(deep[i..j].to_vec(), depth + STRIDE);
            child_refs.push(child);
            i = j;
        }

        let route_base = self.routes.len() as u32;
        self.routes.extend(int_routes.iter().map(|&(_, nh)| nh));
        let child_base = self.refs.len() as u32;
        self.refs.extend_from_slice(&child_refs);
        let idx = self.dense.len() as u32;
        self.dense.push(Dense {
            ext,
            int,
            child_base,
            route_base,
        });
        idx | DENSE_FLAG
    }

    fn build_sparse(&mut self, routes: Vec<BuildRoute>, depth: u8, skip_len: u8) -> u32 {
        let d2 = depth + skip_len;
        let skip = extract_bits(routes[0].bits, depth, skip_len);
        let route = routes.iter().find(|r| r.len == d2).map_or(0, |r| r.nh + 1);
        let mut children = [NONE, NONE];
        if d2 < 128 {
            let rest: Vec<BuildRoute> = routes.into_iter().filter(|r| r.len > d2).collect();
            let split = rest.partition_point(|r| extract_bits(r.bits, d2, 1) == 0);
            if split > 0 {
                children[0] = self.build_node(rest[..split].to_vec(), d2 + 1);
            }
            if split < rest.len() {
                children[1] = self.build_node(rest[split..].to_vec(), d2 + 1);
            }
        }
        let idx = self.sparse.len() as u32;
        self.sparse.push(Sparse {
            skip,
            skip_len,
            route,
            children,
        });
        idx
    }

    /// Recompute one bin's default from the post-update table.
    fn repaint_default(&mut self, bin: usize, rib: &RoutingTable6) {
        let addr = (bin as u128) << (128 - BIN_BITS);
        self.bins[bin].default = rib
            .best_cover(addr, BIN_BITS)
            .map_or(0, |e| e.next_hop.0 + 1);
    }

    /// Rebuild one bin's trie from the post-update table, orphaning the
    /// old nodes. Returns the modeled bytes appended.
    fn rebuild_bin(&mut self, bin: usize, rib: &RoutingTable6) -> usize {
        let lo = (bin as u128) << (128 - BIN_BITS);
        let hi = lo | ((1u128 << (128 - BIN_BITS)) - 1);
        let routes: Vec<BuildRoute> = rib
            .range(lo, hi)
            .iter()
            .filter(|e| e.prefix.len() > BIN_BITS)
            .map(|e| BuildRoute {
                bits: e.prefix.bits(),
                len: e.prefix.len(),
                nh: e.next_hop.0,
            })
            .collect();
        self.garbage_bytes += self.bin_bytes[bin] as usize;
        let before = self.arena_bytes();
        self.bins[bin].root = if routes.is_empty() {
            NONE
        } else {
            self.build_node(routes, BIN_BITS)
        };
        let appended = self.arena_bytes() - before;
        self.bin_bytes[bin] = appended as u32;
        appended
    }
}

/// Per-lane walk state: the node to read next ([`NONE`] once the walk
/// has ended), the address bits consumed, and the best route so far
/// (next hop + 1, 0 = none).
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    node_ref: u32,
    depth: u8,
    best: u16,
}

/// Next hop + 1 (0 = none), as bins and nodes store routes, to a result.
#[inline]
fn hop(best: u16) -> Option<NextHop> {
    best.checked_sub(1).map(NextHop)
}

/// Batched through the generic lane driver: worth 8 % of end-to-end
/// throughput in the dataplane against the scalar loop (`v6-w1` 8.97
/// Mpkt/s without it, 9.91 with, ahead in 15 of 18 alternating rounds —
/// EXPERIMENTS E28), and 1.12× the scalar loop in `bench_lookup --dfz`
/// once neither arm times the line bookkeeping (E29).
impl Walk for Ship6 {
    type Addr = u128;
    type Lane = Lane;

    /// Level 1: read `addr`'s bin.
    #[inline]
    fn start<T: Tally>(&self, addr: u128, t: &mut T) -> Lane {
        let bin_idx = (addr >> (128 - BIN_BITS)) as usize;
        t.read(REGION_BINS, bin_idx * BIN_BYTES, BIN_BYTES);
        let bin = self.bins[bin_idx];
        Lane {
            node_ref: bin.root,
            depth: BIN_BITS,
            best: bin.default,
        }
    }

    /// Level 2: read the node `lane` stands on and move to the child
    /// `addr` selects, or end the walk.
    #[inline]
    fn step<T: Tally>(&self, addr: u128, lane: &mut Lane, t: &mut T) -> bool {
        let node_ref = std::mem::replace(&mut lane.node_ref, NONE);
        if node_ref == NONE {
            return false;
        }
        if node_ref & DENSE_FLAG != 0 {
            let idx = (node_ref & REF_MASK) as usize;
            t.read(REGION_DENSE, idx * DENSE_BYTES, DENSE_BYTES);
            let node = self.dense[idx];
            let nib = extract_bits(addr, lane.depth, STRIDE) as u16;
            // Longest internal match: relative lengths 3 → 0.
            for l in (0..STRIDE).rev() {
                let pos = (1u16 << l) - 1 + (nib >> (STRIDE - l));
                if node.int & (1 << pos) != 0 {
                    let rank = (node.int & ((1 << pos) - 1)).count_ones();
                    let ri = node.route_base as usize + rank as usize;
                    t.read(REGION_ROUTES, ri * ROUTE_BYTES, ROUTE_BYTES);
                    lane.best = self.routes[ri] + 1;
                    break;
                }
            }
            if node.ext & (1 << nib) != 0 {
                let rank = (node.ext & ((1 << nib) - 1)).count_ones();
                let ci = node.child_base as usize + rank as usize;
                t.read(REGION_REFS, ci * REF_BYTES, REF_BYTES);
                lane.node_ref = self.refs[ci];
                lane.depth += STRIDE;
            }
        } else {
            let idx = node_ref as usize;
            t.read(REGION_SPARSE, idx * SPARSE_BYTES, SPARSE_BYTES);
            let node = self.sparse[idx];
            if node.skip_len > 0 && extract_bits(addr, lane.depth, node.skip_len) != node.skip {
                return false;
            }
            lane.depth += node.skip_len;
            if node.route != 0 {
                lane.best = node.route;
            }
            if lane.depth >= 128 {
                return false;
            }
            lane.node_ref = node.children[extract_bits(addr, lane.depth, 1) as usize];
            lane.depth += 1;
        }
        lane.node_ref != NONE
    }

    #[inline]
    fn finish<T: Tally>(&self, _addr: u128, lane: &Lane, t: &mut T) -> T::Out {
        t.done(hop(lane.best))
    }

    /// Prefetch the node behind `node_ref` (nothing for [`NONE`], which
    /// carries the dense flag).
    #[inline]
    fn prefetch(&self, _addr: u128, lane: &Lane) {
        let node_ref = lane.node_ref;
        if node_ref & DENSE_FLAG == 0 {
            prefetch_slice(&self.sparse, node_ref as usize);
        } else if node_ref != NONE {
            prefetch_slice(&self.dense, (node_ref & REF_MASK) as usize);
        }
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
                dirty_bins.push((p.bits() >> (128 - BIN_BITS)) as usize);
            } else {
                let base = (p.bits() >> (128 - BIN_BITS)) as usize;
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
        }
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
