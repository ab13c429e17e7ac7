//! DIR-24-8-BASIC — the hardware lookup scheme of Gupta, Lin & McKeown,
//! "Routing Lookups in Hardware at Memory Access Speeds" (ref \[10\],
//! discussed in the paper's §2.1).
//!
//! A 2^24-entry first-level table indexed by the top 24 address bits
//! resolves most lookups in **one** memory access; prefixes longer than
//! /24 spill into 256-entry second-level segments (two accesses). The
//! §2.1 point this module reproduces: the memory requirement "is huge
//! (> 32 Mbytes)" — the antithesis of SPAL's small-SRAM goal — while
//! lookups run at memory speed.
//!
//! Batches run an index-ahead loop (prefetch the `tbl24` entry
//! `PREFETCH_AHEAD` addresses ahead, resolve in order), not the
//! crate's shared lane driver: at the batch sizes the threaded dataplane
//! hands this engine (about 26 addresses per call on `locality-w1` and
//! `churn-w1`, 239 on `fabric-w2`) the driver ran 0.62–0.81× this loop
//! at every lane width tried (EXPERIMENTS E44 §2).

use crate::{
    prefetch_slice, Counted, CountedLookup, DeltaStats, Forward, Lpm, Tally, LENGTH_MISMATCH,
};
use spal_rib::{NextHop, Prefix, RouteEntry, RoutingTable};

/// First-level entries: 15-bit payload plus a "long" flag, as in the
/// original design. We store them unpacked as `u16` + flag in the high
/// bit and model 2 bytes per entry.
const LONG_FLAG: u16 = 0x8000;
/// Sentinel payload for "no route".
const MISS: u16 = 0x7FFF;

/// The DIR-24-8 lookup structure.
#[derive(Clone)]
pub struct Dir24_8 {
    // (fields below; Debug is implemented by hand — dumping a 16M-entry
    // table is never what a derive user wants)
    /// 2^24 entries: either a next hop (high bit clear) or a segment
    /// index (high bit set).
    tbl24: Vec<u16>,
    /// Concatenated 256-entry second-level segments.
    tbl_long: Vec<u16>,
    /// Segment slots freed by withdrawals, reused before growing
    /// `tbl_long` — keeps sustained churn from exhausting the 15-bit
    /// segment index space.
    free_segs: Vec<u16>,
    routes: usize,
}

impl std::fmt::Debug for Dir24_8 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dir24_8")
            .field("routes", &self.routes)
            .field("segments", &self.segment_count())
            .field("storage_bytes", &Lpm::storage_bytes(self))
            .finish()
    }
}

/// A route's next hop as a table entry. Panics if it does not fit the
/// 15-bit payload — the check every write of a route goes through.
fn payload(e: &RouteEntry) -> u16 {
    let nh = e.next_hop.0;
    assert!(nh < MISS, "next hop {nh} exceeds the 15-bit payload");
    nh
}

impl Dir24_8 {
    /// Build from a routing table.
    ///
    /// # Panics
    /// Panics if a next hop exceeds the 15-bit payload (32766), or if
    /// more than 2^15 second-level segments are needed — the published
    /// design's own limits.
    pub fn build(table: &RoutingTable) -> Self {
        let mut tbl24 = vec![MISS; 1 << 24];
        // Shortest-first fill so longer prefixes overwrite inside their
        // ranges.
        let mut shallow: Vec<_> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() <= 24)
            .collect();
        shallow.sort_by_key(|e| e.prefix.len());
        for e in shallow {
            let nh = payload(e);
            let start = (e.prefix.bits() >> 8) as usize;
            let count = 1usize << (24 - e.prefix.len());
            tbl24[start..start + count].fill(nh);
        }
        // Deep routes: group by 24-bit base, one segment each.
        let mut deep: Vec<_> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() > 24)
            .collect();
        deep.sort_by_key(|e| e.prefix.len());
        let mut tbl_long: Vec<u16> = Vec::new();
        for e in deep {
            let nh = payload(e);
            let base = (e.prefix.bits() >> 8) as usize;
            let seg = if tbl24[base] & LONG_FLAG != 0 {
                (tbl24[base] & !LONG_FLAG) as usize
            } else {
                // Allocate a segment seeded with the sub-/24 result.
                let seg = tbl_long.len() / 256;
                assert!(seg < 1 << 15, "segment space exhausted");
                let default = tbl24[base];
                tbl_long.resize(tbl_long.len() + 256, default);
                tbl24[base] = LONG_FLAG | seg as u16;
                seg
            };
            let first = (e.prefix.bits() & 0xFF) as usize;
            let count = 1usize << (32 - e.prefix.len());
            let off = seg * 256 + first;
            tbl_long[off..off + count].fill(nh);
        }
        Dir24_8 {
            tbl24,
            tbl_long,
            free_segs: Vec::new(),
            routes: table.len(),
        }
    }

    /// Number of 256-entry second-level segments.
    pub fn segment_count(&self) -> usize {
        self.tbl_long.len() / 256
    }

    /// 15-bit payload for a route (or the miss sentinel).
    fn route_val(entry: Option<RouteEntry>) -> u16 {
        entry.as_ref().map_or(MISS, payload)
    }

    /// Rewrite segment `seg` from scratch: seed with the sub-/24
    /// `default`, then paint the >/24 routes shortest-first.
    fn refill_segment(&mut self, seg: usize, default: u16, deep: &[RouteEntry]) {
        let off = seg * 256;
        self.tbl_long[off..off + 256].fill(default);
        let mut deep: Vec<&RouteEntry> = deep.iter().collect();
        deep.sort_by_key(|e| e.prefix.len());
        for e in deep {
            let nh = payload(e);
            let first = (e.prefix.bits() & 0xFF) as usize;
            let count = 1usize << (32 - e.prefix.len());
            self.tbl_long[off + first..off + first + count].fill(nh);
        }
    }

    /// Reuse a freed segment or grow `tbl_long` by one.
    fn alloc_segment(&mut self) -> usize {
        if let Some(seg) = self.free_segs.pop() {
            return seg as usize;
        }
        let seg = self.tbl_long.len() / 256;
        assert!(seg < 1 << 15, "segment space exhausted");
        self.tbl_long.resize(self.tbl_long.len() + 256, MISS);
        seg
    }

    /// Patch for a changed prefix of length ≤ 24: recompute the ≤/24
    /// best-match value for every covered `tbl24` slot and rewrite the
    /// slots (re-seeding any spill segments in the range with their new
    /// default). Returns bytes touched.
    fn patch_shallow(&mut self, p: Prefix, rib: &RoutingTable) -> usize {
        let start = (p.bits() >> 8) as usize;
        let count = 1usize << (24 - p.len());
        // The value the whole range inherits from at-or-above `p`, then
        // longer contained routes painted shortest-first on top — the
        // build's fill order, restricted to the affected range.
        let base_val = Self::route_val(rib.best_cover(p.first_addr(), p.len()));
        let mut vals = vec![base_val; count];
        let mut contained: Vec<&RouteEntry> = rib
            .range(p.first_addr(), p.last_addr())
            .iter()
            .filter(|e| e.prefix.len() > p.len() && e.prefix.len() <= 24)
            .collect();
        contained.sort_by_key(|e| e.prefix.len());
        for e in contained {
            let nh = payload(e);
            let s = ((e.prefix.bits() >> 8) as usize) - start;
            let c = 1usize << (24 - e.prefix.len());
            vals[s..s + c].fill(nh);
        }
        let mut bytes = 0;
        for (i, &v) in vals.iter().enumerate() {
            let slot = start + i;
            if self.tbl24[slot] & LONG_FLAG != 0 {
                let seg = (self.tbl24[slot] & !LONG_FLAG) as usize;
                let lo = (slot as u32) << 8;
                let deep: Vec<RouteEntry> = rib
                    .range(lo, lo | 0xFF)
                    .iter()
                    .filter(|e| e.prefix.len() > 24)
                    .copied()
                    .collect();
                if deep.is_empty() {
                    // The deep routes under this /24 were withdrawn in
                    // the same batch; drop the segment entirely.
                    self.free_segs.push(seg as u16);
                    self.tbl24[slot] = v;
                    bytes += 2;
                } else {
                    self.refill_segment(seg, v, &deep);
                    bytes += 2 * 256;
                }
            } else {
                self.tbl24[slot] = v;
                bytes += 2;
            }
        }
        bytes
    }

    /// Patch for a changed prefix of length > 24: re-seed (or allocate,
    /// or free) the one spill segment under its /24. Returns bytes
    /// touched.
    fn patch_deep(&mut self, p: Prefix, rib: &RoutingTable) -> usize {
        let slot = (p.bits() >> 8) as usize;
        let lo = (slot as u32) << 8;
        let deep: Vec<RouteEntry> = rib
            .range(lo, lo | 0xFF)
            .iter()
            .filter(|e| e.prefix.len() > 24)
            .copied()
            .collect();
        let default = Self::route_val(rib.best_cover(lo, 24));
        if deep.is_empty() {
            if self.tbl24[slot] & LONG_FLAG != 0 {
                self.free_segs.push(self.tbl24[slot] & !LONG_FLAG);
            }
            self.tbl24[slot] = default;
            2
        } else {
            let seg = if self.tbl24[slot] & LONG_FLAG != 0 {
                (self.tbl24[slot] & !LONG_FLAG) as usize
            } else {
                self.alloc_segment()
            };
            self.tbl24[slot] = LONG_FLAG | seg as u16;
            self.refill_segment(seg, default, &deep);
            2 + 2 * 256
        }
    }

    /// Number of routes the structure was built from.
    pub fn route_count(&self) -> usize {
        self.routes
    }
}

/// How many addresses ahead of the resolve point the batch path issues
/// its first-level prefetch. The 16 M-entry `tbl24` misses cache on
/// almost every distinct /24, and eight independent lookups keep the
/// miss pipeline full without racing past the prefetcher's usefulness.
const PREFETCH_AHEAD: usize = 8;

impl Dir24_8 {
    /// The descent: one `tbl24` read, plus one `tbl_long` read under a
    /// spilled /24. Both tables hold aligned 2-byte entries (2 divides
    /// 64) and are distinct arrays, so each read has a line to itself
    /// and `lines_touched == mem_accesses`.
    #[inline]
    fn walk<T: Tally>(&self, addr: u32, t: &mut T) -> T::Out {
        t.read_own_line();
        let mut v = self.tbl24[(addr >> 8) as usize];
        if v & LONG_FLAG != 0 {
            t.read_own_line();
            v = self.tbl_long[(v & !LONG_FLAG) as usize * 256 + (addr & 0xFF) as usize];
        }
        t.done((v != MISS).then_some(NextHop(v)))
    }

    /// Index-ahead batch path: the first level is a single dependent
    /// load per lookup, so the whole win is memory-level parallelism —
    /// prefetch the `tbl24` line `PREFETCH_AHEAD` addresses before it
    /// is needed, then resolve in a tight loop the compiler keeps free
    /// of per-call overhead.
    fn lanes<T: Tally>(&self, addrs: &[u32], out: &mut [T::Out]) {
        assert_eq!(addrs.len(), out.len(), "{LENGTH_MISMATCH}");
        let mut t = T::new();
        for (i, (&addr, o)) in addrs.iter().zip(out.iter_mut()).enumerate() {
            if let Some(&ahead) = addrs.get(i + PREFETCH_AHEAD) {
                prefetch_slice(&self.tbl24, (ahead >> 8) as usize);
            }
            t.clear();
            *o = self.walk(addr, &mut t);
        }
    }
}

impl Lpm for Dir24_8 {
    fn lookup(&self, addr: u32) -> Option<NextHop> {
        self.walk(addr, &mut Forward)
    }

    fn lookup_counted(&self, addr: u32) -> CountedLookup {
        self.walk(addr, &mut Counted::new())
    }

    fn lookup_batch(&self, addrs: &[u32], out: &mut [CountedLookup]) {
        self.lanes::<Counted>(addrs, out)
    }

    fn forward_batch(&self, addrs: &[u32], out: &mut [Option<NextHop>]) {
        self.lanes::<Forward>(addrs, out)
    }

    /// Direct range-write patching — the update path DIR-24-8 was
    /// designed for. Each changed prefix rewrites only the `tbl24`
    /// slots its range covers (≤ /24) or the one spill segment under
    /// its /24 (> /24), recomputing values from the post-update RIB
    /// fragment. Fallback rule: prefixes shorter than /8 cover > 2^16
    /// slots, at which point a patch approaches rebuild cost — decline
    /// and let the caller rebuild.
    fn apply_delta(&mut self, changed: &[Prefix], rib: &RoutingTable) -> Option<DeltaStats> {
        if changed.iter().any(|p| p.len() < 8) {
            return None;
        }
        let mut stats = DeltaStats::default();
        for &p in changed {
            let bytes = if p.len() <= 24 {
                self.patch_shallow(p, rib)
            } else {
                self.patch_deep(p, rib)
            };
            stats.prefixes_applied += 1;
            stats.bytes_touched += bytes;
        }
        self.routes = rib.len();
        Some(stats)
    }

    fn storage_bytes(&self) -> usize {
        // 2 bytes per entry at both levels, as published.
        self.tbl24.len() * 2 + self.tbl_long.len() * 2
    }

    fn name(&self) -> &'static str {
        "DIR-24-8"
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

    #[test]
    fn empty_table_misses() {
        let d = Dir24_8::build(&RoutingTable::new());
        assert_eq!(d.lookup(0), None);
        assert_eq!(d.lookup_counted(0).mem_accesses, 1);
        // The fixed 32 MB first level exists regardless (§2.1: "huge").
        assert_eq!(d.storage_bytes(), 32 << 20);
    }

    #[test]
    fn shallow_routes_single_access() {
        let rt = table(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2)]);
        let d = Dir24_8::build(&rt);
        let c = d.lookup_counted(0x0A01_0203);
        assert_eq!(c.next_hop, Some(NextHop(2)));
        assert_eq!(c.mem_accesses, 1);
        assert_eq!(d.segment_count(), 0);
    }

    #[test]
    fn deep_routes_two_accesses_with_fallback() {
        let rt = table(&[("10.1.2.0/24", 1), ("10.1.2.128/25", 2), ("10.1.2.7/32", 3)]);
        let d = Dir24_8::build(&rt);
        assert_eq!(d.lookup_counted(0x0A01_0207).next_hop, Some(NextHop(3)));
        assert_eq!(d.lookup_counted(0x0A01_0207).mem_accesses, 2);
        assert_eq!(d.lookup(0x0A01_0280), Some(NextHop(2)));
        // Inside the /24 but outside the deeper routes: the seeded
        // default applies.
        assert_eq!(d.lookup(0x0A01_0210), Some(NextHop(1)));
        assert_eq!(d.lookup(0x0A01_0300), None);
        assert_eq!(d.segment_count(), 1);
    }

    #[test]
    fn agrees_with_oracle() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(121);
        let d = Dir24_8::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..400 {
            let addr: u32 = rng.gen();
            assert_eq!(
                d.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
        for e in rt.entries().iter().step_by(11) {
            for addr in [e.prefix.first_addr(), e.prefix.last_addr()] {
                assert_eq!(d.lookup(addr), rt.longest_match(addr).map(|x| x.next_hop));
            }
        }
    }

    #[test]
    fn storage_is_huge_as_section_2_1_says() {
        let rt = synth::small(123);
        let d = Dir24_8::build(&rt);
        assert!(d.storage_bytes() > 32 << 20);
        assert_eq!(d.route_count(), rt.len());
    }

    #[test]
    fn batch_and_uncounted_match_scalar() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(121);
        let d = Dir24_8::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // 515 = an unaligned tail past the 4-lane groups.
        let addrs: Vec<u32> = (0..515).map(|_| rng.gen()).collect();
        let mut out = vec![CountedLookup::MISS; addrs.len()];
        d.lookup_batch(&addrs, &mut out);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(out[i], d.lookup_counted(a), "addr {a:#010x}");
            assert_eq!(d.lookup(a), out[i].next_hop, "addr {a:#010x}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 15-bit payload")]
    fn oversized_next_hop_rejected() {
        let rt = table(&[("10.0.0.0/8", 0x7FFF)]);
        let _ = Dir24_8::build(&rt);
    }

    #[test]
    #[should_panic(expected = "exceeds the 15-bit payload")]
    fn oversized_deep_next_hop_rejected() {
        let rt = table(&[("10.1.2.128/25", 0x7FFF)]);
        let _ = Dir24_8::build(&rt);
    }

    #[test]
    #[should_panic(expected = "exceeds the 15-bit payload")]
    fn oversized_next_hop_rejected_by_delta() {
        let mut rt = table(&[("10.0.0.0/8", 1)]);
        let mut d = Dir24_8::build(&rt);
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        rt.insert(RouteEntry {
            prefix: p,
            next_hop: NextHop(0x7FFF),
        });
        let _ = d.apply_delta(&[p], &rt);
    }

    #[test]
    fn delta_patch_matches_rebuild() {
        let mut rt = table(&[("10.0.0.0/8", 1), ("10.1.2.0/24", 2), ("10.1.2.128/25", 3)]);
        let mut d = Dir24_8::build(&rt);
        let steps: &[(&str, Option<u16>)] = &[
            ("10.1.0.0/16", Some(9)),     // announce between existing routes
            ("10.1.2.128/25", None),      // withdraw a deep route
            ("10.1.2.7/32", Some(4)),     // announce a deep route
            ("10.1.2.0/24", Some(8)),     // re-target under the segment
            ("10.1.2.7/32", None),        // last deep route gone: segment freed
            ("10.0.0.0/8", None),         // withdraw the covering route
            ("192.168.4.64/26", Some(5)), // fresh deep route reuses the freed segment
        ];
        for &(s, nh) in steps {
            let p: Prefix = s.parse().unwrap();
            match nh {
                Some(nh) => rt.insert(RouteEntry {
                    prefix: p,
                    next_hop: NextHop(nh),
                }),
                None => {
                    rt.remove(p);
                }
            }
            let stats = d.apply_delta(&[p], &rt).expect("patchable");
            assert!(stats.bytes_touched > 0);
            let fresh = Dir24_8::build(&rt);
            for e in rt.entries() {
                for addr in [e.prefix.first_addr(), e.prefix.last_addr()] {
                    for probe in [addr.wrapping_sub(1), addr, addr.wrapping_add(1)] {
                        assert_eq!(d.lookup(probe), fresh.lookup(probe), "probe {probe:#010x}");
                    }
                }
            }
            assert_eq!(d.route_count(), rt.len());
        }
        // The freed segment must have been reused, not leaked.
        assert_eq!(d.segment_count(), 1);
    }

    #[test]
    fn delta_declines_short_prefixes() {
        let rt = table(&[("0.0.0.0/0", 1)]);
        let mut d = Dir24_8::build(&rt);
        assert!(d
            .apply_delta(&["0.0.0.0/0".parse().unwrap()], &rt)
            .is_none());
        assert!(d
            .apply_delta(&["10.0.0.0/7".parse().unwrap()], &rt)
            .is_none());
        assert!(d
            .apply_delta(&["10.0.0.0/8".parse().unwrap()], &rt)
            .is_some());
    }
}
