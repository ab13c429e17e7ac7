//! Lulea compressed trie — Degermark, Brodnik, Carlsson & Pink, "Small
//! Forwarding Tables for Fast Routing Lookups" (ref \[7\] of the paper).
//!
//! The genuine three-level structure with strides 16/8/8:
//!
//! * **Level 1** covers the top 16 address bits. The complete binary trie
//!   cut at depth 16 is encoded as a 2^16-bit *head* vector, compressed
//!   into 4096 16-bit **codewords** (10-bit maptable row + 6-bit offset),
//!   1024 **base indexes** (one per four codewords) and the 678-row
//!   **maptable** of 4-bit partial head counts. A head's pointer either
//!   resolves to a next hop or descends into a level-2 chunk.
//! * **Levels 2 and 3** cover 8 bits each, in 256-slot *chunks* of three
//!   densities: **sparse** (≤ 8 heads, a fixed 8-entry head array),
//!   **dense** (≤ 64 heads, codewords without base indexes) and **very
//!   dense** (codewords plus 4 base indexes, as in level 1).
//!
//! The head vector is the minimal complete-trie partition of each level's
//!   slot range into uniform aligned power-of-two intervals, so every
//!   16-bit chunk pattern is one of the 677 valid depth-4 cut patterns (or
//!   all-zero, when an interval spans whole chunks) — exactly the property
//!   that keeps the maptable at 678 rows.
//!
//! Lookup costs are counted per memory access (codeword, base, maptable,
//! pointer, chunk reads, next-hop table), which on backbone tables lands
//! near the 6–7 accesses/lookup the paper measures in §5.1.

use crate::{prefetch_slice, CountedLookup, Lpm, Tally, Walk};
use spal_rib::{NextHop, RoutingTable};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Number of slots per chunk at levels 2 and 3.
const CHUNK_SLOTS: usize = 256;
/// Bits consumed by level 1.
const L1_BITS: u8 = 16;
/// Slots at level 1.
const L1_SLOTS: usize = 1 << 16;

/// Modeled bytes of one interleaved codeword group: a 2 B base index
/// followed by the four 2 B codewords it serves, packed so a codeword
/// and the base it needs land in the same cache line.
const GROUP_BYTES: usize = 10;
/// Modeled bytes of a dense chunk's packed codeword (no bases).
const CW_BYTES: usize = 2;
/// Modeled maptable row: 16 4-bit entries = 8 bytes.
const MT_ROW_BYTES: usize = 8;

// Line-accounting regions (see [`crate::LineSet`]): distinct arrays carry
// distinct region ids so their modeled offsets never alias. Each level
// 2/3 chunk is tagged with its id — every chunk is its own little block
// of SRAM whose internal layout starts at offset 0.
const REGION_L1: u32 = 0;
const REGION_L1PTR: u32 = 1;
const REGION_MT: u32 = 2;
const REGION_NH: u32 = 3;
const REGION_L2_TAG: u32 = 0x4000_0000;
const REGION_L3_TAG: u32 = 0x8000_0000;

/// Modeled intra-chunk byte offset of the pointer array: sparse chunks
/// put it after the 8 head bytes, dense after 16 packed codewords,
/// very dense after 4 interleaved groups.
const SPARSE_PTR_BASE: usize = 8;
const DENSE_PTR_BASE: usize = 32;
const VDENSE_PTR_BASE: usize = 40;

/// A value stored behind a head pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Val {
    /// No route covers this interval.
    Miss,
    /// Resolved: index into the next-hop table.
    Nh(u16),
    /// Descend: index of a chunk at the next level.
    Sub(u32),
}

/// The shared maptable: one row per valid 16-bit cut pattern (plus the
/// all-zero row), each row giving, for every position `p` in `0..16`, the
/// number of heads at positions `0..=p`.
struct MapTable {
    rows: Vec<[u8; 16]>,
    /// pattern → row index, used only during construction.
    index: HashMap<u16, u16>,
}

/// Number of valid 16-bit complete-trie cut patterns, including all-zero.
pub const MAPTABLE_ROWS: usize = 678;

fn maptable() -> &'static MapTable {
    static TABLE: OnceLock<MapTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Valid patterns for a width-w aligned region: either one head at
        // position 0 (the region is a single interval) or the
        // concatenation of two valid width-w/2 patterns.
        fn gen(width: usize) -> Vec<u16> {
            if width == 1 {
                return vec![1];
            }
            let half = gen(width / 2);
            let mut out = vec![1 << (width - 1)]; // head at position 0 only
            for &l in &half {
                for &r in &half {
                    out.push(l << (width / 2) | r);
                }
            }
            out
        }
        let mut patterns = gen(16);
        patterns.push(0); // interval spanning the whole chunk from outside
        patterns.sort_unstable();
        patterns.dedup();
        assert_eq!(patterns.len(), MAPTABLE_ROWS);
        let mut rows = Vec::with_capacity(patterns.len());
        let mut index = HashMap::with_capacity(patterns.len());
        for (i, &pat) in patterns.iter().enumerate() {
            let mut row = [0u8; 16];
            for (p, slot) in row.iter_mut().enumerate() {
                // heads at positions 0..=p; position p maps to bit 15-p.
                *slot = (pat >> (15 - p)).count_ones() as u8;
            }
            rows.push(row);
            index.insert(pat, i as u16);
        }
        MapTable { rows, index }
    })
}

/// A 16-bit codeword: maptable row index (`ten`) and head offset within
/// the surrounding group (`six`). Stored unpacked; modelled as 2 bytes.
#[derive(Debug, Clone, Copy)]
struct Codeword {
    ten: u16,
    six: u16,
}

/// One interleaved group of the coded vector: a base index followed by
/// the four codewords it serves. Resolving any slot reads its codeword
/// *and* its base from this one (modeled 10-byte) record, so the two
/// accesses usually mark a single cache line — the split parallel
/// codeword/base arrays this replaces cost two lines per level.
#[derive(Debug, Clone, Copy)]
struct Group {
    base: u32,
    cws: [Codeword; 4],
}

/// A codeword-compressed bit vector covering `slots` positions, stored
/// as interleaved base+codeword groups. When `with_bases` (level 1 and
/// very dense chunks) each group's base is real; otherwise (dense
/// chunks) bases are implicitly zero and the modeled layout is the
/// packed 2-byte codewords alone.
#[derive(Debug, Clone)]
struct CodedVector {
    groups: Vec<Group>,
    with_bases: bool,
}

impl CodedVector {
    /// Compress `heads` (one bool per slot). `heads.len()` must be a
    /// multiple of 64 (four 16-slot codewords per group).
    fn build(heads: &[bool], with_bases: bool) -> Self {
        assert_eq!(heads.len() % 64, 0);
        let mt = maptable();
        let n_chunks = heads.len() / 16;
        let mut groups: Vec<Group> = Vec::with_capacity(n_chunks / 4);
        let mut total: u32 = 0; // heads before current chunk
        for j in 0..n_chunks {
            if j % 4 == 0 {
                groups.push(Group {
                    base: if with_bases { total } else { 0 },
                    cws: [Codeword { ten: 0, six: 0 }; 4],
                });
            }
            let six = if with_bases {
                total - groups[j / 4].base
            } else {
                total
            };
            let mut pat: u16 = 0;
            for p in 0..16 {
                if heads[j * 16 + p] {
                    pat |= 1 << (15 - p);
                }
            }
            let ten = *mt
                .index
                .get(&pat)
                .unwrap_or_else(|| panic!("invalid cut pattern {pat:#018b}"));
            groups[j / 4].cws[j % 4] = Codeword {
                ten,
                six: six as u16,
            };
            total += pat.count_ones();
        }
        CodedVector { groups, with_bases }
    }

    /// Codeword `j` (each codeword covers 16 slots).
    #[inline]
    fn cw(&self, j: usize) -> Codeword {
        self.groups[j / 4].cws[j % 4]
    }

    /// Base index governing codeword `j`.
    #[inline]
    fn base(&self, j: usize) -> u32 {
        self.groups[j / 4].base
    }

    /// Index of the head governing slot `pos`, tallying the codeword,
    /// base (when present) and maptable reads. The codeword and its base
    /// live in one interleaved group record, so the two accesses usually
    /// mark a single line; the maptable row is a second region. The
    /// maptable is passed in so batch callers resolve the `OnceLock` once
    /// per group instead of once per lane.
    #[inline]
    fn head_index<T: Tally>(&self, mt: &MapTable, pos: usize, region: u32, t: &mut T) -> usize {
        let chunk = pos / 16;
        let within = pos % 16;
        let cw = self.cw(chunk);
        let base = if self.with_bases {
            t.access(2); // codeword + base index
            t.touch(region, (chunk / 4) * GROUP_BYTES, GROUP_BYTES);
            self.base(chunk)
        } else {
            t.read(region, chunk * CW_BYTES, CW_BYTES);
            0
        };
        t.read(REGION_MT, cw.ten as usize * MT_ROW_BYTES + within / 2, 1);
        let count = mt.rows[cw.ten as usize][within] as u32;
        (base + cw.six as u32 + count - 1) as usize
    }

    /// Modelled bytes: 2 per codeword, 2 per base index — interleaving
    /// changes the layout, not the size.
    fn model_bytes(&self) -> usize {
        self.groups.len()
            * if self.with_bases {
                GROUP_BYTES
            } else {
                4 * CW_BYTES
            }
    }
}

/// A level-2 or level-3 chunk in one of the three densities of [7].
#[derive(Debug, Clone)]
enum Chunk {
    /// ≤ 8 heads: fixed arrays of 8 head positions and 8 pointers.
    Sparse { heads: Vec<u8>, ptrs: Vec<Val> },
    /// ≤ 64 heads: 16 codewords whose `six` counts from the chunk start.
    Dense { vec: CodedVector, ptrs: Vec<Val> },
    /// > 64 heads: codewords plus 4 base indexes, as at level 1.
    VeryDense { vec: CodedVector, ptrs: Vec<Val> },
}

impl Chunk {
    fn build(slots: &[Val]) -> Self {
        assert_eq!(slots.len(), CHUNK_SLOTS);
        let heads = head_vector(slots);
        let n_heads = heads.iter().filter(|&&h| h).count();
        let ptrs: Vec<Val> = heads
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h)
            .map(|(p, _)| slots[p])
            .collect();
        if n_heads <= 8 {
            let head_pos: Vec<u8> = heads
                .iter()
                .enumerate()
                .filter(|&(_, &h)| h)
                .map(|(p, _)| p as u8)
                .collect();
            Chunk::Sparse {
                heads: head_pos,
                ptrs,
            }
        } else if n_heads <= 64 {
            Chunk::Dense {
                vec: CodedVector::build(&heads, false),
                ptrs,
            }
        } else {
            Chunk::VeryDense {
                vec: CodedVector::build(&heads, true),
                ptrs,
            }
        }
    }

    /// Resolve the 8 address bits `pos` within this chunk to the governing
    /// pointer, tallying under the chunk's modeled layout (`region` tags
    /// this chunk's block).
    #[inline]
    fn resolve<T: Tally>(&self, mt: &MapTable, pos: usize, region: u32, t: &mut T) -> Val {
        let (ptrs, idx, ptr_base) = self.locate(mt, pos, region, t);
        t.read(region, ptr_base + idx * 2, 2);
        ptrs[idx]
    }

    /// First half of [`Chunk::resolve`]: find the governing pointer's
    /// index without reading it, so the batched walk can prefetch the
    /// pointer and defer the read to a later lane pass. Tallies
    /// everything *except* that deferred pointer read, and returns the
    /// modeled byte offset of the pointer array within this chunk's
    /// block so the caller can tally the read when it performs it.
    #[inline]
    fn locate<T: Tally>(
        &self,
        mt: &MapTable,
        pos: usize,
        region: u32,
        t: &mut T,
    ) -> (&[Val], usize, usize) {
        match self {
            Chunk::Sparse { heads, ptrs } => {
                // One access reads the 8 head bytes, one reads the
                // selected pointer. The governing head is the last one at
                // or before `pos`; a branchless rank beats a binary search
                // here, whose ~3 data-dependent branches mispredict freely
                // on random addresses. Slot 0 is always a head, so the
                // rank is ≥ 1 (`saturating_sub` only guards corruption).
                t.read(region, 0, SPARSE_PTR_BASE);
                let mut rank = 0usize;
                for &h in heads {
                    rank += (h as usize <= pos) as usize;
                }
                (ptrs, rank.saturating_sub(1), SPARSE_PTR_BASE)
            }
            Chunk::Dense { vec, ptrs } => {
                (ptrs, vec.head_index(mt, pos, region, t), DENSE_PTR_BASE)
            }
            Chunk::VeryDense { vec, ptrs } => {
                (ptrs, vec.head_index(mt, pos, region, t), VDENSE_PTR_BASE)
            }
        }
    }

    /// Prefetch the chunk-internal arrays a lookup of `pos` will read.
    /// Reads only the chunk header (which the caller has already
    /// prefetched a stage earlier), so issuing this one lane pass before
    /// [`Chunk::locate`] overlaps the header → inner-array dependent
    /// miss across all lanes of a batch group.
    #[inline]
    fn prefetch_inner(&self, pos: usize) {
        match self {
            Chunk::Sparse { heads, ptrs } => {
                prefetch_slice(heads, 0);
                prefetch_slice(ptrs, 0);
            }
            Chunk::Dense { vec, .. } | Chunk::VeryDense { vec, .. } => {
                // One group record holds the codeword and its base.
                prefetch_slice(&vec.groups, pos / 64);
            }
        }
    }

    /// Modelled bytes (§4): sparse chunks are fixed 8×1 B heads + 8×2 B
    /// pointers; coded chunks are their codeword arrays plus 2 B per
    /// pointer.
    fn model_bytes(&self) -> usize {
        match self {
            Chunk::Sparse { .. } => 8 + 8 * 2,
            Chunk::Dense { vec, ptrs } | Chunk::VeryDense { vec, ptrs } => {
                vec.model_bytes() + ptrs.len() * 2
            }
        }
    }

    fn head_count(&self) -> usize {
        match self {
            Chunk::Sparse { ptrs, .. } => ptrs.len(),
            Chunk::Dense { ptrs, .. } | Chunk::VeryDense { ptrs, .. } => ptrs.len(),
        }
    }
}

/// Compute the head vector of a slot array: the minimal partition of the
/// (power-of-two sized) range into aligned power-of-two intervals of
/// uniform value. `true` marks the first slot of each interval.
fn head_vector(slots: &[Val]) -> Vec<bool> {
    let n = slots.len();
    assert!(n.is_power_of_two());
    let levels = n.trailing_zeros() as usize;
    // pure[k][i]: region i of size 2^k is uniform.
    let mut pure: Vec<Vec<bool>> = Vec::with_capacity(levels + 1);
    pure.push(vec![true; n]);
    for k in 1..=levels {
        let size = 1usize << k;
        let half = size / 2;
        let prev = &pure[k - 1];
        let mut cur = Vec::with_capacity(n >> k);
        for i in 0..(n >> k) {
            let uniform =
                prev[2 * i] && prev[2 * i + 1] && slots[i * size] == slots[i * size + half];
            cur.push(uniform);
        }
        pure.push(cur);
    }
    let mut heads = vec![false; n];
    // Descend from the top, emitting a head at the start of each maximal
    // uniform region.
    let mut stack = vec![(levels, 0usize)];
    while let Some((k, i)) = stack.pop() {
        if pure[k][i] || k == 0 {
            heads[i << k] = true;
        } else {
            stack.push((k - 1, 2 * i));
            stack.push((k - 1, 2 * i + 1));
        }
    }
    heads
}

/// The Lulea forwarding table.
///
/// ```
/// use spal_lpm::{lulea::LuleaTrie, Lpm};
/// use spal_rib::synth;
///
/// let table = synth::small(9);
/// let trie = LuleaTrie::build(&table);
/// let addr = table.entries()[10].prefix.first_addr();
/// assert_eq!(trie.lookup(addr), table.longest_match(addr).map(|e| e.next_hop));
/// // Far smaller than one byte per covered address, and every lookup
/// // costs a handful of memory accesses.
/// assert!(trie.lookup_counted(addr).mem_accesses <= 12);
/// ```
#[derive(Debug, Clone)]
pub struct LuleaTrie {
    l1: CodedVector,
    l1_ptrs: Vec<Val>,
    l2: Vec<Chunk>,
    l3: Vec<Chunk>,
    next_hops: Vec<NextHop>,
    routes: usize,
}

impl LuleaTrie {
    /// Build the three-level structure from a routing table.
    pub fn build(table: &RoutingTable) -> Self {
        let mut next_hops: Vec<NextHop> = Vec::new();
        let mut nh_index: HashMap<NextHop, u16> = HashMap::new();
        let mut intern = |nh: NextHop| -> Val {
            let idx = *nh_index.entry(nh).or_insert_with(|| {
                let i = next_hops.len() as u16;
                next_hops.push(nh);
                i
            });
            Val::Nh(idx)
        };

        // Level-1 slot values from routes of length <= 16, shortest first
        // (so longer routes overwrite inside their ranges).
        let mut slots: Vec<Val> = vec![Val::Miss; L1_SLOTS];
        let mut shallow: Vec<_> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() <= L1_BITS)
            .collect();
        shallow.sort_by_key(|e| e.prefix.len());
        for e in shallow {
            let start = (e.prefix.bits() >> 16) as usize;
            let count = 1usize << (L1_BITS - e.prefix.len());
            let v = intern(e.next_hop);
            slots[start..start + count].fill(v);
        }

        // Group deep routes (len > 16) by their 16-bit base.
        let mut deep: HashMap<usize, Vec<(u32, u8, NextHop)>> = HashMap::new();
        for e in table.entries().iter().filter(|e| e.prefix.len() > L1_BITS) {
            let base = (e.prefix.bits() >> 16) as usize;
            deep.entry(base)
                .or_default()
                .push((e.prefix.bits(), e.prefix.len(), e.next_hop));
        }

        let mut l2: Vec<Chunk> = Vec::new();
        let mut l3: Vec<Chunk> = Vec::new();
        let mut bases: Vec<_> = deep.into_iter().collect();
        bases.sort_by_key(|&(b, _)| b);
        for (base, routes) in bases {
            let default = slots[base];
            let chunk = build_chunk(&routes, 16, default, &mut l3, &mut intern);
            let id = l2.len() as u32;
            l2.push(chunk);
            slots[base] = Val::Sub(id);
        }

        let heads = head_vector(&slots);
        let l1_ptrs: Vec<Val> = heads
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h)
            .map(|(p, _)| slots[p])
            .collect();
        let l1 = CodedVector::build(&heads, true);

        LuleaTrie {
            l1,
            l1_ptrs,
            l2,
            l3,
            next_hops,
            routes: table.len(),
        }
    }

    /// Number of routes the table was built from.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Heads at level 1 (size of the level-1 pointer array).
    pub fn l1_head_count(&self) -> usize {
        self.l1_ptrs.len()
    }

    /// Number of level-2 / level-3 chunks.
    pub fn chunk_counts(&self) -> (usize, usize) {
        (self.l2.len(), self.l3.len())
    }

    /// Total heads (pointer-array entries) across all levels — the main
    /// size driver of the structure.
    pub fn total_heads(&self) -> usize {
        self.l1_ptrs.len()
            + self
                .l2
                .iter()
                .chain(self.l3.iter())
                .map(Chunk::head_count)
                .sum::<usize>()
    }
}

/// Build a level-2 chunk (covering address bits `start..start+8`) for the
/// deep routes under one base, descending into level 3 as needed.
///
/// `routes` are `(bits, len, nh)` with `len > start`; `default` is the
/// value the parent level resolved for this range (the fallback for slots
/// no deeper route covers).
fn build_chunk(
    routes: &[(u32, u8, NextHop)],
    start: u8,
    default: Val,
    l3: &mut Vec<Chunk>,
    intern: &mut impl FnMut(NextHop) -> Val,
) -> Chunk {
    let mut slots = vec![default; CHUNK_SLOTS];
    let end = start + 8;
    // Shallow-first fill of routes that terminate within this stride.
    let mut shallow: Vec<_> = routes.iter().filter(|r| r.1 <= end).collect();
    shallow.sort_by_key(|r| r.1);
    for &&(bits, len, nh) in &shallow {
        // `bits` is canonical, so the low (end - len) slot bits are zero
        // and `first` is already the slot-range base.
        let first = ((bits >> (32 - end as u32)) & 0xFF) as usize;
        let count = 1usize << (end - len);
        let v = intern(nh);
        slots[first..first + count].fill(v);
    }
    // Deeper routes spill into level 3 (only possible when start == 16).
    let mut deeper: HashMap<usize, Vec<(u32, u8, NextHop)>> = HashMap::new();
    for &(bits, len, nh) in routes.iter().filter(|r| r.1 > end) {
        assert!(end < 32, "routes longer than 32 bits are impossible");
        let slot = ((bits >> (32 - end as u32)) & 0xFF) as usize;
        deeper.entry(slot).or_default().push((bits, len, nh));
    }
    let mut deeper: Vec<_> = deeper.into_iter().collect();
    deeper.sort_by_key(|&(s, _)| s);
    for (slot, sub_routes) in deeper {
        let sub_default = slots[slot];
        let chunk = build_chunk(&sub_routes, end, sub_default, l3, intern);
        let id = l3.len() as u32;
        l3.push(chunk);
        slots[slot] = Val::Sub(id);
    }
    Chunk::build(&slots)
}

/// Lanes per interleaved batch group. Lulea's descent is three short
/// *uniform* stages (every lane reads codeword → base → maptable →
/// pointer at the same level), so unlike the pointer-chasing tries —
/// whose lane state must stay in registers across a variable-length
/// walk — it profits from groups wide enough to keep the memory
/// system's full complement of outstanding misses in flight per stage.
const WIDE_LANES: usize = 16;

impl LuleaTrie {
    /// Level 1: the head governing `addr`'s top 16 bits and its pointer.
    #[inline]
    fn level1<T: Tally>(&self, mt: &MapTable, addr: u32, t: &mut T) -> Val {
        let head = self.l1.head_index(mt, (addr >> 16) as usize, REGION_L1, t);
        t.read(REGION_L1PTR, head * 2, 2);
        self.l1_ptrs[head]
    }

    /// Close a walk that ended on `val`, tallying the next-hop table
    /// read on a hit.
    #[inline]
    fn close<T: Tally>(&self, val: Val, t: &mut T) -> T::Out {
        match val {
            Val::Miss => t.done(None),
            Val::Nh(i) => {
                t.read(REGION_NH, i as usize * 4, 4);
                t.done(Some(self.next_hops[i as usize]))
            }
            Val::Sub(_) => unreachable!("level 3 never points deeper"),
        }
    }

    /// One level of the batched descent (`chunks` is `l2` or `l3`,
    /// `shift` selects the 8 address bits), software-pipelined over the
    /// lanes still pointing into this level in three passes: read each
    /// lane's chunk header (prefetched when the pointer into it was
    /// written) and prefetch the chunk-internal arrays; locate the
    /// governing pointers and prefetch them; read the pointers and
    /// immediately prefetch whatever they target next (a chunk header
    /// in `next`, or a next-hop entry). Each pass issues every active
    /// lane's miss before any lane needs its result, so the level costs
    /// one memory latency for the whole group instead of a serial chain
    /// per lane.
    /// Returns how many lanes still hold a [`Val::Sub`] afterwards, so
    /// the caller can skip the next level's passes when none descend.
    #[allow(clippy::too_many_arguments)] // the args are the pipeline's lane state
    fn descend_group<T: Tally, const N: usize>(
        &self,
        mt: &MapTable,
        chunks: &[Chunk],
        next: Option<&[Chunk]>,
        region_tag: u32,
        addrs: &[u32; N],
        val: &mut [Val; N],
        t: &mut [T; N],
        shift: u32,
    ) -> usize {
        let mut cur: [Option<(&Chunk, u32)>; N] = [None; N];
        for l in 0..N {
            if let Val::Sub(id) = val[l] {
                let chunk = &chunks[id as usize];
                chunk.prefetch_inner(((addrs[l] >> shift) & 0xFF) as usize);
                cur[l] = Some((chunk, region_tag | id));
            }
        }
        // (pointer array, index, pointer base offset, region tag)
        type Located<'a> = (&'a [Val], usize, usize, u32);
        let mut located: [Option<Located>; N] = [None; N];
        for l in 0..N {
            if let Some((chunk, region)) = cur[l] {
                let pos = ((addrs[l] >> shift) & 0xFF) as usize;
                let (ptrs, idx, ptr_base) = chunk.locate(mt, pos, region, &mut t[l]);
                prefetch_slice(ptrs, idx);
                located[l] = Some((ptrs, idx, ptr_base, region));
            }
        }
        let mut descending = 0;
        for l in 0..N {
            if let Some((ptrs, idx, ptr_base, region)) = located[l] {
                t[l].read(region, ptr_base + idx * 2, 2);
                let v = ptrs[idx];
                val[l] = v;
                match v {
                    Val::Sub(id) => {
                        descending += 1;
                        if let Some(next) = next {
                            prefetch_slice(next, id as usize);
                        }
                    }
                    Val::Nh(i) => prefetch_slice(&self.next_hops, i as usize),
                    Val::Miss => {}
                }
            }
        }
        descending
    }
}

/// Per-lane walk state: the value the last level resolved to, and
/// whether a [`Val::Sub`] in it names a level-3 chunk (else level 2).
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    val: Val,
    l3: bool,
}

impl Walk for LuleaTrie {
    type Addr = u32;
    type Lane = Lane;

    #[inline]
    fn start<T: Tally>(&self, addr: u32, t: &mut T) -> Lane {
        Lane {
            val: self.level1(maptable(), addr, t),
            l3: false,
        }
    }

    /// One level: resolve the chunk a [`Val::Sub`] names.
    #[inline]
    fn step<T: Tally>(&self, addr: u32, lane: &mut Lane, t: &mut T) -> bool {
        let Val::Sub(id) = lane.val else {
            return false;
        };
        let (chunks, tag, shift) = if lane.l3 {
            (&self.l3, REGION_L3_TAG, 0)
        } else {
            (&self.l2, REGION_L2_TAG, 8)
        };
        let pos = ((addr >> shift) & 0xFF) as usize;
        lane.val = chunks[id as usize].resolve(maptable(), pos, tag | id, t);
        lane.l3 = true;
        matches!(lane.val, Val::Sub(_))
    }

    #[inline]
    fn finish<T: Tally>(&self, _addr: u32, lane: &Lane, t: &mut T) -> T::Out {
        self.close(lane.val, t)
    }

    /// Staged level by level: all lanes read their level-1 codewords
    /// (prefetched up front), then all lanes descend into level 2, then
    /// level 3, with the next level's chunk headers prefetched between
    /// stages. Within a stage the lanes' reads are independent, so they
    /// overlap where the scalar walk would serialize one lookup's
    /// codeword → base → maptable → pointer chain after another's.
    ///
    /// Kept over the generic lane driver, which cannot split a level into
    /// passes: with a chunk-header prefetch hint it ran `batch32` at about
    /// half this rate on both lookup tables (EXPERIMENTS E42 §3).
    fn group<T: Tally, const N: usize>(
        &self,
        addrs: &[u32; N],
        t: &mut [T; N],
        out: &mut [T::Out; N],
    ) {
        for &a in addrs {
            prefetch_slice(&self.l1.groups, (a >> 16) as usize / 64);
        }
        let mt = maptable();
        let mut val = [Val::Miss; N];
        let mut descending = 0;
        for l in 0..N {
            val[l] = self.level1(mt, addrs[l], &mut t[l]);
            match val[l] {
                Val::Sub(id) => {
                    descending += 1;
                    prefetch_slice(&self.l2, id as usize);
                }
                Val::Nh(i) => prefetch_slice(&self.next_hops, i as usize),
                Val::Miss => {}
            }
        }
        if descending > 0 {
            let (l2, l3) = (&self.l2, &self.l3);
            let deeper = self.descend_group(mt, l2, Some(l3), REGION_L2_TAG, addrs, &mut val, t, 8);
            if deeper > 0 {
                self.descend_group(mt, l3, None, REGION_L3_TAG, addrs, &mut val, t, 0);
            }
        }
        for l in 0..N {
            out[l] = self.close(val[l], &mut t[l]);
        }
    }
}

impl Lpm for LuleaTrie {
    walk_lookups!(u32, WIDE_LANES);

    fn storage_bytes(&self) -> usize {
        let maptable_bytes = MAPTABLE_ROWS * 16 / 2; // 4-bit entries
        let l1 = self.l1.model_bytes() + self.l1_ptrs.len() * 2;
        let chunks: usize = self
            .l2
            .iter()
            .chain(self.l3.iter())
            .map(Chunk::model_bytes)
            .sum();
        let nh_table = self.next_hops.len() * 4;
        maptable_bytes + l1 + chunks + nh_table
    }

    fn name(&self) -> &'static str {
        "Lulea"
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
        let trie = LuleaTrie::build(rt);
        for addr in addrs {
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn maptable_has_678_rows() {
        let mt = maptable();
        assert_eq!(mt.rows.len(), MAPTABLE_ROWS);
        // The all-zero row exists and counts nothing.
        let zero_row = mt.rows[*mt.index.get(&0).unwrap() as usize];
        assert_eq!(zero_row, [0u8; 16]);
        // The "single interval" row counts one head everywhere.
        let one = mt.rows[*mt.index.get(&0x8000).unwrap() as usize];
        assert_eq!(one, [1u8; 16]);
    }

    #[test]
    fn head_vector_minimal_partition() {
        // 8 slots: [A A A A B B C C] → heads at 0, 4, 6.
        let a = Val::Nh(0);
        let b = Val::Nh(1);
        let c = Val::Nh(2);
        let slots = vec![a, a, a, a, b, b, c, c];
        let heads = head_vector(&slots);
        assert_eq!(
            heads,
            vec![true, false, false, false, true, false, true, false]
        );
    }

    #[test]
    fn head_vector_alignment_constraint() {
        // [A B B B]: the run of Bs is NOT aligned, so it must split:
        // heads at 0, 1, 2 (positions 2-3 merge).
        let a = Val::Nh(0);
        let b = Val::Nh(1);
        let heads = head_vector(&[a, b, b, b]);
        assert_eq!(heads, vec![true, true, true, false]);
    }

    #[test]
    fn head_vector_uniform() {
        let heads = head_vector(&vec![Val::Miss; 64]);
        let mut expect = vec![false; 64];
        expect[0] = true;
        assert_eq!(heads, expect);
    }

    #[test]
    fn empty_table() {
        let rt = RoutingTable::new();
        let trie = LuleaTrie::build(&rt);
        assert_eq!(trie.lookup(0), None);
        assert_eq!(trie.lookup(u32::MAX), None);
        assert_eq!(trie.l1_head_count(), 1);
    }

    #[test]
    fn default_route_only() {
        let rt = table(&[("0.0.0.0/0", 5)]);
        let trie = LuleaTrie::build(&rt);
        assert_eq!(trie.lookup(0), Some(NextHop(5)));
        assert_eq!(trie.lookup(u32::MAX), Some(NextHop(5)));
    }

    #[test]
    fn shallow_routes_resolve_at_level_1() {
        let rt = table(&[("10.0.0.0/8", 1), ("10.128.0.0/9", 2)]);
        let trie = LuleaTrie::build(&rt);
        let c = trie.lookup_counted(0x0A00_0001);
        assert_eq!(c.next_hop, Some(NextHop(1)));
        // codeword + base + maptable + pointer + next-hop = 5 accesses.
        assert_eq!(c.mem_accesses, 5);
        assert_eq!(trie.lookup(0x0A80_0001), Some(NextHop(2)));
        assert_eq!(trie.chunk_counts(), (0, 0));
    }

    #[test]
    fn deep_routes_descend() {
        let rt = table(&[
            ("10.0.0.0/8", 1),
            ("10.1.2.0/24", 2),
            ("10.1.2.128/25", 3),
            ("10.1.2.3/32", 4),
        ]);
        let trie = LuleaTrie::build(&rt);
        assert_eq!(trie.lookup(0x0A01_0203), Some(NextHop(4))); // /32
        assert_eq!(trie.lookup(0x0A01_0204), Some(NextHop(2))); // /24
        assert_eq!(trie.lookup(0x0A01_0280), Some(NextHop(3))); // /25
        assert_eq!(trie.lookup(0x0A01_0300), Some(NextHop(1))); // /8 fallback
        assert_eq!(trie.lookup(0x0B00_0000), None);
        let (l2, l3) = trie.chunk_counts();
        assert_eq!(l2, 1);
        assert_eq!(l3, 1);
        // Deep lookup costs more accesses than a level-1 hit.
        assert!(trie.lookup_counted(0x0A01_0203).mem_accesses > 5);
    }

    #[test]
    fn intra_chunk_fallback_to_parent_value() {
        // An address inside the chunk but outside any deep route must
        // fall back to the level-1 result for that 16-bit base.
        let rt = table(&[("10.1.0.0/16", 7), ("10.1.200.0/24", 8)]);
        let trie = LuleaTrie::build(&rt);
        assert_eq!(trie.lookup(0x0A01_C801), Some(NextHop(8)));
        assert_eq!(trie.lookup(0x0A01_0101), Some(NextHop(7)));
    }

    #[test]
    fn miss_within_chunk() {
        // Deep routes without any shallow cover: non-covered slots miss.
        let rt = table(&[("10.1.2.0/24", 1)]);
        let trie = LuleaTrie::build(&rt);
        assert_eq!(trie.lookup(0x0A01_0200), Some(NextHop(1)));
        assert_eq!(trie.lookup(0x0A01_0300), None);
        assert_eq!(trie.lookup(0x0A02_0000), None);
    }

    #[test]
    fn agrees_with_oracle_on_synthetic_table() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(17);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut addrs: Vec<u32> = (0..300).map(|_| rng.gen()).collect();
        for e in rt.entries().iter().step_by(5) {
            addrs.push(e.prefix.first_addr());
            addrs.push(e.prefix.last_addr());
        }
        assert_agrees(&rt, addrs.into_iter());
    }

    #[test]
    fn chunk_density_variants() {
        // Force a dense chunk: 32 alternating /24-ish routes under one /16.
        let mut entries = Vec::new();
        for i in 0..32u16 {
            entries.push(RouteEntry {
                prefix: format!("10.1.{}.0/24", i * 8).parse().unwrap(),
                next_hop: NextHop(i % 4),
            });
        }
        let rt = RoutingTable::from_entries(entries);
        let trie = LuleaTrie::build(&rt);
        for i in 0..32u32 {
            let addr = 0x0A01_0000 | (i * 8) << 8 | 1;
            assert_eq!(
                trie.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop)
            );
        }
        // Force a very dense chunk: alternate values on odd/even /24s.
        let mut entries = Vec::new();
        for i in 0..=255u16 {
            entries.push(RouteEntry {
                prefix: format!("10.2.{i}.0/24").parse().unwrap(),
                next_hop: NextHop(i % 2),
            });
        }
        let rt = RoutingTable::from_entries(entries);
        let trie = LuleaTrie::build(&rt);
        for i in (0..=255u32).step_by(17) {
            let addr = 0x0A02_0000 | i << 8 | 3;
            assert_eq!(trie.lookup(addr), Some(NextHop((i % 2) as u16)));
        }
    }

    #[test]
    fn level3_density_variants() {
        // Very dense at level 3: alternate next hops across all 256 /32s
        // under one /24 (128 + 128 heads); plus sparse level-3 chunks.
        let mut entries = Vec::new();
        for i in 0..=255u16 {
            entries.push(RouteEntry {
                prefix: format!("10.9.9.{i}/32").parse().unwrap(),
                next_hop: NextHop(i % 2),
            });
        }
        entries.push(RouteEntry {
            prefix: "10.9.8.7/32".parse().unwrap(),
            next_hop: NextHop(7),
        });
        entries.push(RouteEntry {
            prefix: "10.9.0.0/16".parse().unwrap(),
            next_hop: NextHop(9),
        });
        let rt = RoutingTable::from_entries(entries);
        let trie = LuleaTrie::build(&rt);
        for i in (0..=255u32).step_by(13) {
            assert_eq!(
                trie.lookup(0x0A09_0900 | i),
                Some(NextHop((i % 2) as u16)),
                "host {i}"
            );
        }
        assert_eq!(trie.lookup(0x0A09_0807), Some(NextHop(7)));
        assert_eq!(trie.lookup(0x0A09_0806), Some(NextHop(9))); // /16 fallback
        let (l2, l3) = trie.chunk_counts();
        assert_eq!(l2, 1);
        assert_eq!(l3, 2); // one very dense, one sparse
    }

    #[test]
    fn storage_well_under_binary_trie() {
        use crate::binary::BinaryTrie;
        // Small table: the fixed level-1/maptable floor dominates, but
        // Lulea must still undercut the binary trie.
        let rt = synth::small(23);
        let lulea = LuleaTrie::build(&rt);
        let binary = BinaryTrie::build(&rt);
        assert!(
            lulea.storage_bytes() < binary.storage_bytes(),
            "lulea {} vs binary {}",
            lulea.storage_bytes(),
            binary.storage_bytes()
        );
        // Backbone-scale table: compression pays off by a wide margin.
        let rt = synth::synthesize(&synth::SynthConfig::sized(20_000, 23));
        let lulea = LuleaTrie::build(&rt);
        let binary = BinaryTrie::build(&rt);
        assert!(
            lulea.storage_bytes() * 3 < binary.storage_bytes(),
            "lulea {} vs binary {}",
            lulea.storage_bytes(),
            binary.storage_bytes()
        );
        assert!(lulea.total_heads() > 0);
    }

    #[test]
    fn access_count_in_paper_band() {
        use rand::{Rng, SeedableRng};
        let rt = synth::synthesize(&synth::SynthConfig::sized(20_000, 3));
        let trie = LuleaTrie::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Addresses drawn inside random routes (covered traffic).
        let addrs: Vec<u32> = (0..5_000)
            .map(|_| {
                let e = rt.entries()[rng.gen_range(0..rt.len())];
                let span = e.prefix.size();
                e.prefix.first_addr() + (rng.gen::<u64>() % span) as u32
            })
            .collect();
        let mean = crate::mean_accesses(&trie, &addrs);
        // §5.1: ~6.2-6.6 accesses per lookup for backbone tables.
        assert!((4.5..9.0).contains(&mean), "mean accesses {mean}");
    }
}
