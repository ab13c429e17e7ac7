//! Poptrie-class cache-line-packed multibit trie — after Asai & Ohara,
//! "Poptrie: A Compressed Trie with Population Count for Fast and
//! Scalable Software IP Routing Table Lookup" (SIGCOMM 2015).
//!
//! The structure the paper's idea reduces to on this repo's workloads:
//!
//! * A **direct-indexed 16-bit root array** (2^16 × 4 B): one tagged
//!   word per 16-bit stem, resolving shallow routes in a single read or
//!   pointing at a node tree for stems with deeper routes.
//! * **8-bit-stride nodes** below the root (levels cover address bits
//!   16..24 and 24..32), packed so *one node access is one 64-byte
//!   cache line*. Nodes come in four classes, chosen per node by run
//!   count and promoted to the widest sibling class so a parent can
//!   address children as `base0 + rank × class_slots`:
//!   - `S32` — ≤ 6 value runs, 32 bytes (half a line; two S32 nodes
//!     pack per line),
//!   - `S64` — ≤ 14 runs, 64 bytes, line-aligned,
//!   - `DLEAF` — childless with > 14 runs: a 256-bit *leafvec* bitmap
//!     ranked with `u64::count_ones`, leaf values spilled to a global
//!     leaf array (64 B, line-aligned),
//!   - `DENSE` — > 14 runs with children: 256-bit *vector* (child) and
//!     *leafvec* (leaf-head) bitmaps filling exactly one line, plus a
//!     second line holding the child/leaf bases and up to 26 inline
//!     leaf values.
//! * **Next hops in the leaves**: a leaf word is the next hop + 1
//!   (0 = no route), as SHIP's are, so a hit reads no side table.
//!
//! Honest deviation from the SIGCOMM paper (see DESIGN.md): Poptrie
//! proper uses 6-bit strides and uniform 64-way nodes. On this repo's
//! 600 k synthetic stress table the scattered /24s create ~361 k
//! distinct 22-bit stems, so literal 64-way nodes cost ~27 MB — 4× the
//! Lulea structure they are meant to beat. The 16/8/8 cut with adaptive
//! line-packed node classes keeps the paper's mechanisms (direct root,
//! bitmap + popcount rank, leaf/vector split, run-compressed leaves) while
//! staying *below* Lulea's storage.
//!
//! Because every node access is by construction one line (two for
//! `DENSE`), the engine's `mem_accesses` metric counts line-grain
//! reads, and `lines_touched == mem_accesses` up to incidental packing
//! (two S32 nodes sharing a line). A typical deep lookup touches root +
//! node + node = 3 lines; a shallow one 1.

use crate::{hop_of, leaf_of, prefetch_slice, CountedLookup, DeltaStats, Lpm, Tally, Walk};
use spal_rib::{NextHop, Prefix, RouteEntry, RoutingTable};

/// Root-entry tags (top 2 bits of the 32-bit entry).
const TAG_LEAF: u32 = 0;
const TAG_SPARSE: u32 = 1;
const TAG_DLEAF: u32 = 2;
const TAG_DENSE: u32 = 3;
/// Low 30 bits of a root entry: a leaf value or an arena slot index.
const PAYLOAD_MASK: u32 = 0x3FFF_FFFF;

/// Node classes, ordered so `max` over siblings picks the widest.
const CLASS_S32: u8 = 0;
const CLASS_S64: u8 = 1;
const CLASS_DLEAF: u8 = 2;
const CLASS_DENSE: u8 = 3;

/// Arena slots (32 bytes = 8 words) per node class.
const CLASS_SLOTS: [usize; 4] = [1, 2, 2, 4];
/// Words per arena slot.
const SLOT_WORDS: usize = 8;
/// Bytes per arena slot.
const SLOT_BYTES: usize = 32;

/// Max runs encodable by each sparse class (one 4-byte run word each).
const S32_MAX_RUNS: usize = 6;
const S64_MAX_RUNS: usize = 14;
/// Leaf values a DENSE node's second line holds inline (13 words × 2).
const DENSE_INLINE_MAX: usize = 26;

/// A leaf word: the next hop + 1, 0 = no route ([`leaf_of`]).
type LeafVal = u16;
/// A run word is `start | value << 8`, the value a leaf word or, with
/// this bit set, a child rank.
const RUN_CHILD: u32 = 1 << 24;

// Line-accounting regions (see [`crate::LineSet`]).
const REGION_ROOT: u32 = 0;
const REGION_ARENA: u32 = 1;
const REGION_LEAVES: u32 = 2;

/// Interleaved lanes for the batched walk — Lulea-width: the descent is
/// short and level-synchronous (every lane is at the same depth), so
/// wide groups keep a full complement of outstanding misses in flight.
const WIDE_LANES: usize = 16;

/// Patch guardrails: more dirty 16-bit stems than this approaches a
/// rebuild's work, and an arena more than a third garbage has drifted
/// too far from the fresh-build storage model — decline and let the
/// caller rebuild.
const MAX_DIRTY_STEMS: usize = 4096;
const MAX_GARBAGE_FRACTION: f64 = 1.0 / 3.0;

/// Tag a child class for the descent loop.
fn tag_of_class(class: u8) -> u32 {
    match class {
        CLASS_S32 | CLASS_S64 => TAG_SPARSE,
        CLASS_DLEAF => TAG_DLEAF,
        _ => TAG_DENSE,
    }
}

/// Popcount of bitmap bits `0..=pos` (8 × u32 words, 256 bits).
#[inline]
fn rank_incl(words: &[u32], pos: usize) -> u32 {
    let w = pos / 32;
    let mut count = 0;
    for &word in &words[..w] {
        count += word.count_ones();
    }
    let mask = ((1u64 << (pos % 32 + 1)) - 1) as u32;
    count + (words[w] & mask).count_ones()
}

/// Popcount of bitmap bits `0..pos` (strictly before).
#[inline]
fn rank_excl(words: &[u32], pos: usize) -> u32 {
    let w = pos / 32;
    let mut count = 0;
    for &word in &words[..w] {
        count += word.count_ones();
    }
    let mask = (1u32 << (pos % 32)) - 1;
    count + (words[w] & mask).count_ones()
}

/// Whether bitmap bit `pos` is set.
#[inline]
fn bit(words: &[u32], pos: usize) -> bool {
    words[pos / 32] >> (pos % 32) & 1 == 1
}

/// One value run in a node's 256-slot span.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Run {
    Leaf(LeafVal),
    Child(u16),
}

/// Uncompressed intermediate form of one node: 256 painted leaf values
/// plus the child specs that override individual slots.
struct Spec {
    leaf_slots: Box<[LeafVal; 256]>,
    /// `(slot, child)` pairs, sorted by slot; the child's rank is its
    /// index here.
    children: Vec<(u8, Spec)>,
}

impl Spec {
    /// The run list: child slots are singleton runs; a leaf run also
    /// breaks after a child even when the value continues, so bitmap
    /// ranks stay monotone.
    fn runs(&self) -> Vec<(u8, Run)> {
        let mut child_at = [false; 256];
        for &(pos, _) in &self.children {
            child_at[pos as usize] = true;
        }
        let mut out = Vec::new();
        let mut rank: u16 = 0;
        let mut prev: Option<LeafVal> = None;
        for (pos, &is_child) in child_at.iter().enumerate() {
            if is_child {
                out.push((pos as u8, Run::Child(rank)));
                rank += 1;
                prev = None;
            } else {
                let v = self.leaf_slots[pos];
                if prev != Some(v) {
                    out.push((pos as u8, Run::Leaf(v)));
                    prev = Some(v);
                }
            }
        }
        out
    }

    /// Smallest class this node fits on its own (siblings may promote).
    fn class(&self) -> u8 {
        let runs = self.runs().len();
        if runs <= S32_MAX_RUNS {
            CLASS_S32
        } else if runs <= S64_MAX_RUNS {
            CLASS_S64
        } else if self.children.is_empty() {
            CLASS_DLEAF
        } else {
            CLASS_DENSE
        }
    }
}

/// One route as the build encodes it: `(bits, len, leaf)`.
type BuildRoute = (u32, u8, LeafVal);

/// The routes of `entries` longer than /16, as the build encodes them.
fn deep_routes(entries: &[RouteEntry]) -> Vec<BuildRoute> {
    entries
        .iter()
        .filter(|e| e.prefix.len() > 16)
        .map(|e| (e.prefix.bits(), e.prefix.len(), leaf_of(e.next_hop)))
        .collect()
}

/// Build the spec for the 8 address bits `start..start+8` from the
/// routes under one stem. `routes` are sorted, with `len > start`;
/// `default` is the value the parent resolved for the whole range.
fn build_spec(routes: &[BuildRoute], start: u8, default: LeafVal) -> Spec {
    let mut leaf_slots = Box::new([default; 256]);
    let end = start + 8;
    let slot_of = |bits: u32| ((bits >> (32 - end as u32)) & 0xFF) as usize;
    let mut shallow: Vec<_> = routes.iter().filter(|r| r.1 <= end).collect();
    shallow.sort_by_key(|r| r.1);
    for &&(bits, len, v) in &shallow {
        // Canonical prefixes: the low slot bits are zero, so `first` is
        // the slot-range base.
        let first = slot_of(bits);
        let count = 1usize << (end - len);
        leaf_slots[first..first + count].fill(v);
    }
    // Sorted routes that agree on bits `0..start` come grouped by slot.
    let deeper: Vec<BuildRoute> = routes.iter().filter(|r| r.1 > end).copied().collect();
    let children = deeper
        .chunk_by(|a, b| slot_of(a.0) == slot_of(b.0))
        .map(|sub| {
            let slot = slot_of(sub[0].0);
            (slot as u8, build_spec(sub, end, leaf_slots[slot]))
        })
        .collect();
    Spec {
        leaf_slots,
        children,
    }
}

/// Append-only encoder for the node arena and the spilled-leaf array.
struct Builder<'a> {
    words: &'a mut Vec<u32>,
    leaves: &'a mut Vec<LeafVal>,
    /// Half-line slot skipped by the last line-aligned allocation,
    /// recycled by the next single-slot (S32) node so alignment costs
    /// nothing amortized.
    spare: Option<u32>,
}

impl Builder<'_> {
    /// Allocate `slots` zeroed arena slots, line-aligning when `align`
    /// (classes spanning a full 64-byte line must not straddle one).
    fn alloc(&mut self, slots: usize, align: bool) -> u32 {
        if !align && slots == 1 {
            if let Some(s) = self.spare.take() {
                return s;
            }
        }
        let mut slot = self.words.len() / SLOT_WORDS;
        if align && slot % 2 == 1 {
            self.words.resize(self.words.len() + SLOT_WORDS, 0);
            self.spare = Some(slot as u32);
            slot += 1;
        }
        self.words.resize(self.words.len() + slots * SLOT_WORDS, 0);
        slot as u32
    }

    /// Encode `spec` as a fresh stem tree, returning its root entry
    /// and the arena slots the tree owns.
    fn encode(&mut self, spec: &Spec) -> (u32, u16) {
        let class = spec.class();
        let slot = self.alloc(CLASS_SLOTS[class as usize], class != CLASS_S32);
        let owned = self.encode_into(spec, class, slot);
        let owned = u16::try_from(owned).expect("a stem's tree is at most 257 nodes of 4 slots");
        (tag_of_class(class) << 30 | slot, owned)
    }

    /// Encode `spec` at a preallocated `slot` as `class` (its own class
    /// or a sibling-promoted wider one). Children are encoded first, as
    /// one contiguous block of the widest child class, so the node can
    /// address them by rank. Returns the slots the node and its
    /// descendants own — what a patch orphans when it re-encodes the
    /// stem (alignment padding and recycled spare halves are not
    /// counted).
    fn encode_into(&mut self, spec: &Spec, class: u8, slot: u32) -> usize {
        let mut owned = CLASS_SLOTS[class as usize];
        let (base0, child_class) = if spec.children.is_empty() {
            (0, CLASS_S32)
        } else {
            let mut cc = spec
                .children
                .iter()
                .map(|(_, c)| c.class())
                .max()
                .expect("non-empty");
            // DLEAF holds no children: a childless sibling promoted next
            // to one that descends must go all the way to DENSE.
            if cc == CLASS_DLEAF && spec.children.iter().any(|(_, c)| !c.children.is_empty()) {
                cc = CLASS_DENSE;
            }
            let stride = CLASS_SLOTS[cc as usize];
            let base = self.alloc(spec.children.len() * stride, cc != CLASS_S32);
            for (rank, (_, child)) in spec.children.iter().enumerate() {
                owned += self.encode_into(child, cc, base + (rank * stride) as u32);
            }
            (base, cc)
        };
        let runs = spec.runs();
        let w = slot as usize * SLOT_WORDS;
        match class {
            CLASS_S32 | CLASS_S64 => {
                let cap = if class == CLASS_S32 {
                    S32_MAX_RUNS
                } else {
                    S64_MAX_RUNS
                };
                assert!(runs.len() <= cap, "sparse node overflow");
                self.words[w] =
                    class as u32 | (runs.len() as u32) << 8 | (child_class as u32) << 16;
                self.words[w + 1] = base0;
                for (i, &(start, run)) in runs.iter().enumerate() {
                    let val = match run {
                        Run::Leaf(v) => u32::from(v) << 8,
                        Run::Child(rank) => RUN_CHILD | u32::from(rank) << 8,
                    };
                    self.words[w + 2 + i] = start as u32 | val;
                }
            }
            CLASS_DLEAF => {
                assert!(spec.children.is_empty(), "DLEAF node with children");
                self.words[w] = class as u32;
                self.words[w + 1] = self.leaves.len() as u32;
                for &(start, run) in &runs {
                    let Run::Leaf(v) = run else {
                        unreachable!("childless node has only leaf runs")
                    };
                    self.words[w + 2 + start as usize / 32] |= 1 << (start % 32);
                    self.leaves.push(v);
                }
            }
            _ => {
                // DENSE: line 0 = vector + leafvec bitmaps, line 1 =
                // bases, header and inline leaves.
                let mut vals: Vec<LeafVal> = Vec::new();
                for &(start, run) in &runs {
                    match run {
                        Run::Child(_) => {
                            self.words[w + start as usize / 32] |= 1 << (start % 32);
                        }
                        Run::Leaf(v) => {
                            self.words[w + 8 + start as usize / 32] |= 1 << (start % 32);
                            vals.push(v);
                        }
                    }
                }
                let inline = vals.len() <= DENSE_INLINE_MAX;
                self.words[w + 16] = base0;
                self.words[w + 18] = class as u32
                    | (child_class as u32) << 8
                    | (inline as u32) << 10
                    | (vals.len() as u32) << 16;
                if inline {
                    for (j, &v) in vals.iter().enumerate() {
                        self.words[w + 19 + j / 2] |= (v as u32) << (16 * (j % 2));
                    }
                } else {
                    self.words[w + 17] = self.leaves.len() as u32;
                    self.leaves.extend_from_slice(&vals);
                }
            }
        }
        owned
    }
}

/// Outcome of resolving one 8-bit stride at a node.
enum Step {
    /// Terminal: a leaf value read from the node itself.
    Leaf(LeafVal),
    /// Terminal: the leaf lives in the spilled-leaf array at this index.
    Spill(usize),
    /// Descend into the child node at `slot` with kind `tag`.
    Child { slot: u32, tag: u32 },
}

/// The Poptrie forwarding table.
///
/// ```
/// use spal_lpm::{poptrie::Poptrie, Lpm};
/// use spal_rib::synth;
///
/// let table = synth::small(9);
/// let trie = Poptrie::build(&table);
/// let addr = table.entries()[10].prefix.first_addr();
/// assert_eq!(trie.lookup(addr), table.longest_match(addr).map(|e| e.next_hop));
/// // A lookup touches at most root + two dense nodes (two lines each)
/// // + spilled leaf.
/// assert!(trie.lookup_counted(addr).lines_touched <= 6);
/// ```
#[derive(Debug, Clone)]
pub struct Poptrie {
    /// Direct-indexed 16-bit root: one tagged word per stem.
    root: Vec<u32>,
    /// Node arena: 8-word (32-byte) slots; wide classes line-aligned.
    words: Vec<u32>,
    /// Spilled leaf values (DLEAF nodes and non-inline DENSE nodes).
    leaves: Vec<LeafVal>,
    routes: usize,
    /// Arena slots each stem's tree owns (0 for a leaf stem): what a
    /// patch orphans when it re-encodes the stem. Control-plane state
    /// for [`Lpm::apply_delta`], not counted as lookup SRAM; a stem's
    /// tree is at most 257 nodes of at most 4 slots, so `u16` holds it.
    stem_slots: Vec<u16>,
    /// Arena slots orphaned by patches (patching appends fresh trees).
    garbage_slots: usize,
}

impl Poptrie {
    /// Build from a routing table.
    pub fn build(table: &RoutingTable) -> Self {
        // Paint the 2^16 root leaf values from routes of length ≤ 16,
        // shortest first so longer routes overwrite inside their range.
        let mut root: Vec<u32> = vec![0; 1 << 16];
        let mut shallow: Vec<_> = table
            .entries()
            .iter()
            .filter(|e| e.prefix.len() <= 16)
            .collect();
        shallow.sort_by_key(|e| e.prefix.len());
        for e in shallow {
            let start = (e.prefix.bits() >> 16) as usize;
            let count = 1usize << (16 - e.prefix.len());
            root[start..start + count].fill(u32::from(leaf_of(e.next_hop)));
        }

        let mut words = Vec::new();
        let mut leaves = Vec::new();
        let mut stem_slots = vec![0; 1 << 16];
        let mut builder = Builder {
            words: &mut words,
            leaves: &mut leaves,
            spare: None,
        };
        // One tree per stem over its deep routes. The table is sorted by
        // (bits, len), so each stem's routes are a contiguous run.
        for run in table
            .entries()
            .chunk_by(|a, b| a.prefix.bits() >> 16 == b.prefix.bits() >> 16)
        {
            let routes = deep_routes(run);
            if routes.is_empty() {
                continue;
            }
            let stem = (routes[0].0 >> 16) as usize;
            let spec = build_spec(&routes, 16, root[stem] as LeafVal);
            (root[stem], stem_slots[stem]) = builder.encode(&spec);
        }

        Poptrie {
            root,
            words,
            leaves,
            routes: table.len(),
            stem_slots,
            garbage_slots: 0,
        }
    }

    /// Number of routes the table was built from.
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Resolve one 8-bit stride (`pos`) at the node `(tag, slot)`,
    /// tallying one line-grain access per sparse or DLEAF node and two
    /// for DENSE.
    #[inline]
    fn node_step<T: Tally>(&self, tag: u32, slot: u32, pos: usize, t: &mut T) -> Step {
        let w = slot as usize * SLOT_WORDS;
        match tag {
            TAG_SPARSE => {
                let header = self.words[w];
                let slots = if header & 0xFF == CLASS_S32 as u32 {
                    1
                } else {
                    2
                };
                t.read(REGION_ARENA, slot as usize * SLOT_BYTES, slots * SLOT_BYTES);
                let count = (header >> 8 & 0xFF) as usize;
                // Last run starting at or before `pos`; run 0 starts at
                // slot 0, so the scan always lands.
                let mut run = 0;
                for i in 0..count {
                    let word = self.words[w + 2 + i];
                    if (word & 0xFF) as usize > pos {
                        break;
                    }
                    run = word;
                }
                let val = (run >> 8) as u16;
                if run & RUN_CHILD == 0 {
                    Step::Leaf(val)
                } else {
                    let cc = (header >> 16 & 0x3) as u8;
                    let rank = val as usize;
                    Step::Child {
                        slot: self.words[w + 1] + (rank * CLASS_SLOTS[cc as usize]) as u32,
                        tag: tag_of_class(cc),
                    }
                }
            }
            TAG_DLEAF => {
                t.read(REGION_ARENA, slot as usize * SLOT_BYTES, 2 * SLOT_BYTES);
                let rank = rank_incl(&self.words[w + 2..w + 10], pos);
                Step::Spill(self.words[w + 1] as usize + rank as usize - 1)
            }
            _ => {
                t.access(2);
                t.touch(REGION_ARENA, slot as usize * SLOT_BYTES, 4 * SLOT_BYTES);
                if bit(&self.words[w..w + 8], pos) {
                    let header = self.words[w + 18];
                    let cc = (header >> 8 & 0x3) as u8;
                    let rank = rank_excl(&self.words[w..w + 8], pos) as usize;
                    Step::Child {
                        slot: self.words[w + 16] + (rank * CLASS_SLOTS[cc as usize]) as u32,
                        tag: tag_of_class(cc),
                    }
                } else {
                    let header = self.words[w + 18];
                    let rank = rank_incl(&self.words[w + 8..w + 16], pos) as usize;
                    if header >> 10 & 1 == 1 {
                        let j = rank - 1;
                        Step::Leaf((self.words[w + 19 + j / 2] >> (16 * (j % 2))) as u16)
                    } else {
                        Step::Spill(self.words[w + 17] as usize + rank - 1)
                    }
                }
            }
        }
    }
}

/// Lane tag of a walk that ended on a spilled leaf, whose index is the
/// lane's `slot`. Root entries carry only the four tags above.
const TAG_SPILL: u32 = 4;

/// Per-lane walk state: the node `(slot, tag)` that resolves the 8
/// address bits at `shift` next — or, once `tag` is [`TAG_LEAF`], the
/// leaf value in `slot`, as a root entry encodes it, and once it is
/// [`TAG_SPILL`], the spilled leaf to read.
#[derive(Clone, Copy)]
pub(crate) struct Lane {
    slot: u32,
    tag: u32,
    shift: u32,
}

/// A walk that ends on a spilled leaf leaves that read to
/// [`Walk::finish`], so the lane driver prefetches it with the other
/// lanes' node lines instead of stalling the round on it.
impl Walk for Poptrie {
    type Addr = u32;
    type Lane = Lane;

    /// Read `addr`'s root entry: a leaf, or the level-2 node.
    #[inline]
    fn start<T: Tally>(&self, addr: u32, t: &mut T) -> Lane {
        let stem = (addr >> 16) as usize;
        t.read(REGION_ROOT, stem * 4, 4);
        let e = self.root[stem];
        Lane {
            slot: e & PAYLOAD_MASK,
            tag: e >> 30,
            shift: 8,
        }
    }

    /// Resolve one node level ([`Poptrie::node_step`]).
    #[inline]
    fn step<T: Tally>(&self, addr: u32, lane: &mut Lane, t: &mut T) -> bool {
        if lane.tag == TAG_LEAF {
            return false;
        }
        let pos = (addr >> lane.shift & 0xFF) as usize;
        match self.node_step(lane.tag, lane.slot, pos, t) {
            Step::Leaf(v) => {
                lane.slot = v as u32;
                lane.tag = TAG_LEAF;
            }
            Step::Spill(i) => {
                lane.slot = i as u32;
                lane.tag = TAG_SPILL;
            }
            Step::Child { slot, tag } => {
                *lane = Lane {
                    slot,
                    tag,
                    shift: lane.shift - 8,
                };
                return true;
            }
        }
        false
    }

    /// Read the spilled leaf if the walk ended on one. The leaf is
    /// selected, not branched to: whether a lane spilled is
    /// data-dependent, and a mispredicted branch per lane cost `batch32`
    /// more than always reading a leaf word (EXPERIMENTS E42).
    #[inline]
    fn finish<T: Tally>(&self, _addr: u32, lane: &Lane, t: &mut T) -> T::Out {
        let spill = lane.tag == TAG_SPILL;
        let i = if spill { lane.slot as usize } else { 0 };
        let leaf = self.leaves.get(i).copied().unwrap_or(0);
        if spill {
            t.read(REGION_LEAVES, i * 2, 2);
        }
        t.done(hop_of(if spill { leaf } else { lane.slot as LeafVal }))
    }

    /// The next node's lines (two: a dense node spans both), or the
    /// spilled leaf [`Walk::finish`] reads.
    #[inline]
    fn prefetch(&self, _addr: u32, lane: &Lane) {
        if lane.tag == TAG_SPILL {
            prefetch_slice(&self.leaves, lane.slot as usize);
        } else if lane.tag != TAG_LEAF {
            let w = lane.slot as usize * SLOT_WORDS;
            prefetch_slice(&self.words, w);
            prefetch_slice(&self.words, w + 16);
        }
    }
}

impl Lpm for Poptrie {
    walk_lookups!(u32, WIDE_LANES);

    /// Stem-granular patching: every changed prefix dirties the 16-bit
    /// stems it covers; each dirty stem's subtree is re-encoded fresh at
    /// the arena tail (the old tree becomes garbage) and its root word
    /// swapped. Declines — caller rebuilds — when a prefix is shorter
    /// than /4, when the dirty-stem count approaches rebuild cost, or
    /// when accumulated garbage exceeds a third of the arena.
    fn apply_delta(&mut self, changed: &[Prefix], rib: &RoutingTable) -> Option<DeltaStats> {
        if changed.iter().any(|p| p.len() < 4) {
            return None;
        }
        // Each prefix covers one stem, or 2^(16 − len) when shorter.
        let mut dirty: Vec<usize> = Vec::new();
        for p in changed {
            let first = (p.bits() >> 16) as usize;
            dirty.extend(first..first + (1 << 16u8.saturating_sub(p.len())));
        }
        dirty.sort_unstable();
        dirty.dedup();
        if dirty.len() > MAX_DIRTY_STEMS {
            return None;
        }
        let mut stats = DeltaStats::default();
        for stem in dirty {
            self.garbage_slots += usize::from(self.stem_slots[stem]);
            let base_addr = (stem as u32) << 16;
            let default = rib
                .best_cover(base_addr, 16)
                .map_or(0, |e| leaf_of(e.next_hop));
            let deep = deep_routes(rib.range(base_addr, base_addr | 0xFFFF));
            if deep.is_empty() {
                self.root[stem] = u32::from(default);
                self.stem_slots[stem] = 0;
                stats.bytes_touched += 4;
            } else {
                let before = self.words.len();
                let spec = build_spec(&deep, 16, default);
                let mut builder = Builder {
                    words: &mut self.words,
                    leaves: &mut self.leaves,
                    spare: None,
                };
                (self.root[stem], self.stem_slots[stem]) = builder.encode(&spec);
                stats.bytes_touched += 4 + (self.words.len() - before) * 4;
            }
            stats.prefixes_applied += 1;
        }
        self.routes = rib.len();
        let total_slots = self.words.len() / SLOT_WORDS;
        if total_slots > 0 && self.garbage_slots as f64 > total_slots as f64 * MAX_GARBAGE_FRACTION
        {
            return None;
        }
        Some(stats)
    }

    /// Bytes of lookup SRAM: the direct root, the node arena (including
    /// patch garbage — it occupies real lines) and spilled leaves.
    fn storage_bytes(&self) -> usize {
        self.root.len() * 4 + self.words.len() * 4 + self.leaves.len() * 2
    }

    fn name(&self) -> &'static str {
        "Poptrie"
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
    fn empty_table() {
        let rt = RoutingTable::new();
        let t = Poptrie::build(&rt);
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(u32::MAX), None);
        // Root-only miss: one root line, no node lines.
        let c = t.lookup_counted(0x0102_0304);
        assert_eq!(c.mem_accesses, 1);
        assert_eq!(c.lines_touched, 1);
    }

    #[test]
    fn default_route_only() {
        let rt = table(&[("0.0.0.0/0", 5)]);
        let t = Poptrie::build(&rt);
        assert_eq!(t.lookup(0), Some(NextHop(5)));
        assert_eq!(t.lookup(u32::MAX), Some(NextHop(5)));
        // Shallow hit: the root line alone.
        assert_eq!(t.lookup_counted(0).lines_touched, 1);
    }

    #[test]
    fn deep_routes_descend() {
        let rt = table(&[
            ("10.0.0.0/8", 1),
            ("10.1.2.0/24", 2),
            ("10.1.2.128/25", 3),
            ("10.1.2.3/32", 4),
        ]);
        let t = Poptrie::build(&rt);
        assert_eq!(t.lookup(0x0A01_0203), Some(NextHop(4))); // /32
        assert_eq!(t.lookup(0x0A01_0204), Some(NextHop(2))); // /24
        assert_eq!(t.lookup(0x0A01_0280), Some(NextHop(3))); // /25
        assert_eq!(t.lookup(0x0A01_0300), Some(NextHop(1))); // /8 fallback
        assert_eq!(t.lookup(0x0B00_0000), None);
    }

    #[test]
    fn intra_node_fallback_to_parent_value() {
        let rt = table(&[("10.1.0.0/16", 7), ("10.1.200.0/24", 8)]);
        let t = Poptrie::build(&rt);
        assert_eq!(t.lookup(0x0A01_C801), Some(NextHop(8)));
        assert_eq!(t.lookup(0x0A01_0101), Some(NextHop(7)));
    }

    #[test]
    fn miss_within_node() {
        let rt = table(&[("10.1.2.0/24", 1)]);
        let t = Poptrie::build(&rt);
        assert_eq!(t.lookup(0x0A01_0200), Some(NextHop(1)));
        assert_eq!(t.lookup(0x0A01_0300), None);
        assert_eq!(t.lookup(0x0A02_0000), None);
    }

    #[test]
    fn dense_node_with_many_runs() {
        // 128 alternating /24s under one stem force a DLEAF (childless,
        // > 14 runs); adding a /32 forces DENSE.
        let mut entries: Vec<(String, u16)> = Vec::new();
        for i in (0..256).step_by(2) {
            entries.push((format!("10.1.{i}.0/24"), (i % 7 + 1) as u16));
        }
        entries.push(("10.1.7.9/32".into(), 99));
        let rt = RoutingTable::from_entries(entries.iter().map(|(s, nh)| RouteEntry {
            prefix: s.parse().unwrap(),
            next_hop: NextHop(*nh),
        }));
        let t = Poptrie::build(&rt);
        assert_eq!(t.lookup(0x0A01_0709), Some(NextHop(99)));
        assert_eq!(t.lookup(0x0A01_0700), None); // odd /24 absent... 7 is odd
        assert_eq!(t.lookup(0x0A01_0800), Some(NextHop(2)));
        for i in (0..256u32).step_by(2) {
            assert_eq!(
                t.lookup(0x0A01_0000 | i << 8 | 1),
                Some(NextHop((i % 7 + 1) as u16)),
                "slot {i}"
            );
        }
    }

    #[test]
    fn agrees_with_oracle_on_synthetic_table() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(23);
        let t = Poptrie::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..4000 {
            let addr: u32 = rng.gen();
            assert_eq!(
                t.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
        // Biased toward covered space: perturb known prefixes.
        for e in rt.entries().iter().step_by(3) {
            let addr = e.prefix.first_addr() ^ (rng.gen::<u32>() & 0xFF);
            assert_eq!(
                t.lookup(addr),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn batch_matches_scalar() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(31);
        let t = Poptrie::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let addrs: Vec<u32> = (0..103).map(|_| rng.gen()).collect();
        let mut out = vec![CountedLookup::MISS; addrs.len()];
        t.lookup_batch(&addrs, &mut out);
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(out[i], t.lookup_counted(a), "addr {a:#010x}");
        }
    }

    #[test]
    fn line_budget_shallow_and_sparse() {
        // A shallow hit is 1 line; a one-level sparse descent 2 (root +
        // one packed node line, which holds the leaf).
        let rt = table(&[("10.0.0.0/8", 1), ("10.1.2.0/24", 2), ("192.168.0.0/17", 3)]);
        let t = Poptrie::build(&rt);
        // 10.64.0.0 resolves at the root: the root line alone.
        let shallow = t.lookup_counted(0x0A40_0000);
        assert_eq!(shallow.next_hop, Some(NextHop(1)));
        assert_eq!(shallow.lines_touched, 1);
        // One sparse-node descent: root + one packed node line, and the
        // line count equals the line-grain access count.
        let c = t.lookup_counted(0x0A01_0203);
        assert_eq!(c.next_hop, Some(NextHop(2)));
        assert_eq!(c.mem_accesses, 2);
        assert_eq!(c.lines_touched, 2);
    }

    #[test]
    fn apply_delta_matches_rebuild() {
        use rand::{Rng, SeedableRng};
        let mut rt = synth::small(53);
        let mut t = Poptrie::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for round in 0..6 {
            // Announce some fresh /20../28 routes and withdraw a few
            // existing ones.
            let mut changed = Vec::new();
            let mut entries: Vec<RouteEntry> = rt.entries().to_vec();
            for _ in 0..20 {
                let len = rng.gen_range(20..=28u8);
                let bits = rng.gen::<u32>() & (u32::MAX << (32 - len));
                let p = Prefix::new(bits, len).unwrap();
                entries.retain(|e| e.prefix != p);
                entries.push(RouteEntry {
                    prefix: p,
                    next_hop: NextHop(rng.gen_range(1..50)),
                });
                changed.push(p);
            }
            for _ in 0..5 {
                if entries.len() > 10 {
                    let i = rng.gen_range(0..entries.len());
                    let e = entries.remove(i);
                    if e.prefix.len() >= 4 {
                        changed.push(e.prefix);
                    } else {
                        entries.push(e);
                    }
                }
            }
            rt = RoutingTable::from_entries(entries);
            match t.apply_delta(&changed, &rt) {
                Some(stats) => assert!(stats.prefixes_applied > 0),
                None => t = Poptrie::build(&rt),
            }
            for _ in 0..1500 {
                let addr: u32 = rng.gen();
                assert_eq!(
                    t.lookup(addr),
                    rt.longest_match(addr).map(|e| e.next_hop),
                    "round {round} addr {addr:#010x}"
                );
            }
            let mut out = vec![CountedLookup::MISS; 64];
            let addrs: Vec<u32> = (0..64).map(|_| rng.gen()).collect();
            t.lookup_batch(&addrs, &mut out);
            for (i, &a) in addrs.iter().enumerate() {
                assert_eq!(out[i], t.lookup_counted(a));
            }
        }
    }

    #[test]
    fn declines_giant_prefix_patch() {
        let rt = table(&[("10.0.0.0/8", 1), ("0.0.0.0/2", 2)]);
        let mut t = Poptrie::build(&rt);
        assert!(t
            .apply_delta(&["0.0.0.0/2".parse().unwrap()], &rt)
            .is_none());
    }

    #[test]
    fn storage_is_modelled() {
        let rt = synth::small(3);
        let t = Poptrie::build(&rt);
        let expect = t.root.len() * 4 + t.words.len() * 4 + t.leaves.len() * 2;
        assert_eq!(t.storage_bytes(), expect);
        assert!(t.storage_bytes() >= (1 << 16) * 4);
    }

    /// Leaves store next hop + 1, so the one next hop that has no leaf
    /// is refused at build instead of turning into a miss.
    #[test]
    #[should_panic(expected = "NextHop(u16::MAX) has no leaf encoding")]
    fn max_next_hop_is_refused() {
        Poptrie::build(&table(&[
            ("10.1.2.3/32", u16::MAX),
            ("10.0.0.0/12", u16::MAX),
        ]));
    }

    /// Any next hop below `u16::MAX` is its own leaf: 40 200 distinct
    /// ones, most above `0x7FFF`, in root, node and spilled leaves.
    #[test]
    fn every_next_hop_below_the_max_is_stored() {
        use rand::{Rng, SeedableRng};
        let nh = |i: u32| NextHop(u16::MAX - 1 - i as u16);
        let mut entries: Vec<RouteEntry> = (0..40_000u32)
            .map(|i| RouteEntry {
                prefix: Prefix::new(i << 12, if i % 3 == 0 { 32 } else { 24 }).unwrap(),
                next_hop: nh(i),
            })
            .collect();
        entries.extend((0..200u32).map(|i| RouteEntry {
            prefix: Prefix::new(0x8000_0000 | i << 16, 16).unwrap(),
            next_hop: nh(40_000 + i),
        }));
        let rt = RoutingTable::from_entries(entries);
        let t = Poptrie::build(&rt);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut addrs: Vec<u32> = rt
            .entries()
            .iter()
            .flat_map(|e| [e.prefix.first_addr(), e.prefix.first_addr() | 0x21])
            .collect();
        addrs.extend((0..2000).map(|_| rng.gen::<u32>()));
        let mut out = vec![None; addrs.len()];
        t.forward_batch(&addrs, &mut out);
        for (&a, got) in addrs.iter().zip(out) {
            let want = rt.longest_match(a).map(|e| e.next_hop);
            assert_eq!(t.lookup(a), want, "addr {a:#010x}");
            assert_eq!(got, want, "addr {a:#010x}");
        }
    }
}
