//! Longest-prefix-match (LPM) algorithms for the SPAL reproduction.
//!
//! The paper's forwarding engines run a software matching algorithm over a
//! trie held in SRAM. Eight structures are implemented here from scratch:
//! the three §4 and §5.1 evaluate, the two §2 baselines, the reference
//! trie, and the two modern engines the threaded dataplane runs.
//!
//! * [`dp::DpTrie`] — the *dynamic prefix trie* of Doeringer, Karjoth &
//!   Nassehi \[8\]: a path-compressed binary trie whose nodes carry one
//!   index byte plus five 4-byte pointers (the 21 B/node storage model the
//!   paper uses) and which averages ≈16 memory accesses per lookup.
//! * [`lulea::LuleaTrie`] — the compressed 16/8/8 three-level structure of
//!   Degermark et al. \[7\], with the genuine bit-vector + codeword +
//!   base-index + maptable machinery, averaging ≈6–7 accesses per lookup.
//! * [`lctrie::LcTrie`] — the level-compressed trie of Nilsson & Karlsson
//!   \[12\] at the fill factor the paper evaluates, 0.25.
//! * [`dir24::Dir24_8`] — DIR-24-8-BASIC of Gupta, Lin & McKeown \[10\]
//!   (§2.1): one or two reads per lookup out of a > 32 MB table.
//! * [`multibit::MultibitTrie`] — a fixed-stride multibit trie with
//!   controlled prefix expansion (§2.1's "multiple-bit inspection",
//!   ref \[15\]), the structure `exp strides` sweeps.
//! * [`binary::BinaryTrie`] — a plain bitwise trie used as the reference
//!   implementation and for IPv6 (it is generic over address width).
//! * [`poptrie::Poptrie`] — a cache-line-packed 16/8/8 multibit trie with
//!   popcount-ranked nodes, after Asai & Ohara.
//! * [`ship::Ship6`] — the SHIP-class two-level IPv6 engine: 2^16
//!   address-block bins over hybrid dense/sparse tries.
//!
//! Every structure implements [`Lpm`] at its address width (`Lpm<u32>`,
//! which plain `Lpm` means, or `Lpm<u128>`, also spelled [`Lpm6`]), which
//! exposes the two quantities the paper's experiments need besides the
//! lookup result itself: the number of memory accesses the lookup
//! performed and the storage the structure occupies under the paper's
//! byte models.
//!
//! # What is modelled and what the dataplane pays
//!
//! The paper counts memory accesses to *model* its forwarding engine
//! (§5.1's 40-cycle Lulea and 62-cycle DP figures); the engine itself
//! does not count while it forwards. Each descent here is therefore
//! written once — as a crate-private step machine (`start`, one `step`
//! per dependent read, `finish`) that both the scalar walk and the one
//! interleaved lane driver run (Lulea stages its batches in a `group` of
//! its own), or, for DIR-24-8's one or two table reads, as one function
//! its index-ahead batch loop calls — generic over a crate-private tally
//! of the reads it makes, and instantiated twice. The *counted*
//! instantiation ([`Lpm::lookup_counted`], [`Lpm::lookup_batch`]) fills in
//! [`CountedLookup::mem_accesses`] and deduplicates the touched cache
//! lines in a [`LineSet`]; the simulator, the `exp` experiments and the
//! line-budget tests read those numbers. The *forwarding* instantiation
//! ([`Lpm::lookup`], [`Lpm::forward_batch`]) tallies into a zero-sized
//! type whose methods are empty, so the same walk compiles down to its
//! loads and yields the bare next hop; that is what the threaded
//! dataplane's `fe_flush` runs. Next hops are identical between the two
//! by construction: they are one function body.

/// The four lookup entry points of an engine whose descent is a
/// [`Walk`]: the scalar and the batched walk, each instantiated at the
/// forwarding and at the counted tally. Batches run `$wide` lanes, or
/// `$counted` on the counted path where that differs.
macro_rules! walk_lookups {
    ($addr:ty, $wide:expr) => {
        walk_lookups!($addr, $wide, $wide);
    };
    ($addr:ty, $wide:expr, $counted:expr) => {
        fn lookup(&self, addr: $addr) -> Option<NextHop> {
            crate::walk_one::<_, crate::Forward>(self, addr)
        }

        fn lookup_counted(&self, addr: $addr) -> CountedLookup {
            crate::walk_one::<_, crate::Counted>(self, addr)
        }

        fn lookup_batch(&self, addrs: &[$addr], out: &mut [CountedLookup]) {
            crate::walk_batch::<_, crate::Counted, { $counted }>(self, addrs, out)
        }

        fn forward_batch(&self, addrs: &[$addr], out: &mut [Option<NextHop>]) {
            crate::walk_batch::<_, crate::Forward, { $wide }>(self, addrs, out)
        }
    };
}

pub mod binary;
pub mod delta;
pub mod dir24;
pub mod dp;
pub mod lctrie;
pub mod lulea;
pub mod model;
pub mod multibit;
pub mod poptrie;
pub mod ship;

pub use delta::DeltaStats;

use spal_rib::bits::AddressBits;
use spal_rib::{NextHop, Prefix, RoutingTable};

/// Result of an instrumented lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedLookup {
    /// The longest-prefix-match result, if any route matched.
    pub next_hop: Option<NextHop>,
    /// Number of memory accesses the lookup performed (node reads, table
    /// reads, next-hop-table read).
    pub mem_accesses: u32,
    /// Number of **distinct 64-byte cache lines** the lookup touched,
    /// under each engine's modeled byte layout (deduplicated per lookup).
    /// Two accesses that land in the same line — a codeword and its base
    /// index after the Lulea re-layout, a poptrie node's two bitmaps —
    /// count one line; a record that straddles a line boundary counts
    /// two. This is the metric the cache-aware-FIB literature argues
    /// predicts modern-CPU wall clock, reported next to the paper's
    /// `mem_accesses` so the two models can be compared honestly.
    pub lines_touched: u32,
}

impl CountedLookup {
    /// A zero-cost miss, for pre-sizing [`Lpm::lookup_batch`] output
    /// buffers.
    pub const MISS: CountedLookup = CountedLookup {
        next_hop: None,
        mem_accesses: 0,
        lines_touched: 0,
    };
}

impl Default for CountedLookup {
    fn default() -> Self {
        CountedLookup::MISS
    }
}

/// Cache-line size the line-accounting model assumes (64 bytes, the
/// universal x86-64 / aarch64 line).
pub const LINE_BYTES: usize = 64;

/// Tracks the distinct 64-byte cache lines one lookup touches under an
/// engine's **modeled** byte layout.
///
/// Offsets are modeled (record index × record bytes from the start of
/// each array), never actual virtual addresses: heap base alignment
/// varies run to run, and the counts must be deterministic so the
/// batch == scalar bit-identity contract and deterministic-replay
/// checksums keep holding. Each engine tags every distinct array it
/// reads with its own `region` id, so lines from different arrays never
/// alias.
///
/// The set is a fixed array with a linear-scan insert: lookups touch a
/// handful of lines, so a scan beats hashing, and `clear` just resets
/// the length instead of zeroing. It holds at most 80 lines and
/// **saturates silently** there: further distinct lines are dropped and
/// [`LineSet::count`] stays at 80. Every IPv4 engine stays below that
/// (the worst case is the 33-node binary-trie walk with every 12-byte
/// node straddling a boundary, 66 lines); the 129-node walk of the
/// `u128` binary trie can exceed it, so its `lines_touched` is a floor
/// on deep walks, not an exact count.
#[derive(Debug, Clone)]
pub struct LineSet {
    ids: [u64; Self::CAPACITY],
    len: usize,
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LineSet {
    /// Distinct lines held before the set saturates (see the type docs).
    const CAPACITY: usize = 80;

    /// An empty set.
    pub const fn new() -> Self {
        LineSet {
            ids: [0; Self::CAPACITY],
            len: 0,
        }
    }

    /// Forget all touched lines (no zeroing — hot-path cheap).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Record a read of `bytes` bytes at `byte_offset` within the array
    /// tagged `region`. Records that straddle a line boundary mark every
    /// line they cover.
    #[inline]
    pub fn touch(&mut self, region: u32, byte_offset: usize, bytes: usize) {
        let first = byte_offset / LINE_BYTES;
        let last = (byte_offset + bytes.max(1) - 1) / LINE_BYTES;
        for line in first..=last {
            self.insert(((region as u64) << 40) | line as u64);
        }
    }

    #[inline]
    fn insert(&mut self, id: u64) {
        if self.ids[..self.len].contains(&id) {
            return;
        }
        if self.len < Self::CAPACITY {
            self.ids[self.len] = id;
            self.len += 1;
        }
    }

    /// Number of distinct lines touched since the last [`LineSet::clear`].
    #[inline]
    pub fn count(&self) -> u32 {
        self.len as u32
    }
}

/// What a descent records about the memory it reads. Every engine's walk
/// is generic over this, so the counted and the forwarding lookups are
/// one function body (see the crate docs).
pub(crate) trait Tally {
    /// What a finished walk yields.
    type Out: Copy;

    /// An empty tally.
    fn new() -> Self;

    /// Forget everything recorded, ready for the next walk.
    fn clear(&mut self);

    /// Record `n` memory accesses.
    fn access(&mut self, n: u32);

    /// Record that `bytes` bytes at `byte_offset` of the array tagged
    /// `region` were read (see [`LineSet::touch`]).
    fn touch(&mut self, region: u32, byte_offset: usize, bytes: usize);

    /// One access reading one record: [`Tally::access`] + [`Tally::touch`].
    #[inline(always)]
    fn read(&mut self, region: u32, byte_offset: usize, bytes: usize) {
        self.access(1);
        self.touch(region, byte_offset, bytes);
    }

    /// One access to a line no other read of the walk can share or
    /// straddle into — counted without a dedup scan.
    fn read_own_line(&mut self);

    /// Close the walk with its result.
    fn done(&self, next_hop: Option<NextHop>) -> Self::Out;
}

/// The cost-model tally: counts accesses and deduplicates touched lines,
/// yielding a full [`CountedLookup`].
pub(crate) struct Counted {
    accesses: u32,
    own_lines: u32,
    lines: LineSet,
}

impl Tally for Counted {
    type Out = CountedLookup;

    fn new() -> Self {
        Counted {
            accesses: 0,
            own_lines: 0,
            lines: LineSet::new(),
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.accesses = 0;
        self.own_lines = 0;
        self.lines.clear();
    }

    #[inline]
    fn access(&mut self, n: u32) {
        self.accesses += n;
    }

    #[inline]
    fn touch(&mut self, region: u32, byte_offset: usize, bytes: usize) {
        self.lines.touch(region, byte_offset, bytes);
    }

    #[inline]
    fn read_own_line(&mut self) {
        self.accesses += 1;
        self.own_lines += 1;
    }

    #[inline]
    fn done(&self, next_hop: Option<NextHop>) -> CountedLookup {
        CountedLookup {
            next_hop,
            mem_accesses: self.accesses,
            lines_touched: self.own_lines + self.lines.count(),
        }
    }
}

/// The forwarding tally: records nothing and occupies nothing, so a walk
/// instantiated with it is just its loads.
pub(crate) struct Forward;

impl Tally for Forward {
    type Out = Option<NextHop>;

    #[inline(always)]
    fn new() -> Self {
        Forward
    }

    #[inline(always)]
    fn clear(&mut self) {}

    #[inline(always)]
    fn access(&mut self, _n: u32) {}

    #[inline(always)]
    fn touch(&mut self, _region: u32, _byte_offset: usize, _bytes: usize) {}

    #[inline(always)]
    fn read_own_line(&mut self) {}

    #[inline(always)]
    fn done(&self, next_hop: Option<NextHop>) -> Option<NextHop> {
        next_hop
    }
}

/// An engine's descent as a step machine, written once over a [`Tally`]:
/// [`Walk::start`] begins it, each [`Walk::step`] makes one dependent
/// read, and [`Walk::finish`] resolves what the reads found. The
/// scalar [`Walk::walk`] and the lane driver [`Walk::group`] are both
/// provided from these, so every lookup entry point runs the same reads
/// and the counts are bit-identical by construction. The caller hands in
/// cleared tallies.
pub(crate) trait Walk {
    /// The address width walked.
    type Addr: Copy;

    /// Per-lane walk state between steps.
    type Lane: Copy;

    /// Begin a walk of `addr`.
    fn start<T: Tally>(&self, addr: Self::Addr, t: &mut T) -> Self::Lane;

    /// Advance `lane` by one dependent read (Lulea's step alone still
    /// resolves a whole chunk, its batches staging the passes in its own
    /// `group`). Returns `false` once the walk is done: nothing was left
    /// to read, or the read just made ended it. A done lane is only
    /// [`Walk::finish`]ed.
    fn step<T: Tally>(&self, addr: Self::Addr, lane: &mut Self::Lane, t: &mut T) -> bool;

    /// Close a done walk with its result.
    fn finish<T: Tally>(&self, addr: Self::Addr, lane: &Self::Lane, t: &mut T) -> T::Out;

    /// Hint the line `lane` reads next, in its next step or, once done,
    /// in [`Walk::finish`]. Nothing by default.
    #[inline(always)]
    fn prefetch(&self, addr: Self::Addr, lane: &Self::Lane) {
        let _ = (addr, lane);
    }

    /// One descent.
    #[inline]
    fn walk<T: Tally>(&self, addr: Self::Addr, t: &mut T) -> T::Out {
        let mut lane = self.start(addr, t);
        while self.step(addr, &mut lane, t) {}
        self.finish(addr, &lane, t)
    }

    /// `N` interleaved descents, lane `l` tallying into `t[l]` — the VPP
    /// `lookup_four` shape: every round steps each live lane once and
    /// prefetches its next line, so the lanes' dependent loads overlap
    /// instead of serializing.
    #[inline]
    fn group<T: Tally, const N: usize>(
        &self,
        addrs: &[Self::Addr; N],
        t: &mut [T; N],
        out: &mut [T::Out; N],
    ) {
        // Seeded from lane 0 rather than built by `array::from_fn`, whose
        // closure stayed an out-of-line call per lane on the counted path
        // (LC's `lookup_batch` 11–16 % slower; EXPERIMENTS E42).
        let mut lanes = [self.start(addrs[0], &mut t[0]); N];
        self.prefetch(addrs[0], &lanes[0]);
        for l in 1..N {
            lanes[l] = self.start(addrs[l], &mut t[l]);
            self.prefetch(addrs[l], &lanes[l]);
        }
        let mut live = [true; N];
        let mut any = true;
        while any {
            any = false;
            for l in 0..N {
                if live[l] {
                    live[l] = self.step(addrs[l], &mut lanes[l], &mut t[l]);
                    self.prefetch(addrs[l], &lanes[l]);
                    any |= live[l];
                }
            }
        }
        for l in 0..N {
            out[l] = self.finish(addrs[l], &lanes[l], &mut t[l]);
        }
    }
}

/// One scalar lookup through `engine`'s walk.
#[inline]
fn walk_one<E: Walk, T: Tally>(engine: &E, addr: E::Addr) -> T::Out {
    engine.walk(addr, &mut T::new())
}

/// Shared driver for the engines' batch paths: `WIDE`-lane groups while
/// they last, then [`BATCH_LANES`]-lane groups, then the scalar walk for
/// the unaligned tail. Each stage allocates its tallies once per call and
/// clears them per group ([`LineSet::clear`] writes nothing), so the
/// counted path does not re-zero a [`LineSet`] per lane per group.
fn walk_batch<E: Walk, T: Tally, const WIDE: usize>(
    engine: &E,
    addrs: &[E::Addr],
    out: &mut [T::Out],
) {
    assert_eq!(addrs.len(), out.len(), "{LENGTH_MISMATCH}");
    let (wide, rest) = addrs.as_chunks::<WIDE>();
    let (wide_out, rest_out) = out.as_chunks_mut::<WIDE>();
    walk_groups::<E, T, WIDE>(engine, wide, wide_out);
    let (quads, tail) = rest.as_chunks::<BATCH_LANES>();
    let (quads_out, tail_out) = rest_out.as_chunks_mut::<BATCH_LANES>();
    walk_groups::<E, T, BATCH_LANES>(engine, quads, quads_out);
    if !tail.is_empty() {
        let mut t = T::new();
        for (&addr, o) in tail.iter().zip(tail_out) {
            t.clear();
            *o = engine.walk(addr, &mut t);
        }
    }
}

fn walk_groups<E: Walk, T: Tally, const N: usize>(
    engine: &E,
    addrs: &[[E::Addr; N]],
    out: &mut [[T::Out; N]],
) {
    if addrs.is_empty() {
        return;
    }
    let mut t: [T; N] = std::array::from_fn(|_| T::new());
    for (group, o) in addrs.iter().zip(out) {
        t.iter_mut().for_each(T::clear);
        engine.group(group, &mut t, o);
    }
}

/// Panic message of every batch entry point handed slices of unequal
/// length.
const LENGTH_MISMATCH: &str = "batch lookup: addrs and out must have equal lengths";

/// Number of interleaved lanes the specialized batch lookups run — the
/// VPP `lookup_four` width: four independent walks give the CPU enough
/// in-flight loads to hide most node-read latency without spilling lane
/// state out of registers.
pub const BATCH_LANES: usize = 4;

/// Best-effort software prefetch of `slice[index]` into L1. Out-of-range
/// indices are ignored, so callers can prefetch speculatively. Compiles
/// to `prefetcht0` on x86-64 and to nothing elsewhere (no unstable
/// `core::intrinsics` involved) — on other targets the batch paths'
/// independent lookups alone still buy memory-level parallelism.
#[inline(always)]
pub fn prefetch_slice<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < slice.len() {
        // SAFETY: the index is bounds-checked above and prefetch has no
        // architectural effect beyond the cache.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(index) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, index);
    }
}

/// A next hop as the trie engines' leaf words store it: next hop + 1,
/// so 0 means no route. `NextHop(u16::MAX)` has no such encoding and is
/// rejected rather than wrapped to "no route".
#[inline]
pub(crate) fn leaf_of(nh: NextHop) -> u16 {
    nh.0.checked_add(1)
        .expect("NextHop(u16::MAX) has no leaf encoding: leaves store next hop + 1, 0 = no route")
}

/// A leaf word ([`leaf_of`]) back to a lookup result.
#[inline]
pub(crate) fn hop_of(leaf: u16) -> Option<NextHop> {
    leaf.checked_sub(1).map(NextHop)
}

/// A longest-prefix-match structure built from a routing table, over
/// addresses of width `A` — `u32` unless said otherwise, so `Lpm` in
/// type position (`dyn Lpm + Send + Sync`) is the IPv4 contract.
pub trait Lpm<A: AddressBits = u32> {
    /// Longest-prefix match for `addr`.
    fn lookup(&self, addr: A) -> Option<NextHop> {
        self.lookup_counted(addr).next_hop
    }

    /// Longest-prefix match with a memory-access count, for the paper's
    /// §5.1 access measurements and the FE timing model.
    fn lookup_counted(&self, addr: A) -> CountedLookup;

    /// Batched longest-prefix match: fill `out[i]` with exactly what
    /// `lookup_counted(addrs[i])` would return — same next hops, same
    /// `mem_accesses`, same `lines_touched` — for every `i`.
    ///
    /// Every engine but DIR-24-8 implements it with the interleaved walk
    /// (VPP `lookup_four` style) of its descent's lane driver, which
    /// advances each lane one dependent read per round, so the lanes'
    /// loads overlap instead of serializing; DIR-24-8 prefetches each
    /// lookup's first-level entry a fixed distance ahead. The contract is
    /// bit-identical results, pinned by the `batch_equiv` property suite.
    ///
    /// # Panics
    /// Panics if `addrs` and `out` differ in length.
    fn lookup_batch(&self, addrs: &[A], out: &mut [CountedLookup]);

    /// Batched longest-prefix match for the forwarding path: fill
    /// `out[i]` with `lookup(addrs[i])` for every `i`, and nothing else.
    ///
    /// This is [`Lpm::lookup_batch`] without the cost model — the same
    /// interleaved walk tallying into nothing — and what a forwarding
    /// engine should call; `lookup_batch` is for callers that read
    /// `mem_accesses` or `lines_touched`.
    ///
    /// # Panics
    /// Panics if `addrs` and `out` differ in length.
    fn forward_batch(&self, addrs: &[A], out: &mut [Option<NextHop>]);

    /// Patch the structure in place after a batch of route changes,
    /// touching only the regions `changed` covers.
    ///
    /// `rib` is the **post-update** routing table the structure must end
    /// up equivalent to, and `changed` lists every prefix announced,
    /// withdrawn or re-targeted since the structure last matched `rib`.
    /// On success the engine is lookup-equivalent (same next hops, though
    /// not necessarily the same access counts — patching does not
    /// garbage-collect emptied spill segments or chunks) to a fresh
    /// build from `rib`, and the returned [`DeltaStats`] says how much
    /// memory the patch rewrote.
    ///
    /// Returning `None` means the engine declined to patch — either it
    /// has no incremental path at all (the default) or a fallback rule
    /// fired (accumulated garbage, a structural change the patch
    /// granularity cannot express). After `None` the structure's state
    /// is unspecified; the caller must rebuild it from `rib`.
    fn apply_delta(&mut self, changed: &[Prefix<A>], rib: &RoutingTable<A>) -> Option<DeltaStats> {
        let _ = (changed, rib);
        None
    }

    /// Bytes of SRAM the structure occupies under the paper's storage
    /// models (§4), or the engine's modeled layout.
    fn storage_bytes(&self) -> usize;

    /// Short human-readable algorithm name ("DP", "Lulea", "LC", …).
    fn name(&self) -> &'static str;
}

/// [`Lpm`] where a caller wants to say "the IPv6 contract" by name:
/// `Lpm6::lookup(&engine, addr)` is `Lpm::<u128>::lookup`, the width
/// inferred from the arguments. A re-export rather than a second trait,
/// so an engine implements `Lpm<u128>` and nothing else.
pub use self::Lpm as Lpm6;

/// Mean memory accesses per lookup over a set of addresses.
pub fn mean_accesses<A: AddressBits, L: Lpm<A> + ?Sized>(lpm: &L, addrs: &[A]) -> f64 {
    mean_of(lpm, addrs, |c| c.mem_accesses)
}

/// Mean distinct cache lines touched per lookup over a set of addresses.
pub fn mean_lines<A: AddressBits, L: Lpm<A> + ?Sized>(lpm: &L, addrs: &[A]) -> f64 {
    mean_of(lpm, addrs, |c| c.lines_touched)
}

fn mean_of<A: AddressBits, L: Lpm<A> + ?Sized>(
    lpm: &L,
    addrs: &[A],
    field: impl Fn(CountedLookup) -> u32,
) -> f64 {
    if addrs.is_empty() {
        return 0.0;
    }
    let total: u64 = addrs
        .iter()
        .map(|&a| field(lpm.lookup_counted(a)) as u64)
        .sum();
    total as f64 / addrs.len() as f64
}

#[cfg(test)]
mod lineset_tests {
    use super::*;

    #[test]
    fn dedupes_within_a_region() {
        let mut s = LineSet::new();
        s.touch(0, 0, 4);
        s.touch(0, 60, 2); // same line 0
        assert_eq!(s.count(), 1);
        s.touch(0, 64, 4);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn straddling_record_counts_both_lines() {
        let mut s = LineSet::new();
        // A 12-byte record at offset 60 covers lines 0 and 1.
        s.touch(0, 60, 12);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn regions_never_alias() {
        let mut s = LineSet::new();
        s.touch(0, 0, 4);
        s.touch(1, 0, 4);
        assert_eq!(s.count(), 2);
        s.clear();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn saturates_at_capacity_without_panicking() {
        let mut s = LineSet::new();
        for line in 0..3 * LineSet::CAPACITY {
            s.touch(0, line * LINE_BYTES, 1);
        }
        assert_eq!(s.count() as usize, LineSet::CAPACITY);
        // Lines already held still dedupe; new ones are still dropped.
        s.touch(0, 0, 1);
        s.touch(1, 0, 1);
        assert_eq!(s.count() as usize, LineSet::CAPACITY);
    }

    /// The forwarding walk carries no tally state at all — a lane array
    /// of it is zero bytes, so nothing is left to spill or zero.
    #[test]
    fn forward_tally_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Forward>(), 0);
        assert_eq!(std::mem::size_of::<[Forward; 16]>(), 0);
    }

    #[test]
    fn zero_byte_touch_marks_one_line() {
        let mut s = LineSet::new();
        s.touch(0, 100, 0);
        assert_eq!(s.count(), 1);
    }
}
