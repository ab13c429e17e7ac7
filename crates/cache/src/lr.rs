//! The set-associative LR-cache itself: probe / reserve / fill / flush,
//! with the M-bit mix rule and W-bit waiting entries of §3.2.

use crate::addr::CacheAddr;
use crate::policy::ReplacementPolicy;
use crate::stats::CacheStats;
use crate::victim::{VictimBlock, VictimCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::select_unpredictable;

/// Where a cached result came from — the M ("mix") status bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Result produced by the local FE (this LC is the address's home).
    Loc,
    /// Result obtained from a remote FE over the fabric.
    Rem,
}

/// How the mix rule participates in replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixMode {
    /// §3.2 behaviour: the over-represented class supplies the eviction
    /// candidates.
    #[default]
    Enforce,
    /// Ablation: ignore the M bit; replacement is plain LRU/FIFO/random
    /// over the whole set.
    Ignore,
}

/// Configuration of one LR-cache.
#[derive(Debug, Clone)]
pub struct LrCacheConfig {
    /// Total blocks β (paper: 1K–8K). Must be a multiple of `assoc`, and
    /// `blocks / assoc` must be a power of two.
    pub blocks: usize,
    /// Set associativity (paper: 4).
    pub assoc: usize,
    /// Mix value γ: the fraction of each set reserved for REM results
    /// (paper sweeps 0 %, 25 %, 50 %, 75 %; 50 % is best for β ≥ 2K).
    pub mix_rem_fraction: f64,
    /// Whether the mix rule is enforced.
    pub mix_mode: MixMode,
    /// Conventional policy among candidates.
    pub policy: ReplacementPolicy,
    /// Victim-cache capacity in blocks (paper: 8; 0 disables).
    pub victim_blocks: usize,
    /// Seed for the (only) source of randomness, the `Random` policy.
    pub seed: u64,
}

impl Default for LrCacheConfig {
    fn default() -> Self {
        LrCacheConfig {
            blocks: 4096,
            assoc: 4,
            mix_rem_fraction: 0.5,
            mix_mode: MixMode::Enforce,
            policy: ReplacementPolicy::Lru,
            victim_blocks: 8,
            seed: 0x5EED,
        }
    }
}

impl LrCacheConfig {
    /// Convenience: the paper's configuration for a given β, applying the
    /// §5.2 rule that γ drops to 25 % when β = 1K.
    pub fn paper(blocks: usize) -> Self {
        LrCacheConfig {
            blocks,
            mix_rem_fraction: if blocks <= 1024 { 0.25 } else { 0.5 },
            ..Default::default()
        }
    }
}

/// Outcome of probing the cache with a packet's destination address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult<V> {
    /// Complete entry found; the packet is satisfied immediately.
    Hit { value: V, origin: Origin },
    /// A reserved entry exists but its reply has not arrived; the packet
    /// must join the entry's waiting list.
    HitWaiting,
    /// No entry for this address.
    Miss,
}

/// Outcome of one lane of [`LrCache::probe_each`]: a probe with the
/// miss-path reservation folded in, so a batching caller gets the
/// complete cache verdict for every packet in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchProbe<V> {
    /// Complete entry found; the packet is satisfied immediately.
    Hit { value: V, origin: Origin },
    /// A reserved entry exists but its reply has not arrived; the packet
    /// joins the entry's waiting list.
    Waiting,
    /// Miss, and a W-bit block now records the address: the caller owns
    /// issuing the lookup (and any followers will see [`Self::Waiting`]).
    MissReserved,
    /// Miss, but the set was entirely waiting so nothing was recorded:
    /// the packet proceeds uncached.
    MissUnrecorded,
}

/// Outcome of reserving a block on a miss (early recording).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveOutcome {
    /// A block now carries the address with its W bit set.
    Reserved,
    /// Every block in the set is itself waiting; nothing was evictable,
    /// so the packet proceeds unrecorded.
    SetFullOfWaiting,
}

/// Outcome of delivering a lookup result to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// The reply completed a waiting entry.
    CompletedWaiting,
    /// No waiting entry existed (reservation had failed or the entry was
    /// flushed); the result was inserted as a fresh complete entry when
    /// possible.
    Inserted,
    /// No waiting entry and no insertable slot (set full of waiters).
    Dropped,
}

/// Ways per [`Group`].
const LANES: usize = 4;

// A slot's `meta` word: three state bits under a 61-bit recency stamp.
/// Slot holds an entry (waiting or complete).
const VALID: u64 = 1;
/// W bit: address recorded, reply pending (no value yet).
const WAITING: u64 = 2;
/// M bit: the complete result came from a remote FE.
const REM: u64 = 4;
const STATE_MASK: u64 = VALID | WAITING | REM;
const STAMP_SHIFT: u32 = 3;

/// Four ways of one set, field by field: tags, values, then one `meta`
/// word per way (state bits + stamp). For IPv4 keys and a 4-byte value
/// this is 16 + 16 + 32 = 64 bytes — one cache line holds everything a
/// probe, a reservation or a fill reads and writes (a `u128`-keyed
/// group is two lines). A set is `⌈assoc / 4⌉` consecutive groups; ways
/// past `assoc` in the last group stay permanently invalid.
///
/// One stamp per way is enough: it is the quantity the configured
/// policy orders by — last use under LRU, insertion under FIFO — and
/// `Random` reads none.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Group<V, A> {
    tags: [A; LANES],
    /// `None` while the way is invalid or waiting.
    vals: [Option<V>; LANES],
    meta: [u64; LANES],
}

/// Everything the replacement decision needs to know about a set that
/// does not hold the address being placed: one pass over its `meta`
/// words, after which nothing looks at the set again.
#[derive(Debug, Clone, Copy)]
struct SetSummary {
    /// First invalid way ([`NO_WAY`] = none).
    free: usize,
    /// Complete blocks per M class.
    loc: usize,
    rem: usize,
    /// Oldest complete block per M class as `stamp << WAY_BITS | way`,
    /// so the minimum is the oldest stamp and, on a tie, the first in
    /// way order (`u64::MAX` = the class is empty).
    oldest_loc: u64,
    oldest_rem: u64,
}

/// Ways of a set are numbered in the low bits of [`SetSummary`]'s
/// oldest-block keys, which caps the associativity (and leaves the
/// stamp 56 bits: one operation per nanosecond for two years).
const WAY_BITS: u32 = 8;
const NO_WAY: usize = usize::MAX;

/// One line card's LR-cache.
///
/// ```
/// use spal_cache::{LrCache, LrCacheConfig, Origin, ProbeResult, ReserveOutcome, FillOutcome};
///
/// let mut cache: LrCache<u16> = LrCache::new(LrCacheConfig::paper(4096));
/// // A miss reserves a W-bit entry (early recording, §3.2)…
/// assert_eq!(cache.probe(0x0A010203), ProbeResult::Miss);
/// assert_eq!(cache.reserve(0x0A010203), ReserveOutcome::Reserved);
/// // …followers wait instead of re-issuing the lookup…
/// assert_eq!(cache.probe(0x0A010203), ProbeResult::HitWaiting);
/// // …and the reply completes the entry for everyone.
/// assert_eq!(cache.fill(0x0A010203, 7, Origin::Rem), FillOutcome::CompletedWaiting);
/// assert!(matches!(cache.probe(0x0A010203), ProbeResult::Hit { value: 7, .. }));
/// ```
#[derive(Debug)]
pub struct LrCache<V, A: CacheAddr = u32> {
    config: LrCacheConfig,
    sets: usize,
    /// `sets × groups_per_set`, row-major. Slot `s` is lane `s % LANES`
    /// of group `s / LANES`.
    groups: Vec<Group<V, A>>,
    groups_per_set: usize,
    victim: VictimCache<V, A>,
    stats: CacheStats,
    clock: u64,
    rng: SmallRng,
    /// ⌈γ · assoc⌉ blocks per set for REM, precomputed.
    rem_quota: usize,
}

impl<V: Copy + Eq + std::fmt::Debug, A: CacheAddr> LrCache<V, A> {
    /// Build a cache from a configuration.
    ///
    /// # Panics
    /// Panics if `blocks` is not a positive multiple of `assoc` or the
    /// set count is not a power of two.
    pub fn new(config: LrCacheConfig) -> Self {
        assert!(config.assoc > 0, "associativity must be positive");
        assert!(
            config.blocks > 0 && config.blocks.is_multiple_of(config.assoc),
            "blocks must be a positive multiple of assoc"
        );
        let sets = config.blocks / config.assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            (0.0..=1.0).contains(&config.mix_rem_fraction),
            "mix fraction must be in [0, 1]"
        );
        let rem_quota = (config.mix_rem_fraction * config.assoc as f64).round() as usize;
        assert!(
            config.assoc <= 1 << WAY_BITS,
            "associativity above {} is not supported",
            1 << WAY_BITS
        );
        let groups_per_set = config.assoc.div_ceil(LANES);
        let groups = vec![
            Group {
                tags: [A::ZERO; LANES],
                vals: [None; LANES],
                meta: [0; LANES],
            };
            sets * groups_per_set
        ];
        let victim = VictimCache::new(config.victim_blocks, config.policy);
        let rng = SmallRng::seed_from_u64(config.seed);
        LrCache {
            sets,
            groups,
            groups_per_set,
            victim,
            stats: CacheStats::default(),
            clock: 0,
            rng,
            rem_quota,
            config,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &LrCacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// First slot of `addr`'s set: the low `log2(sets)` address bits
    /// pick the set, as the paper's hardware does.
    #[inline]
    fn set_base(&self, addr: A) -> usize {
        let set = addr.low_bits() & (self.sets - 1);
        set * self.groups_per_set * LANES
    }

    /// The slot of `addr`'s set holding `addr` (waiting or complete):
    /// the first *valid* way, in way order, whose tag matches. Tags
    /// first: which way matches is as good as random, so the four
    /// compares of a group are folded into a mask instead of branched
    /// on one by one, and a `meta` word is read only behind a set bit
    /// of that mask — a miss reads no `meta` at all (for a `u128` set,
    /// only the line holding the tags). A tag outlives its entry
    /// (invalidation and flush clear `meta` only) and a never-used way
    /// carries `A::ZERO`, so a matching tag proves nothing until its
    /// `VALID` bit is seen; the mask is walked in ascending order so
    /// such a way is skipped and the valid one behind it is found.
    /// Ways past `assoc` are never valid, so they never match.
    #[inline]
    fn find(&self, base: usize, addr: A) -> Option<usize> {
        let set = &self.groups[base / LANES..][..self.groups_per_set];
        for (g, group) in set.iter().enumerate() {
            let mut matches = 0u32;
            for lane in 0..LANES {
                matches |= ((group.tags[lane] == addr) as u32) << lane;
            }
            while matches != 0 {
                let lane = matches.trailing_zeros() as usize;
                if group.meta[lane] & VALID != 0 {
                    return Some(base + g * LANES + lane);
                }
                matches &= matches - 1;
            }
        }
        None
    }

    /// One pass over the `meta` words of a set that [`Self::find`] just
    /// missed in. Between them a miss reads each tag and each state
    /// word of its set once — the same cache line(s) — where it used to
    /// scan the set once per question. Written as selects and minima:
    /// which way is invalid, waiting or oldest is data the branch
    /// predictor cannot learn.
    #[inline]
    fn summarize(&self, base: usize) -> SetSummary {
        let mut s = SetSummary {
            free: NO_WAY,
            loc: 0,
            rem: 0,
            oldest_loc: u64::MAX,
            oldest_rem: u64::MAX,
        };
        let set = &self.groups[base / LANES..][..self.groups_per_set];
        for (g, group) in set.iter().enumerate() {
            // Per lane: its way if free, its key if a complete block of
            // either class; the "none" value otherwise and past `assoc`.
            let mut free = [NO_WAY; LANES];
            let mut rem = [u64::MAX; LANES];
            let mut loc = [u64::MAX; LANES];
            for lane in 0..LANES.min(self.config.assoc - g * LANES) {
                let way = g * LANES + lane;
                let meta = group.meta[lane];
                let complete = meta & (VALID | WAITING) == VALID;
                let is_rem = complete & (meta & REM != 0);
                let is_loc = complete & (meta & REM == 0);
                let key = (meta >> STAMP_SHIFT) << WAY_BITS | way as u64;
                free[lane] = select_unpredictable(meta & VALID == 0, way, NO_WAY);
                rem[lane] = select_unpredictable(is_rem, key, u64::MAX);
                loc[lane] = select_unpredictable(is_loc, key, u64::MAX);
                s.rem += is_rem as usize;
                s.loc += is_loc as usize;
            }
            s.free = s.free.min(min_of(free));
            s.oldest_rem = s.oldest_rem.min(min_of(rem));
            s.oldest_loc = s.oldest_loc.min(min_of(loc));
        }
        s
    }

    /// Refresh `slot`'s recency after a use and set its state bits.
    /// Only LRU orders by last use; under FIFO the stamp keeps meaning
    /// "inserted at".
    #[inline]
    fn touch(&mut self, slot: usize, state: u64) {
        let meta = &mut self.groups[slot / LANES].meta[slot % LANES];
        *meta = if self.config.policy == ReplacementPolicy::Lru {
            self.clock << STAMP_SHIFT | state
        } else {
            *meta & !STATE_MASK | state
        };
    }

    /// Overwrite `slot` with a fresh entry stamped now. A complete
    /// block being displaced moves to the victim cache first.
    #[inline]
    fn place(&mut self, slot: usize, addr: A, value: Option<V>, state: u64) {
        let group = &mut self.groups[slot / LANES];
        let lane = slot % LANES;
        if group.meta[lane] & (VALID | WAITING) == VALID {
            self.stats.evictions += 1;
            self.victim.insert(
                VictimBlock {
                    addr: group.tags[lane],
                    value: group.vals[lane].expect("complete blocks carry a value"),
                    origin_is_rem: group.meta[lane] & REM != 0,
                },
                &mut self.rng,
            );
        }
        group.tags[lane] = addr;
        group.vals[lane] = value;
        group.meta[lane] = self.clock << STAMP_SHIFT | state;
    }

    /// Probe for `addr` (one cache port operation). Updates recency and
    /// statistics; promotes victim-cache hits back into the main array.
    pub fn probe(&mut self, addr: A) -> ProbeResult<V> {
        self.probe_in(self.set_base(addr), addr)
    }

    /// [`LrCache::probe`] in the set at `base`. Returning `Miss` leaves
    /// the set without `addr`, exactly as [`Self::reserve_absent`]
    /// expects it. Always inlined: with a second `probe_each` sink in
    /// the same worker (the request lanes), the inliner otherwise
    /// outlines it, and the admit burst's hit path pays a call per lane
    /// (`churn-w1` −15 % Mpkt/s, EXPERIMENTS E40).
    #[inline(always)]
    fn probe_in(&mut self, base: usize, addr: A) -> ProbeResult<V> {
        self.clock += 1;
        if let Some(slot) = self.find(base, addr) {
            let group = &self.groups[slot / LANES];
            let (state, value) = (
                group.meta[slot % LANES] & STATE_MASK,
                group.vals[slot % LANES],
            );
            self.touch(slot, state);
            if state & WAITING != 0 {
                self.stats.hits_waiting += 1;
                return ProbeResult::HitWaiting;
            }
            let origin = origin_of(state);
            self.count_hit(origin);
            let value = value.expect("complete blocks carry a value");
            return ProbeResult::Hit { value, origin };
        }
        // Parallel probe of the victim cache; a hit swaps the block back.
        if let Some(block) = self.victim.take(addr) {
            self.stats.victim_hits += 1;
            let origin = origin_of(if block.origin_is_rem { REM } else { 0 });
            self.count_hit(origin);
            self.install(base, addr, block.value, origin);
            return ProbeResult::Hit {
                value: block.value,
                origin,
            };
        }
        self.stats.misses += 1;
        ProbeResult::Miss
    }

    #[inline]
    fn count_hit(&mut self, origin: Origin) {
        let rem = (origin == Origin::Rem) as u64;
        self.stats.hits_rem += rem;
        self.stats.hits_loc += 1 - rem;
    }

    /// The batched probe pass: for each address, a [`LrCache::probe`]
    /// with the miss-path [`LrCache::reserve`] folded in, its verdict
    /// handed to `sink(lane index, verdict)` in address order. The sink sees each lane while it is still in
    /// registers, so a caller that only tallies hits and notes which
    /// lanes missed never writes the verdicts to memory.
    ///
    /// Per lane the clocks, statistics and replacement state end up
    /// bit-identical to a scalar probe-then-reserve — but a miss lane
    /// looks for its address once, not once per call: the probe just
    /// established it is absent, so the reservation goes straight to
    /// the replacement decision.
    #[inline]
    pub fn probe_each<S: FnMut(usize, BatchProbe<V>)>(&mut self, addrs: &[A], mut sink: S) {
        for (i, &addr) in addrs.iter().enumerate() {
            let base = self.set_base(addr);
            let lane = match self.probe_in(base, addr) {
                ProbeResult::Hit { value, origin } => BatchProbe::Hit { value, origin },
                ProbeResult::HitWaiting => BatchProbe::Waiting,
                ProbeResult::Miss => match self.reserve_absent(base, addr) {
                    ReserveOutcome::Reserved => BatchProbe::MissReserved,
                    ReserveOutcome::SetFullOfWaiting => BatchProbe::MissUnrecorded,
                },
            };
            sink(i, lane);
        }
    }

    /// [`LrCache::probe_each`] collected: appends one [`BatchProbe`]
    /// per address onto `out`, in order.
    pub fn probe_batch(&mut self, addrs: &[A], out: &mut Vec<BatchProbe<V>>) {
        out.reserve(addrs.len());
        self.probe_each(addrs, |_, lane| out.push(lane));
    }

    /// Reserve a waiting block for `addr` after a miss (early recording).
    /// The entry's W bit stays set until [`LrCache::fill`] delivers the
    /// result. Idempotent: reserving an address that already has an
    /// entry (waiting or complete) re-marks that entry as waiting
    /// instead of creating a duplicate.
    pub fn reserve(&mut self, addr: A) -> ReserveOutcome {
        let base = self.set_base(addr);
        let Some(slot) = self.find(base, addr) else {
            return self.reserve_absent(base, addr);
        };
        self.clock += 1;
        self.groups[slot / LANES].vals[slot % LANES] = None;
        self.touch(slot, VALID | WAITING);
        self.stats.reservations += 1;
        ReserveOutcome::Reserved
    }

    /// Reserve a block for `addr` in the set at `base`, which does not
    /// hold it.
    #[inline]
    fn reserve_absent(&mut self, base: usize, addr: A) -> ReserveOutcome {
        self.clock += 1;
        match self.pick_victim(base) {
            Some(slot) => {
                self.place(slot, addr, None, VALID | WAITING);
                self.stats.reservations += 1;
                ReserveOutcome::Reserved
            }
            None => {
                self.stats.reservation_failures += 1;
                ReserveOutcome::SetFullOfWaiting
            }
        }
    }

    /// Deliver a lookup result. Completes the waiting entry for `addr` if
    /// one exists; otherwise inserts a fresh complete entry (the
    /// reservation may have failed earlier or been flushed away).
    pub fn fill(&mut self, addr: A, value: V, origin: Origin) -> FillOutcome {
        self.clock += 1;
        let base = self.set_base(addr);
        if let Some(slot) = self.find(base, addr) {
            let waiting = self.groups[slot / LANES].meta[slot % LANES] & WAITING != 0;
            self.groups[slot / LANES].vals[slot % LANES] = Some(value);
            self.touch(slot, state_of(origin));
            if waiting {
                self.stats.fills += 1;
                return FillOutcome::CompletedWaiting;
            }
            // A newer result for the same address superseded the cached
            // one in place — no duplicates in a set.
            return FillOutcome::Inserted;
        }
        // Any stale victim-cache copy is superseded too.
        let _ = self.victim.take(addr);
        if self.install(base, addr, value, origin) {
            FillOutcome::Inserted
        } else {
            FillOutcome::Dropped
        }
    }

    /// Flush every block, main array and victim cache alike (§3.2: all
    /// entries are invalidated after each routing-table update).
    pub fn flush(&mut self) {
        for group in &mut self.groups {
            group.meta = [0; LANES];
        }
        self.victim.flush();
        self.stats.flushes += 1;
    }

    /// Invalidate exactly the entries whose address falls under the
    /// given prefix (`addr & mask == prefix_bits`), main array, waiting
    /// entries and victim cache alike. Returns the number of entries
    /// dropped and adds it to the `invalidations` statistic.
    ///
    /// This is the churn-friendly alternative to [`LrCache::flush`]: a
    /// routing update to one prefix only needs the results it covers
    /// re-resolved, so the rest of the working set survives. Waiting
    /// (W-bit) entries under the prefix are dropped too — their reply is
    /// still in flight and may carry a stale result; dropping the entry
    /// demotes the eventual [`LrCache::fill`] to a plain insert (or a
    /// no-op), which is safe, and same-address followers re-reserve.
    ///
    /// The prefix is passed as raw `(bits, len)` so this crate stays
    /// independent of the routing-table crate; callers with a
    /// `spal_rib::Prefix` pass `(p.bits(), p.len())`.
    ///
    /// # Panics
    /// Panics if `prefix_len` exceeds the address width.
    pub fn invalidate_covered(&mut self, prefix_bits: A, prefix_len: u8) -> usize {
        assert!(
            prefix_len <= A::BITS,
            "prefix length {prefix_len} out of range"
        );
        let covered = |addr: A| addr.covered_by(prefix_bits, prefix_len);
        let mut dropped = 0usize;
        for group in &mut self.groups {
            for lane in 0..LANES {
                if group.meta[lane] & VALID != 0 && covered(group.tags[lane]) {
                    group.meta[lane] = 0;
                    dropped += 1;
                }
            }
        }
        dropped += self.victim.invalidate_where(covered);
        self.stats.invalidations += dropped as u64;
        dropped
    }

    /// Invalidate the entry for exactly `addr`, wherever it is — its
    /// set (waiting or complete) or the victim cache. Same result and
    /// same `invalidations` accounting as
    /// `invalidate_covered(addr, A::BITS)`, but it looks at one set
    /// instead of all of them.
    pub fn invalidate_addr(&mut self, addr: A) -> usize {
        let mut dropped = 0usize;
        if let Some(slot) = self.find(self.set_base(addr), addr) {
            self.groups[slot / LANES].meta[slot % LANES] = 0;
            dropped += 1;
        }
        dropped += self.victim.invalidate_where(|a| a == addr);
        self.stats.invalidations += dropped as u64;
        dropped
    }

    /// Every slot's `(state bits, tag, value)`, in way order.
    fn slots(&self) -> impl Iterator<Item = (u64, A, Option<V>)> + '_ {
        self.groups.iter().flat_map(|g| {
            (0..LANES).map(move |lane| (g.meta[lane] & STATE_MASK, g.tags[lane], g.vals[lane]))
        })
    }

    /// Number of complete (shared) entries currently held, per M class:
    /// `(loc, rem)`. Diagnostic; O(blocks).
    pub fn occupancy(&self) -> (usize, usize) {
        let complete = |class: u64| self.slots().filter(|s| s.0 == VALID | class).count();
        (complete(0), complete(REM))
    }

    /// Number of waiting (W-bit) entries. Diagnostic; O(blocks).
    pub fn waiting_count(&self) -> usize {
        self.slots().filter(|s| s.0 & WAITING != 0).count()
    }

    /// Iterate over every complete entry currently resident — main
    /// array and victim cache alike. Waiting (W-bit) entries carry no
    /// value yet and are skipped. Diagnostic; O(blocks).
    pub fn entries(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.slots()
            .filter(|s| s.0 & (VALID | WAITING) == VALID)
            .map(|(_, addr, value)| (addr, value.expect("complete blocks carry a value")))
            .chain(self.victim.entries())
    }

    /// Install a complete entry directly (victim promotion, or a fill
    /// whose reservation was lost) into the set at `base`, which does
    /// not hold `addr`. Returns false when every block in the set is
    /// waiting.
    fn install(&mut self, base: usize, addr: A, value: V, origin: Origin) -> bool {
        let Some(slot) = self.pick_victim(base) else {
            return false;
        };
        self.place(slot, addr, Some(value), state_of(origin));
        true
    }

    /// Choose the slot to (re)use in the set at `base`: an invalid block
    /// if any, otherwise a complete block selected by the mix rule +
    /// policy. Waiting blocks are never evicted (their waiting lists
    /// would be orphaned). Returns `None` if all blocks are waiting.
    #[inline]
    fn pick_victim(&mut self, base: usize) -> Option<usize> {
        let set = self.summarize(base);
        if set.free != NO_WAY {
            return Some(base + set.free);
        }
        if set.loc + set.rem == 0 {
            return None; // set entirely waiting
        }
        // The class exceeding its quota supplies the candidates (§3.2);
        // hardware checks the M bits of the set in parallel. Such a
        // class holds at least one block, so candidates always exist.
        let restrict = match self.config.mix_mode {
            MixMode::Ignore => None,
            MixMode::Enforce => {
                let loc_quota = self.config.assoc - self.rem_quota;
                if set.rem > self.rem_quota {
                    Some(Origin::Rem)
                } else if set.loc > loc_quota {
                    Some(Origin::Loc)
                } else {
                    None
                }
            }
        };
        Some(match self.config.policy {
            // Oldest stamp among the candidates.
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let oldest = match restrict {
                    Some(Origin::Rem) => set.oldest_rem,
                    Some(Origin::Loc) => set.oldest_loc,
                    None => set.oldest_loc.min(set.oldest_rem),
                };
                base + (oldest & ((1 << WAY_BITS) - 1)) as usize
            }
            ReplacementPolicy::Random => {
                let candidates = match restrict {
                    Some(Origin::Rem) => set.rem,
                    Some(Origin::Loc) => set.loc,
                    None => set.loc + set.rem,
                };
                let nth = self.rng.gen_range(0..candidates);
                let class = restrict.map(state_of);
                (base..base + self.groups_per_set * LANES)
                    .filter(|&slot| {
                        let state = self.groups[slot / LANES].meta[slot % LANES] & STATE_MASK;
                        state & (VALID | WAITING) == VALID && class.is_none_or(|c| c == state)
                    })
                    .nth(nth)
                    .expect("the summary counted this many candidates")
            }
        })
    }
}

/// The least of a group's four per-lane values, as a tree of
/// conditional moves: which lane holds it is data the branch predictor
/// cannot learn.
#[inline]
fn min_of<T: Ord + Copy>(v: [T; LANES]) -> T {
    let min = |a: T, b: T| select_unpredictable(b < a, b, a);
    min(min(v[0], v[1]), min(v[2], v[3]))
}

/// The M class recorded in a complete block's state bits.
#[inline]
fn origin_of(state: u64) -> Origin {
    if state & REM != 0 {
        Origin::Rem
    } else {
        Origin::Loc
    }
}

/// The state bits of a complete block of class `origin`.
#[inline]
fn state_of(origin: Origin) -> u64 {
    VALID | if origin == Origin::Rem { REM } else { 0 }
}

/// An IPv6 LR-cache: identical §3.2 machinery keyed on `u128`
/// addresses (prefix lengths up to /128).
pub type LrCache6<V> = LrCache<V, u128>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleCache;
    use proptest::prelude::*;

    fn tiny(assoc: usize, sets: usize) -> LrCache<u16> {
        LrCache::new(LrCacheConfig {
            blocks: assoc * sets,
            assoc,
            victim_blocks: 0,
            ..Default::default()
        })
    }

    #[test]
    fn probe_miss_reserve_fill_hit() {
        let mut c = tiny(4, 4);
        assert_eq!(c.probe(100), ProbeResult::Miss);
        assert_eq!(c.reserve(100), ReserveOutcome::Reserved);
        assert_eq!(c.probe(100), ProbeResult::HitWaiting);
        assert_eq!(c.fill(100, 7, Origin::Loc), FillOutcome::CompletedWaiting);
        assert_eq!(
            c.probe(100),
            ProbeResult::Hit {
                value: 7,
                origin: Origin::Loc
            }
        );
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits_waiting, 1);
        assert_eq!(s.hits_loc, 1);
        assert_eq!(s.reservations, 1);
        assert_eq!(s.fills, 1);
    }

    #[test]
    fn fill_without_reservation_inserts() {
        let mut c = tiny(4, 4);
        assert_eq!(c.fill(100, 7, Origin::Rem), FillOutcome::Inserted);
        assert_eq!(
            c.probe(100),
            ProbeResult::Hit {
                value: 7,
                origin: Origin::Rem
            }
        );
    }

    #[test]
    fn different_sets_do_not_collide() {
        let mut c = tiny(2, 4); // sets indexed by low 2 bits
        c.fill(0, 10, Origin::Loc);
        c.fill(1, 11, Origin::Loc);
        c.fill(2, 12, Origin::Loc);
        c.fill(3, 13, Origin::Loc);
        for a in 0..4u32 {
            assert!(matches!(c.probe(a), ProbeResult::Hit { value, .. } if value == 10 + a as u16));
        }
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny(2, 1);
        c.fill(0, 1, Origin::Loc);
        c.fill(4, 2, Origin::Loc); // same set (one set only)
        c.probe(0); // make 4 the LRU
        c.fill(8, 3, Origin::Loc); // evicts 4
        assert!(matches!(c.probe(0), ProbeResult::Hit { value: 1, .. }));
        assert!(matches!(c.probe(8), ProbeResult::Hit { value: 3, .. }));
        assert_eq!(c.probe(4), ProbeResult::Miss);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn mix_rule_evicts_over_represented_class() {
        // assoc 4, γ = 50 % → REM quota 2.
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 0,
            mix_rem_fraction: 0.5,
            ..Default::default()
        });
        // 3 REM + 1 LOC, then insert: REM exceeds quota → a REM goes.
        c.fill(0, 1, Origin::Rem);
        c.fill(4, 2, Origin::Rem);
        c.fill(8, 3, Origin::Rem);
        c.fill(12, 4, Origin::Loc);
        // LRU among REM is addr 0.
        c.fill(16, 5, Origin::Loc);
        assert_eq!(c.probe(0), ProbeResult::Miss);
        assert!(matches!(c.probe(12), ProbeResult::Hit { value: 4, .. }));
        assert!(matches!(c.probe(16), ProbeResult::Hit { value: 5, .. }));
    }

    #[test]
    fn mix_rule_protects_under_represented_class() {
        // 3 LOC + 1 REM with γ = 50 %: LOC (quota 2) is over → LOC evicted
        // even though the REM block is the LRU.
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 0,
            mix_rem_fraction: 0.5,
            ..Default::default()
        });
        c.fill(0, 1, Origin::Rem); // LRU overall
        c.fill(4, 2, Origin::Loc);
        c.fill(8, 3, Origin::Loc);
        c.fill(12, 4, Origin::Loc);
        c.fill(16, 5, Origin::Loc);
        // REM survived; the oldest LOC (addr 4) went.
        assert!(matches!(c.probe(0), ProbeResult::Hit { value: 1, .. }));
        assert_eq!(c.probe(4), ProbeResult::Miss);
    }

    #[test]
    fn mix_ignore_mode_is_plain_lru() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 0,
            mix_mode: MixMode::Ignore,
            ..Default::default()
        });
        c.fill(0, 1, Origin::Rem); // LRU overall
        c.fill(4, 2, Origin::Loc);
        c.fill(8, 3, Origin::Loc);
        c.fill(12, 4, Origin::Loc);
        c.fill(16, 5, Origin::Loc);
        assert_eq!(c.probe(0), ProbeResult::Miss); // plain LRU evicted REM
    }

    #[test]
    fn waiting_blocks_are_not_evicted() {
        let mut c = tiny(2, 1);
        c.reserve(0);
        c.reserve(4);
        // Set is now entirely waiting.
        assert_eq!(c.reserve(8), ReserveOutcome::SetFullOfWaiting);
        assert_eq!(c.fill(12, 9, Origin::Loc), FillOutcome::Dropped);
        assert_eq!(c.stats().reservation_failures, 1);
        // Completing one waiter frees the set for future evictions.
        assert_eq!(c.fill(0, 1, Origin::Loc), FillOutcome::CompletedWaiting);
        assert_eq!(c.reserve(8), ReserveOutcome::Reserved);
        // The waiting entry for 4 must still be there.
        assert_eq!(c.probe(4), ProbeResult::HitWaiting);
    }

    #[test]
    fn victim_cache_rescues_conflict_misses() {
        let mut with_victim: LrCache<u16> = LrCache::new(LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 8,
            ..Default::default()
        });
        // Fill the set, then overflow it.
        for i in 0..5u32 {
            with_victim.fill(i * 4, i as u16, Origin::Loc);
        }
        // The evicted block (addr 0) is in the victim cache: still a hit.
        assert!(matches!(
            with_victim.probe(0),
            ProbeResult::Hit { value: 0, .. }
        ));
        assert_eq!(with_victim.stats().victim_hits, 1);
    }

    #[test]
    fn victim_promotion_preserves_origin() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 8,
            mix_mode: MixMode::Ignore,
            ..Default::default()
        });
        c.fill(0, 1, Origin::Rem);
        for i in 1..5u32 {
            c.fill(i * 4, i as u16, Origin::Loc);
        }
        match c.probe(0) {
            ProbeResult::Hit { origin, .. } => assert_eq!(origin, Origin::Rem),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig::default());
        c.fill(1, 1, Origin::Loc);
        c.reserve(2);
        c.flush();
        assert_eq!(c.probe(1), ProbeResult::Miss);
        assert_eq!(c.probe(2), ProbeResult::Miss);
        assert_eq!(c.occupancy(), (0, 0));
        assert_eq!(c.waiting_count(), 0);
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn invalidate_covered_is_prefix_targeted() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig::default());
        // Two addresses under 10.0.0.0/8, one outside it.
        c.fill(0x0A00_0001, 1, Origin::Loc);
        c.fill(0x0A01_0002, 2, Origin::Rem);
        c.fill(0xC0A8_0001, 3, Origin::Loc);
        let dropped = c.invalidate_covered(0x0A00_0000, 8);
        assert_eq!(dropped, 2);
        assert_eq!(c.probe(0x0A00_0001), ProbeResult::Miss);
        assert_eq!(c.probe(0x0A01_0002), ProbeResult::Miss);
        assert!(matches!(
            c.probe(0xC0A8_0001),
            ProbeResult::Hit { value: 3, .. }
        ));
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.stats().flushes, 0);
    }

    #[test]
    fn invalidate_covered_drops_waiting_entries() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig::default());
        c.reserve(0x0A00_0001);
        c.reserve(0xC0A8_0001);
        assert_eq!(c.invalidate_covered(0x0A00_0000, 8), 1);
        assert_eq!(c.probe(0x0A00_0001), ProbeResult::Miss);
        assert_eq!(c.probe(0xC0A8_0001), ProbeResult::HitWaiting);
        // The in-flight reply now inserts as a fresh complete entry.
        assert_eq!(c.fill(0x0A00_0001, 9, Origin::Rem), FillOutcome::Inserted);
    }

    #[test]
    fn invalidate_covered_reaches_victim_cache() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 8,
            ..Default::default()
        });
        // Overflow the single set so addr 0 lands in the victim cache.
        for i in 0..5u32 {
            c.fill(i * 4, i as u16, Origin::Loc);
        }
        // addr 0 is only in the victim cache now; a /30 around it evicts
        // it there without touching the main array's other entries.
        assert_eq!(c.invalidate_covered(0, 30), 1);
        assert_eq!(c.probe(0), ProbeResult::Miss);
        assert!(matches!(c.probe(8), ProbeResult::Hit { value: 2, .. }));
    }

    #[test]
    fn invalidate_covered_zero_length_equals_flush() {
        let mut targeted: LrCache<u16> = LrCache::new(LrCacheConfig::default());
        let mut flushed: LrCache<u16> = LrCache::new(LrCacheConfig::default());
        for i in 0..64u32 {
            targeted.fill(i * 131, i as u16, Origin::Loc);
            flushed.fill(i * 131, i as u16, Origin::Loc);
        }
        targeted.invalidate_covered(0, 0);
        flushed.flush();
        assert_eq!(targeted.occupancy(), (0, 0));
        assert_eq!(targeted.occupancy(), flushed.occupancy());
        // Only the stats differ: one counts invalidations, one a flush.
        assert_eq!(targeted.stats().invalidations, 64);
        assert_eq!(flushed.stats().flushes, 1);
    }

    #[test]
    fn occupancy_tracks_classes() {
        let mut c: LrCache<u16> = LrCache::new(LrCacheConfig::default());
        c.fill(1, 1, Origin::Loc);
        c.fill(2, 2, Origin::Rem);
        c.fill(3, 3, Origin::Rem);
        c.reserve(4);
        assert_eq!(c.occupancy(), (1, 2));
        assert_eq!(c.waiting_count(), 1);
    }

    #[test]
    fn probe_batch_mirrors_scalar_sequence() {
        // The batched pass must leave the cache (state AND statistics)
        // exactly where the equivalent scalar probe/reserve loop does.
        let mut batched = tiny(4, 4);
        let mut sunk = tiny(4, 4);
        let mut scalar = tiny(4, 4);
        // Mixed workload: repeats (hits), fresh addresses (misses), an
        // address left waiting (Waiting lanes).
        let addrs: Vec<u32> = vec![100, 104, 100, 108, 104, 100, 112, 108];
        scalar.fill(104, 7, Origin::Rem);
        batched.fill(104, 7, Origin::Rem);
        sunk.fill(104, 7, Origin::Rem);

        let mut out = Vec::new();
        batched.probe_batch(&addrs, &mut out);
        // The same pass through a collecting sink: every lane arrives
        // once, in address order, under its own index.
        let mut collected = Vec::new();
        sunk.probe_each(&addrs, |i, lane| {
            assert_eq!(i, collected.len());
            collected.push(lane);
        });

        let mut expected = Vec::new();
        for &a in &addrs {
            expected.push(match scalar.probe(a) {
                ProbeResult::Hit { value, origin } => BatchProbe::Hit { value, origin },
                ProbeResult::HitWaiting => BatchProbe::Waiting,
                ProbeResult::Miss => match scalar.reserve(a) {
                    ReserveOutcome::Reserved => BatchProbe::MissReserved,
                    ReserveOutcome::SetFullOfWaiting => BatchProbe::MissUnrecorded,
                },
            });
        }
        assert_eq!(out, expected);
        assert_eq!(collected, expected);
        for pass in [&batched, &sunk] {
            assert_eq!(pass.stats(), scalar.stats());
            assert_eq!(pass.waiting_count(), scalar.waiting_count());
            assert_eq!(pass.occupancy(), scalar.occupancy());
            assert!(pass.entries().eq(scalar.entries()));
        }
    }

    #[test]
    fn probe_batch_lane_kinds() {
        let mut c = tiny(2, 1); // one set, two ways
        c.fill(0, 5, Origin::Loc);
        let mut out = Vec::new();
        // 0 hits; 4 reserves; 4 again waits; 8 finds the set full
        // (one complete + one waiting, waiting never evicted… actually
        // the complete block for 0 is evictable). Use a second reserve
        // to fill the set with waiters first.
        c.reserve(4);
        c.reserve(0); // re-marks 0 waiting: set now entirely waiting
        c.probe_batch(&[4, 8], &mut out);
        assert_eq!(out, vec![BatchProbe::Waiting, BatchProbe::MissUnrecorded]);
        out.clear();
        c.fill(4, 9, Origin::Rem);
        c.probe_batch(&[4, 12], &mut out);
        assert_eq!(
            out,
            vec![
                BatchProbe::Hit {
                    value: 9,
                    origin: Origin::Rem
                },
                BatchProbe::MissReserved,
            ]
        );
    }

    #[test]
    fn probe_batch_empty_is_noop() {
        let mut c = tiny(4, 4);
        let mut out = Vec::new();
        c.probe_batch(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(c.stats().misses, 0);
    }

    /// One step of the differential workload. Addresses are small
    /// indices, widened per address type so that the set index and
    /// the tag above it both vary.
    #[derive(Debug, Clone)]
    enum Op {
        Probe(u32),
        Reserve(u32),
        ProbeBatch(Vec<u32>),
        /// `(addr, value, REM?)`
        Fill(u32, u16, bool),
        InvalidateCovered(u32, u8),
        InvalidateAddr(u32),
        Flush,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        const SPACE: u32 = 96;
        proptest::collection::vec(
            prop_oneof![
                4 => (0..SPACE).prop_map(Op::Probe),
                3 => (0..SPACE).prop_map(Op::Reserve),
                3 => proptest::collection::vec(0..SPACE, 0..12).prop_map(Op::ProbeBatch),
                5 => (0..SPACE, any::<u16>(), any::<bool>())
                    .prop_map(|(a, v, r)| Op::Fill(a, v, r)),
                1 => (0..SPACE, 0u8..=8).prop_map(|(a, l)| Op::InvalidateCovered(a, l)),
                1 => (0..SPACE).prop_map(Op::InvalidateAddr),
                1 => Just(Op::Flush),
            ],
            0..160,
        )
    }

    fn arb_config() -> impl Strategy<Value = LrCacheConfig> {
        (
            prop::sample::select(vec![1usize, 2, 4]),
            prop::sample::select(vec![1usize, 2, 3, 4, 6, 8]),
            prop::sample::select(vec![0.0f64, 0.25, 0.5, 0.75, 1.0]),
            prop::sample::select(vec![0usize, 2, 8]),
            prop::sample::select(vec![
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ]),
            any::<bool>(),
        )
            .prop_map(
                |(sets, assoc, gamma, victim, policy, enforce)| LrCacheConfig {
                    blocks: sets * assoc,
                    assoc,
                    mix_rem_fraction: gamma,
                    mix_mode: if enforce {
                        MixMode::Enforce
                    } else {
                        MixMode::Ignore
                    },
                    policy,
                    victim_blocks: victim,
                    seed: 99,
                },
            )
    }

    /// What one [`Op`] returned.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Probe(ProbeResult<u16>),
        Reserve(ReserveOutcome),
        Batch(Vec<BatchProbe<u16>>),
        Fill(FillOutcome),
        Dropped(usize),
        Flushed,
    }

    /// Drive `ops` through the fused cache and the scan-per-step oracle
    /// side by side. After every operation the result, the statistics,
    /// the waiting count and the resident entries *in way order* (which
    /// pins the replacement victim and, under `Random`, the RNG draws)
    /// must agree. The fused cache runs twice — batches through
    /// `probe_batch` on one copy, through `probe_each` and a collecting
    /// sink on the other — against the oracle's scalar probe + reserve
    /// per lane. `widen` spreads an index over the address width.
    fn differential<A: CacheAddr>(config: LrCacheConfig, ops: &[Op], widen: fn(u32) -> A) {
        let mut fused: [LrCache<u16, A>; 2] =
            [LrCache::new(config.clone()), LrCache::new(config.clone())];
        let mut oracle: OracleCache<u16, A> = OracleCache::new(config);
        let origin_of = |rem| if rem { Origin::Rem } else { Origin::Loc };
        for (step, op) in ops.iter().enumerate() {
            let expect = match *op {
                Op::Probe(a) => Outcome::Probe(oracle.probe(widen(a))),
                Op::Reserve(a) => Outcome::Reserve(oracle.reserve(widen(a))),
                Op::ProbeBatch(ref lanes) => {
                    let addrs: Vec<A> = lanes.iter().map(|&a| widen(a)).collect();
                    let mut out = vec![];
                    oracle.probe_batch(&addrs, &mut out);
                    Outcome::Batch(out)
                }
                Op::Fill(a, v, rem) => Outcome::Fill(oracle.fill(widen(a), v, origin_of(rem))),
                Op::InvalidateCovered(a, len) => {
                    Outcome::Dropped(oracle.invalidate_covered(widen(a), A::BITS - len))
                }
                Op::InvalidateAddr(a) => {
                    Outcome::Dropped(oracle.invalidate_covered(widen(a), A::BITS))
                }
                Op::Flush => {
                    oracle.flush();
                    Outcome::Flushed
                }
            };
            for (arm, fused) in fused.iter_mut().enumerate() {
                let got = match *op {
                    Op::Probe(a) => Outcome::Probe(fused.probe(widen(a))),
                    Op::Reserve(a) => Outcome::Reserve(fused.reserve(widen(a))),
                    Op::ProbeBatch(ref lanes) => {
                        let addrs: Vec<A> = lanes.iter().map(|&a| widen(a)).collect();
                        let mut out = vec![];
                        if arm == 0 {
                            fused.probe_batch(&addrs, &mut out);
                        } else {
                            fused.probe_each(&addrs, |i, lane| {
                                assert_eq!(i, out.len());
                                out.push(lane);
                            });
                        }
                        Outcome::Batch(out)
                    }
                    Op::Fill(a, v, rem) => Outcome::Fill(fused.fill(widen(a), v, origin_of(rem))),
                    Op::InvalidateCovered(a, len) => {
                        Outcome::Dropped(fused.invalidate_covered(widen(a), A::BITS - len))
                    }
                    Op::InvalidateAddr(a) => Outcome::Dropped(fused.invalidate_addr(widen(a))),
                    Op::Flush => {
                        fused.flush();
                        Outcome::Flushed
                    }
                };
                assert_eq!(got, expect, "arm {arm}, step {step} {op:?}");
                assert_eq!(
                    fused.stats(),
                    oracle.stats(),
                    "stats of arm {arm} after step {step} {op:?}"
                );
                assert_eq!(fused.waiting_count(), oracle.waiting_count());
                assert_eq!(
                    fused.entries().collect::<Vec<_>>(),
                    oracle.entries().collect::<Vec<_>>(),
                    "entries of arm {arm} after step {step} {op:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn differential_v4(config in arb_config(), ops in arb_ops()) {
            // Low three bits (the set index) and bits 16.. (tag only)
            // both vary.
            differential::<u32>(config, &ops, |i| (i & 7) | (i >> 3) << 16);
        }

        #[test]
        fn differential_v6(config in arb_config(), ops in arb_ops()) {
            differential::<u128>(config, &ops, |i| {
                (i as u128 & 7) | (i as u128 >> 3) << 64 | 0x2001 << 112
            });
        }
    }

    /// One set of four ways, no victim cache: every address collides.
    fn one_set() -> LrCacheConfig {
        LrCacheConfig {
            blocks: 4,
            assoc: 4,
            victim_blocks: 0,
            ..Default::default()
        }
    }

    /// `find` meets tags whose entry is gone — invalidation and flush
    /// clear `meta` only — and must take none of them for the entry:
    /// alone in the set (a miss, then the reservation reuses the way),
    /// and behind the valid way that holds the same address again.
    #[test]
    fn stale_tags_are_skipped_at_both_widths() {
        let ops = [
            Op::Fill(1, 10, false),
            Op::Fill(2, 20, true),
            Op::Fill(3, 30, false),
            Op::Fill(4, 40, true),
            // Way 1 keeps tag 2 and is invalid: a miss, not a hit.
            Op::InvalidateAddr(2),
            Op::Probe(2),
            Op::ProbeBatch(vec![2, 2]),
            Op::Fill(2, 21, false),
            // Ways 2 and 0 go stale; 3 comes back in way 0, ahead of
            // its own stale tag in way 2.
            Op::InvalidateAddr(3),
            Op::InvalidateAddr(1),
            Op::Fill(3, 31, true),
            Op::Probe(3),
            Op::ProbeBatch(vec![3, 1, 3]),
            // Exactly one entry for 3 is dropped; then both its tags
            // are stale.
            Op::InvalidateAddr(3),
            Op::Probe(3),
            Op::Reserve(3),
            Op::Fill(3, 32, false),
            Op::Flush,
            Op::ProbeBatch(vec![4, 3, 2, 1, 4]),
        ];
        differential::<u32>(one_set(), &ops, |i| i);
        differential::<u128>(one_set(), &ops, |i| (i as u128) << 64 | 0x2001 << 112);
    }

    /// Every way of a fresh cache carries tag `A::ZERO` and is invalid,
    /// so address zero matches four tags and no entry.
    #[test]
    fn address_zero_misses_in_a_fresh_cache() {
        let ops = [
            Op::Probe(0),
            Op::Reserve(0),
            Op::Probe(0),
            Op::Fill(0, 9, false),
            Op::Probe(0),
            Op::InvalidateAddr(0),
            Op::ProbeBatch(vec![0, 0]),
            Op::Fill(0, 8, true),
            Op::ProbeBatch(vec![0, 4, 0]),
        ];
        differential::<u32>(one_set(), &ops, |i| i);
        differential::<u128>(one_set(), &ops, |i| i as u128);
        differential::<u32>(LrCacheConfig::paper(4096), &ops, |i| i);
        differential::<u128>(LrCacheConfig::paper(4096), &ops, |i| i as u128);
    }

    /// `find` returns the first *valid* way whose tag matches, walking
    /// the matching ways in order. First-free placement always puts an
    /// address at or before its own stale tags, so the public API
    /// cannot build "stale tag first, entry behind it" — `find` must
    /// not lean on that, so the layout is written into the set by hand
    /// and checked against the oracle in the same logical state.
    fn stale_tag_ahead_of_its_entry<A: CacheAddr>(p: A, x: A, y: A) {
        let mut c: LrCache<u16, A> = LrCache::new(one_set());
        let mut oracle: OracleCache<u16, A> = OracleCache::new(one_set());
        for (addr, v) in [(p, 1), (x, 2)] {
            c.fill(addr, v, Origin::Loc);
            oracle.fill(addr, v, Origin::Loc);
        }
        assert_eq!(c.invalidate_addr(p), 1);
        assert_eq!(oracle.invalidate_covered(p, A::BITS), 1);
        // Way 0: invalid, and now carrying the probed address.
        c.groups[0].tags[0] = x;
        assert_eq!(c.find(0, x), Some(1));
        assert_eq!(c.probe(x), oracle.probe(x));
        assert_eq!(c.fill(x, 3, Origin::Rem), oracle.fill(x, 3, Origin::Rem));
        assert_eq!(c.stats(), oracle.stats());
        assert!(c.entries().eq(oracle.entries()));
        // Dropping it takes way 1, not the stale way 0, which is still
        // the first free one.
        assert_eq!(c.invalidate_addr(x), oracle.invalidate_covered(x, A::BITS));
        assert_eq!(c.find(0, x), None);
        assert_eq!(c.probe(x), oracle.probe(x));
        assert_eq!(c.reserve(x), oracle.reserve(x));
        assert_eq!(c.find(0, x), Some(0));
        assert_eq!(c.fill(y, 4, Origin::Loc), oracle.fill(y, 4, Origin::Loc));
        assert_eq!(c.find(0, y), Some(1));
        assert_eq!(c.stats(), oracle.stats());
        assert_eq!(c.waiting_count(), oracle.waiting_count());
        assert!(c.entries().eq(oracle.entries()));
    }

    #[test]
    fn find_walks_past_a_stale_tag_at_both_widths() {
        stale_tag_ahead_of_its_entry::<u32>(7, 11, 13);
        stale_tag_ahead_of_its_entry::<u128>(7 << 64, 11 << 64 | 1, 13);
        // …including the tag a never-used way starts with.
        stale_tag_ahead_of_its_entry::<u32>(7, 0, 13);
        stale_tag_ahead_of_its_entry::<u128>(7, 0, 13 << 100);
    }

    #[test]
    fn reply_after_invalidate_or_flush_demotes_to_insert() {
        let mut c = tiny(4, 4);
        // A targeted invalidation lands between reserve and fill: the
        // waiting entry is gone, the reply is a plain insert.
        assert_eq!(c.reserve(104), ReserveOutcome::Reserved);
        assert_eq!(c.invalidate_covered(104, 32), 1);
        assert_eq!(c.fill(104, 9, Origin::Rem), FillOutcome::Inserted);
        assert_eq!(c.stats().fills, 0, "no waiter was completed");

        // …and so does a flush — even when the way has since been
        // re-reserved for a different address of the same set.
        assert_eq!(c.reserve(108), ReserveOutcome::Reserved);
        c.flush();
        for a in [112, 116, 120] {
            assert_eq!(c.reserve(a), ReserveOutcome::Reserved);
        }
        assert_eq!(c.fill(108, 1, Origin::Loc), FillOutcome::Inserted);
        for a in [112, 116, 120] {
            assert_eq!(c.probe(a), ProbeResult::HitWaiting);
        }
        assert_eq!(c.fill(120, 2, Origin::Loc), FillOutcome::CompletedWaiting);
        assert!(matches!(c.probe(108), ProbeResult::Hit { value: 1, .. }));
    }

    #[test]
    fn a_v4_set_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Group<Option<u16>, u32>>(), 64);
        assert_eq!(std::mem::align_of::<Group<Option<u16>, u32>>(), 64);
        assert_eq!(std::mem::size_of::<Group<Option<u16>, u128>>(), 128);
    }

    #[test]
    fn paper_config_gamma_rule() {
        assert!((LrCacheConfig::paper(1024).mix_rem_fraction - 0.25).abs() < 1e-12);
        assert!((LrCacheConfig::paper(2048).mix_rem_fraction - 0.5).abs() < 1e-12);
        assert!((LrCacheConfig::paper(4096).mix_rem_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        let _ = LrCache::<u16>::new(LrCacheConfig {
            blocks: 12,
            assoc: 4,
            ..Default::default()
        });
    }
}
