//! Test-only reference model of the LR-cache: the scan-per-step
//! implementation [`crate::LrCache`] had before its miss path was fused
//! into one set pass — one `Way` enum per block, a set scan in `probe`,
//! another in `reserve`, three more in `pick_slot`, an iterator (a `Vec`
//! for `Random`) handed to [`ReplacementPolicy::choose`], and a victim
//! cache of whole slots scanned once per question asked of it.
//!
//! It is kept, unchanged in behaviour, as the oracle the differential
//! proptest (`lr::tests::differential_*`) drives beside the real cache:
//! results, [`CacheStats`], resident entries (in way order, so the
//! replacement victim is pinned too) and RNG consumption must agree
//! after every operation.

use crate::addr::CacheAddr;
use crate::lr::{
    BatchProbe, FillOutcome, LrCacheConfig, MixMode, Origin, ProbeResult, ReserveOutcome,
};
use crate::policy::ReplacementPolicy;
use crate::stats::CacheStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy)]
struct VictimBlock<V, A> {
    addr: A,
    value: V,
    origin_is_rem: bool,
}

#[derive(Debug, Clone)]
struct VictimSlot<V, A> {
    block: VictimBlock<V, A>,
    lru: u64,
    fifo: u64,
}

#[derive(Debug, Clone)]
struct OracleVictim<V, A> {
    slots: Vec<VictimSlot<V, A>>,
    capacity: usize,
    policy: ReplacementPolicy,
    clock: u64,
}

impl<V: Copy + Eq, A: CacheAddr> OracleVictim<V, A> {
    fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
        OracleVictim {
            slots: Vec::with_capacity(capacity),
            capacity,
            policy,
            clock: 0,
        }
    }

    fn take(&mut self, addr: A) -> Option<VictimBlock<V, A>> {
        let pos = self.slots.iter().position(|s| s.block.addr == addr)?;
        Some(self.slots.swap_remove(pos).block)
    }

    fn insert(&mut self, block: VictimBlock<V, A>, rng: &mut SmallRng) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.block.addr == block.addr) {
            slot.block = block;
            slot.lru = self.clock;
            slot.fifo = self.clock;
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(VictimSlot {
                block,
                lru: self.clock,
                fifo: self.clock,
            });
            return;
        }
        let idx = self
            .policy
            .choose(
                self.slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, s.lru, s.fifo)),
                rng,
            )
            .expect("victim cache is full, so candidates exist");
        self.slots[idx] = VictimSlot {
            block,
            lru: self.clock,
            fifo: self.clock,
        };
    }

    fn entries(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.slots.iter().map(|s| (s.block.addr, s.block.value))
    }

    fn flush(&mut self) {
        self.slots.clear();
    }

    fn invalidate_where(&mut self, covered: impl Fn(A) -> bool) -> usize {
        let before = self.slots.len();
        self.slots.retain(|s| !covered(s.block.addr));
        before - self.slots.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block<V, A: CacheAddr> {
    Invalid,
    Waiting { addr: A },
    Complete { addr: A, value: V, origin: Origin },
}

#[derive(Debug, Clone, Copy)]
struct Way<V, A: CacheAddr> {
    block: Block<V, A>,
    lru: u64,
    fifo: u64,
}

/// The pre-fusion LR-cache, operation for operation.
#[derive(Debug)]
pub(crate) struct OracleCache<V, A: CacheAddr = u32> {
    config: LrCacheConfig,
    sets: usize,
    ways: Vec<Way<V, A>>, // sets × assoc, row-major
    victim: OracleVictim<V, A>,
    stats: CacheStats,
    clock: u64,
    rng: SmallRng,
    rem_quota: usize,
}

impl<V: Copy + Eq + std::fmt::Debug, A: CacheAddr> OracleCache<V, A> {
    pub(crate) fn new(config: LrCacheConfig) -> Self {
        let sets = config.blocks / config.assoc;
        let rem_quota = (config.mix_rem_fraction * config.assoc as f64).round() as usize;
        let ways = vec![
            Way {
                block: Block::Invalid,
                lru: 0,
                fifo: 0
            };
            config.blocks
        ];
        OracleCache {
            sets,
            ways,
            victim: OracleVictim::new(config.victim_blocks, config.policy),
            stats: CacheStats::default(),
            clock: 0,
            rng: SmallRng::seed_from_u64(config.seed),
            rem_quota,
            config,
        }
    }

    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, addr: A) -> usize {
        addr.low_bits() & (self.sets - 1)
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.config.assoc;
        start..start + self.config.assoc
    }

    pub(crate) fn probe(&mut self, addr: A) -> ProbeResult<V> {
        self.clock += 1;
        let range = self.set_range(self.set_of(addr));
        for i in range.clone() {
            match self.ways[i].block {
                Block::Complete {
                    addr: a,
                    value,
                    origin,
                } if a == addr => {
                    self.ways[i].lru = self.clock;
                    match origin {
                        Origin::Loc => self.stats.hits_loc += 1,
                        Origin::Rem => self.stats.hits_rem += 1,
                    }
                    return ProbeResult::Hit { value, origin };
                }
                Block::Waiting { addr: a } if a == addr => {
                    self.ways[i].lru = self.clock;
                    self.stats.hits_waiting += 1;
                    return ProbeResult::HitWaiting;
                }
                _ => {}
            }
        }
        if let Some(block) = self.victim.take(addr) {
            self.stats.victim_hits += 1;
            let origin = if block.origin_is_rem {
                Origin::Rem
            } else {
                Origin::Loc
            };
            match origin {
                Origin::Loc => self.stats.hits_loc += 1,
                Origin::Rem => self.stats.hits_rem += 1,
            }
            self.install(addr, block.value, origin);
            return ProbeResult::Hit {
                value: block.value,
                origin,
            };
        }
        self.stats.misses += 1;
        ProbeResult::Miss
    }

    pub(crate) fn probe_batch(&mut self, addrs: &[A], out: &mut Vec<BatchProbe<V>>) {
        for &addr in addrs {
            let lane = match self.probe(addr) {
                ProbeResult::Hit { value, origin } => BatchProbe::Hit { value, origin },
                ProbeResult::HitWaiting => BatchProbe::Waiting,
                ProbeResult::Miss => match self.reserve(addr) {
                    ReserveOutcome::Reserved => BatchProbe::MissReserved,
                    ReserveOutcome::SetFullOfWaiting => BatchProbe::MissUnrecorded,
                },
            };
            out.push(lane);
        }
    }

    pub(crate) fn reserve(&mut self, addr: A) -> ReserveOutcome {
        self.clock += 1;
        let set = self.set_of(addr);
        for i in self.set_range(set) {
            match self.ways[i].block {
                Block::Waiting { addr: a } | Block::Complete { addr: a, .. } if a == addr => {
                    self.ways[i].block = Block::Waiting { addr };
                    self.ways[i].lru = self.clock;
                    self.stats.reservations += 1;
                    return ReserveOutcome::Reserved;
                }
                _ => {}
            }
        }
        match self.pick_slot(set) {
            Some(i) => {
                self.evict_to_victim(i);
                self.ways[i] = Way {
                    block: Block::Waiting { addr },
                    lru: self.clock,
                    fifo: self.clock,
                };
                self.stats.reservations += 1;
                ReserveOutcome::Reserved
            }
            None => {
                self.stats.reservation_failures += 1;
                ReserveOutcome::SetFullOfWaiting
            }
        }
    }

    pub(crate) fn fill(&mut self, addr: A, value: V, origin: Origin) -> FillOutcome {
        self.clock += 1;
        let range = self.set_range(self.set_of(addr));
        for i in range {
            match self.ways[i].block {
                Block::Waiting { addr: a } if a == addr => {
                    self.ways[i].block = Block::Complete {
                        addr,
                        value,
                        origin,
                    };
                    self.ways[i].lru = self.clock;
                    self.stats.fills += 1;
                    return FillOutcome::CompletedWaiting;
                }
                Block::Complete { addr: a, .. } if a == addr => {
                    self.ways[i].block = Block::Complete {
                        addr,
                        value,
                        origin,
                    };
                    self.ways[i].lru = self.clock;
                    return FillOutcome::Inserted;
                }
                _ => {}
            }
        }
        let _ = self.victim.take(addr);
        if self.install(addr, value, origin) {
            FillOutcome::Inserted
        } else {
            FillOutcome::Dropped
        }
    }

    pub(crate) fn flush(&mut self) {
        for way in &mut self.ways {
            way.block = Block::Invalid;
        }
        self.victim.flush();
        self.stats.flushes += 1;
    }

    pub(crate) fn invalidate_covered(&mut self, prefix_bits: A, prefix_len: u8) -> usize {
        let covered = |addr: A| addr.covered_by(prefix_bits, prefix_len);
        let mut dropped = 0usize;
        for way in &mut self.ways {
            let addr = match way.block {
                Block::Invalid => continue,
                Block::Waiting { addr } | Block::Complete { addr, .. } => addr,
            };
            if covered(addr) {
                way.block = Block::Invalid;
                dropped += 1;
            }
        }
        dropped += self.victim.invalidate_where(covered);
        self.stats.invalidations += dropped as u64;
        dropped
    }

    pub(crate) fn waiting_count(&self) -> usize {
        self.ways
            .iter()
            .filter(|w| matches!(w.block, Block::Waiting { .. }))
            .count()
    }

    pub(crate) fn entries(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.ways
            .iter()
            .filter_map(|w| match w.block {
                Block::Complete { addr, value, .. } => Some((addr, value)),
                _ => None,
            })
            .chain(self.victim.entries())
    }

    fn install(&mut self, addr: A, value: V, origin: Origin) -> bool {
        let set = self.set_of(addr);
        let Some(i) = self.pick_slot(set) else {
            return false;
        };
        self.evict_to_victim(i);
        self.ways[i] = Way {
            block: Block::Complete {
                addr,
                value,
                origin,
            },
            lru: self.clock,
            fifo: self.clock,
        };
        true
    }

    fn pick_slot(&mut self, set: usize) -> Option<usize> {
        let range = self.set_range(set);
        for i in range.clone() {
            if matches!(self.ways[i].block, Block::Invalid) {
                return Some(i);
            }
        }
        let mut loc = 0usize;
        let mut rem = 0usize;
        for i in range.clone() {
            if let Block::Complete { origin, .. } = self.ways[i].block {
                match origin {
                    Origin::Loc => loc += 1,
                    Origin::Rem => rem += 1,
                }
            }
        }
        if loc + rem == 0 {
            return None;
        }
        let restrict = match self.config.mix_mode {
            MixMode::Ignore => None,
            MixMode::Enforce => {
                let loc_quota = self.config.assoc - self.rem_quota;
                if rem > self.rem_quota {
                    Some(Origin::Rem)
                } else if loc > loc_quota {
                    Some(Origin::Loc)
                } else {
                    None
                }
            }
        };
        let candidates = |filter: Option<Origin>| {
            let ways = &self.ways;
            range.clone().filter_map(move |i| match ways[i].block {
                Block::Complete { origin, .. } if filter.is_none() || filter == Some(origin) => {
                    Some((i, ways[i].lru, ways[i].fifo))
                }
                _ => None,
            })
        };
        self.config
            .policy
            .choose(candidates(restrict), &mut self.rng)
            .or_else(|| self.config.policy.choose(candidates(None), &mut self.rng))
    }

    fn evict_to_victim(&mut self, i: usize) {
        if let Block::Complete {
            addr,
            value,
            origin,
        } = self.ways[i].block
        {
            self.stats.evictions += 1;
            self.victim.insert(
                VictimBlock {
                    addr,
                    value,
                    origin_is_rem: origin == Origin::Rem,
                },
                &mut self.rng,
            );
        }
    }
}
