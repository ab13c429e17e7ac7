//! Deterministic, seed-driven fault injection for the dataplane fabric.
//!
//! The runtime's correctness argument is that the version-stamped
//! reply/invalidation protocol tolerates a lossy, reordering fabric and
//! workers stalling at arbitrary points relative to snapshot
//! publications. This module makes that adversary concrete: a
//! [`FaultPlan`] derives one [`FaultInjector`] per worker (seeded from
//! the plan seed and the worker's LC index, so a run replays exactly
//! from its seed) which
//!
//! * **delays** outbound messages a bounded number of iterations,
//! * **drops** messages — modelled as a retransmit after a much longer
//!   delay, the way a real fabric's link-level retry recovers a lost
//!   cell, so every lookup still completes and the oracle checksum
//!   stays exact,
//! * **duplicates** messages (the receiver must be idempotent), and
//! * **stalls** the worker mid-batch: probes, reservations and parked
//!   waiters from the admitted batch are held across (possibly) a
//!   snapshot publication before the FE flush runs.
//!
//! Forced adversarial snapshot swaps are the control-plane half of the
//! plan and are rolled by the deterministic scheduler itself (see
//! `runtime::run_deterministic`), not per worker.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spal_fabric::{FabricAddr, FabricMsg};

/// Fault intensities, all per-message (or per-iteration) probabilities
/// in permille. Deterministic for a given `seed`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for every injector derived from this plan.
    pub seed: u64,
    /// ‰ of messages held back 1..=`max_delay_iters` iterations.
    pub delay_per_mille: u16,
    /// ‰ of messages "lost" and retransmitted after
    /// `retransmit_delay_iters` iterations.
    pub drop_per_mille: u16,
    /// ‰ of messages delivered twice.
    pub dup_per_mille: u16,
    /// ‰ chance per iteration that a worker stalls mid-batch.
    pub stall_per_mille: u16,
    /// ‰ chance per deterministic round of a forced (no-op) snapshot
    /// publication at that adversarial point.
    pub forced_publication_per_mille: u16,
    /// Upper bound on ordinary delays, in sender iterations.
    pub max_delay_iters: u64,
    /// Retransmit latency for "dropped" messages, in sender iterations.
    pub retransmit_delay_iters: u64,
}

impl FaultPlan {
    /// The standard adversary used by the fault suite and
    /// `spal dataplane --faults <seed>`: every fault class on at once,
    /// intense enough that a few thousand packets see hundreds of
    /// faulted messages.
    pub fn standard(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_per_mille: 60,
            drop_per_mille: 25,
            dup_per_mille: 40,
            stall_per_mille: 80,
            forced_publication_per_mille: 20,
            max_delay_iters: 12,
            retransmit_delay_iters: 40,
        }
    }
}

/// Per-worker fault counters, folded into the worker's report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages delivered late (ordinary delay).
    pub delayed: u64,
    /// Messages "lost" and recovered by delayed retransmit.
    pub dropped_retransmitted: u64,
    /// Extra copies delivered by duplication.
    pub duplicated: u64,
    /// Iterations on which the worker stalled mid-batch.
    pub stalls: u64,
}

/// One worker's deterministic fault source, over the fabric messages
/// of either address width.
#[derive(Debug)]
pub struct FaultInjector<A: FabricAddr = u32> {
    plan: FaultPlan,
    rng: SmallRng,
    /// Sender-side iteration counter (advanced once per outbox pass).
    now: u64,
    /// Held-back messages with their release iteration.
    delayed: Vec<(u64, FabricMsg<A>)>,
    stats: FaultStats,
}

impl<A: FabricAddr> FaultInjector<A> {
    /// Derive worker `lc`'s injector from the plan.
    pub fn new(plan: &FaultPlan, lc: usize) -> Self {
        let seed = plan
            .seed
            .wrapping_add((lc as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultInjector {
            plan: plan.clone(),
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            delayed: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Roll the per-iteration stall. A stalled worker still drains its
    /// rings and admits its batch, but neither flushes its FE queue nor
    /// its outbox this iteration.
    pub fn roll_stall(&mut self) -> bool {
        let stalled = self.rng.gen_range(0u16..1000) < self.plan.stall_per_mille;
        if stalled {
            self.stats.stalls += 1;
        }
        stalled
    }

    /// Pass the worker's queued messages — one queue per destination,
    /// read in destination order — through the adversary: releases any
    /// held-back message that has come due, then drops, delays,
    /// duplicates, or passes each queued message. Whatever is left in
    /// `queues` goes on the wire this iteration.
    pub fn filter(&mut self, queues: &mut [Vec<FabricMsg<A>>]) {
        self.now += 1;
        let now = self.now;
        let queued: Vec<FabricMsg<A>> = queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        // Release due messages first (they have waited longest); order
        // among them follows insertion, keeping replay deterministic.
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let msg = self.delayed.remove(i).1;
                queues[msg.dst as usize].push(msg);
            } else {
                i += 1;
            }
        }
        for msg in queued {
            let roll = self.rng.gen_range(0u16..1000);
            let p = &self.plan;
            let out = &mut queues[msg.dst as usize];
            if roll < p.drop_per_mille {
                // "Lost": the fabric's retry recovers it much later.
                self.stats.dropped_retransmitted += 1;
                self.delayed.push((now + p.retransmit_delay_iters, msg));
            } else if roll < p.drop_per_mille + p.delay_per_mille {
                self.stats.delayed += 1;
                let d = self.rng.gen_range(1..=p.max_delay_iters.max(1));
                self.delayed.push((now + d, msg));
            } else if roll < p.drop_per_mille + p.delay_per_mille + p.dup_per_mille {
                self.stats.duplicated += 1;
                out.push(msg);
                out.push(msg);
            } else {
                out.push(msg);
            }
        }
    }

    /// Messages currently held back. A worker holding any is not done:
    /// every delayed message is load-bearing (drops are retransmits),
    /// so quiescence requires the queue to drain.
    pub fn pending(&self) -> usize {
        self.delayed.len()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_fabric::{AddrBatch, MsgKind};

    fn msg(addr: u32) -> FabricMsg {
        FabricMsg {
            kind: MsgKind::BatchRequest(AddrBatch::from_slice(&[addr])),
            src: 0,
            dst: 1,
            addr,
            packet_id: 0,
            sent_at: 0,
        }
    }

    /// Nothing is ever lost: across any number of iterations, every
    /// message put in comes out exactly once (plus duplicates).
    #[test]
    fn conservation_under_faults() {
        let mut inj = FaultInjector::new(&FaultPlan::standard(7), 0);
        let mut seen = vec![0u32; 500];
        let mut queues = vec![Vec::new(); 2];
        for a in 0..500u32 {
            queues[1].push(msg(a));
            inj.filter(&mut queues);
            for m in queues[1].drain(..) {
                seen[m.addr as usize] += 1;
            }
        }
        // Drain the tail: empty iterations release what is still held.
        while inj.pending() > 0 {
            inj.filter(&mut queues);
            for m in queues[1].drain(..) {
                seen[m.addr as usize] += 1;
            }
        }
        let s = inj.stats();
        assert!(s.delayed > 0 && s.dropped_retransmitted > 0 && s.duplicated > 0);
        let dups = seen.iter().filter(|&&n| n == 2).count() as u64;
        assert_eq!(dups, s.duplicated);
        assert!(seen.iter().all(|&n| n == 1 || n == 2), "message lost");
    }

    /// Same seed, same LC → identical decisions; different LC → a
    /// different stream.
    #[test]
    fn injectors_replay_from_seed() {
        let run = |lc: usize| {
            let mut inj = FaultInjector::new(&FaultPlan::standard(42), lc);
            let mut trace = Vec::new();
            let mut queues = vec![Vec::new(); 2];
            for a in 0..200u32 {
                queues[1].push(msg(a));
                inj.filter(&mut queues);
                trace.push(queues[1].drain(..).map(|m| m.addr).collect::<Vec<_>>());
                trace.push(vec![inj.roll_stall() as u32]);
            }
            (trace, inj.stats())
        };
        let (a1, s1) = run(0);
        let (a2, s2) = run(0);
        let (b, _) = run(1);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert_ne!(a1, b);
    }
}
