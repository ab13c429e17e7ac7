//! The cycle-driven router simulator.
//!
//! One [`RouterSim`] owns ψ line cards, the switching fabric and the
//! packet accounting, and advances them cycle by cycle through the §3.3
//! flows. The per-cycle, per-LC order is:
//!
//! 1. deliver at most one fabric message (replies are cache *writes* and
//!    are processed immediately; requests join the input queue and wait
//!    for the single cache probe port);
//! 2. admit this cycle's packet arrival, if any, to the input queue;
//! 3. complete the FE lookup finishing this cycle (fill the LR-cache as
//!    LOC, release local waiters, queue replies to remote requesters);
//! 4. start the next FE lookup if the engine is idle;
//! 5. probe the LR-cache with the head of the input queue (at most one
//!    probe per cycle, §5.1) and act on the outcome;
//! 6. inject the head of the outgoing queue into the fabric.
//!
//! # Clock advance
//!
//! Running those six phases for every LC on every cycle is wasteful
//! whenever the router is *globally quiescent* — every queue empty, no
//! FE mid-lookup, nothing in the fabric, no arrival due. At 10 Gbps the
//! mean inter-arrival gap is 40 cycles, so most cycles are exactly that.
//! The default [`EngineMode::FastForward`] engine scans once per
//! executed cycle, computing each LC's *next-event cycle*: the minimum
//! over its next arrival ([`ArrivalProcess::peek`]), its FE completion
//! time, and the fabric's next transit completion for its port
//! ([`SwitchingFabric::next_delivery_for`]). The clock jumps straight to
//! the global minimum of those (plus the next cache-flush boundary), and
//! the same per-LC values then gate the phase loop so only LCs whose
//! event fired run their phases. Skipped cycles and skipped LCs are
//! provably no-ops (each phase's guard fails), so the fast path is
//! cycle-identical to the naive loop — which is kept behind
//! [`EngineMode::Naive`] and pinned against it by the `engine_equiv`
//! test suite.

use crate::config::{EngineMode, FeServiceModel, RouterKind, SimConfig};
use crate::metrics::LatencyStats;
use crate::report::{LcReport, SimReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spal_cache::{LrCache, LrCacheConfig, Origin, ProbeResult, ReserveOutcome};
use spal_core::{ForwardingTable, Partitioning};
use spal_fabric::{FabricMsg, FabricStats, MsgKind, Queue, SwitchingFabric};
use spal_lpm::Lpm;
use spal_rib::RoutingTable;
use spal_traffic::{ArrivalProcess, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a packet across the run.
type PacketId = u64;

/// An item waiting for the LR-cache probe port.
#[derive(Debug, Clone, Copy)]
enum WorkItem {
    /// A packet that arrived on this LC's external links.
    Local { id: PacketId, addr: u32 },
    /// A lookup request that arrived over the fabric.
    Remote { addr: u32, src: u16, id: PacketId },
}

/// Parties waiting on an in-flight lookup for one address at one LC.
#[derive(Debug, Default)]
struct Waiters {
    /// Local packets parked on the W-bit entry.
    locals: Vec<PacketId>,
    /// Remote requesters (home LC only): reply targets.
    remotes: Vec<(u16, PacketId)>,
}

/// A unit of work for the forwarding engine.
#[derive(Debug, Clone, Copy)]
struct FeJob {
    addr: u32,
    /// The local packet that triggered this job *without* managing to
    /// reserve a cache block (otherwise completion flows through the
    /// waiting list).
    local_initiator: Option<PacketId>,
    /// Likewise for a remote requester whose reservation failed.
    remote_initiator: Option<(u16, PacketId)>,
}

/// The FE job currently in service, with its result resolved at start
/// time. The forwarding table is immutable for the duration of a run,
/// so resolving when the lookup starts is equivalent to resolving when
/// it completes — and the single trie walk also yields the access count
/// the [`FeServiceModel::PerLookup`] cost model charges, where the old
/// engine walked the trie a second time.
#[derive(Debug, Clone, Copy)]
struct ActiveFeJob {
    job: FeJob,
    next_hop: Option<u16>,
}

struct Lc {
    id: u16,
    fwd: Arc<ForwardingTable>,
    cache: LrCache<Option<u16>>,
    input: Queue<WorkItem>,
    outgoing: Queue<FabricMsg>,
    fe_queue: Queue<FeJob>,
    fe_busy_until: u64,
    fe_job: Option<ActiveFeJob>,
    fe_lookups: u64,
    fe_busy_cycles: u64,
    waiting: HashMap<u32, Waiters>,
    dests: Arc<[u32]>,
    next_packet: usize,
    arrivals: ArrivalProcess,
    rng: StdRng,
    completed: u64,
}

/// The simulator.
///
/// ```
/// use spal_cache::LrCacheConfig;
/// use spal_rib::synth;
/// use spal_sim::{RouterKind, RouterSim, SimConfig};
/// use spal_traffic::{preset, PresetName, TracePreset};
///
/// let table = synth::small(3);
/// let preset = TracePreset { distinct: 500, ..preset(PresetName::D75) };
/// let traces = preset.generate(&table, 2 * 2_000, 1).split(2);
/// let report = RouterSim::new(&table, &traces, SimConfig {
///     kind: RouterKind::Spal,
///     psi: 2,
///     cache: LrCacheConfig { blocks: 256, ..Default::default() },
///     packets_per_lc: 2_000,
///     ..SimConfig::default()
/// }).run();
/// assert_eq!(report.latency.count(), 4_000); // every packet completed
/// assert!(report.mean_lookup_cycles() < 40.0); // beats the bare FE
/// ```
pub struct RouterSim {
    config: SimConfig,
    partitioning: Option<Partitioning>,
    lcs: Vec<Lc>,
    fabric: SwitchingFabric,
    /// Arrival cycle per packet id.
    arrival_cycle: Vec<u64>,
    latency: LatencyStats,
    completed: u64,
    total_packets: u64,
    now: u64,
    /// Cycles whose phases actually ran (fast-forward skips the rest).
    executed_cycles: u64,
    /// The fast engine's event horizon: LC `i`'s next-event cycle
    /// (`u64::MAX` = nothing ever pending). Doubles as the per-LC
    /// activity gate — one scan serves both jump and gate — and is
    /// maintained *incrementally*: an idle LC's entry cannot drift,
    /// because its state only changes through its own phases (entry
    /// `< now` after it ran) or an inbound fabric message (entry zeroed
    /// at send time), so each scan recomputes only those entries.
    lc_next: Vec<u64>,
}

impl RouterSim {
    /// Build a simulator over `table`, feeding each LC its slice of
    /// `traces` (trace `i % traces.len()` drives LC `i`; destinations
    /// wrap if the trace is shorter than `packets_per_lc`).
    pub fn new(table: &RoutingTable, traces: &[Trace], config: SimConfig) -> Self {
        assert!(config.psi >= 1, "need at least one LC");
        assert!(!traces.is_empty(), "need at least one trace");
        assert!(
            traces.iter().all(|t| !t.is_empty()),
            "traces must be non-empty"
        );
        let partitioning = match config.kind {
            RouterKind::Spal => {
                let eta = spal_core::bits::eta_for(config.psi);
                let bits = spal_core::bits::select_bits(table, eta);
                Some(Partitioning::new(table, bits, config.psi))
            }
            _ => None,
        };
        let fwds: Vec<Arc<ForwardingTable>> = match &partitioning {
            Some(p) => p
                .forwarding_tables(table)
                .iter()
                .map(|part| Arc::new(ForwardingTable::build(config.algorithm, part)))
                .collect(),
            // Non-SPAL kinds run the identical whole table at every LC:
            // build one engine and share it instead of cloning the
            // routing table (and the built trie) ψ times.
            None => {
                let shared = Arc::new(ForwardingTable::build(config.algorithm, table));
                vec![shared; config.psi]
            }
        };
        let lcs: Vec<Lc> = fwds
            .into_iter()
            .enumerate()
            .map(|(i, fwd)| Lc {
                id: i as u16,
                fwd,
                cache: LrCache::new(LrCacheConfig {
                    seed: config.cache.seed.wrapping_add(i as u64),
                    ..config.cache.clone()
                }),
                input: Queue::unbounded(),
                outgoing: Queue::unbounded(),
                fe_queue: Queue::unbounded(),
                fe_busy_until: 0,
                fe_job: None,
                fe_lookups: 0,
                fe_busy_cycles: 0,
                waiting: HashMap::new(),
                dests: traces[i % traces.len()].destinations_shared(),
                next_packet: 0,
                arrivals: ArrivalProcess::new(config.speed),
                rng: StdRng::seed_from_u64(config.seed.wrapping_add(0x9E37_79B9 * i as u64)),
                completed: 0,
            })
            .collect();
        let fabric = SwitchingFabric::new(config.fabric, config.psi);
        let total_packets = (config.psi * config.packets_per_lc) as u64;
        RouterSim {
            arrival_cycle: vec![0; total_packets as usize],
            partitioning,
            lcs,
            fabric,
            latency: LatencyStats::new(),
            completed: 0,
            total_packets,
            now: 0,
            executed_cycles: 0,
            // Zero = "active at any cycle": conservative until first scan.
            lc_next: vec![0; config.psi],
            config,
        }
    }

    /// The partitioning in use (SPAL runs only).
    pub fn partitioning(&self) -> Option<&Partitioning> {
        self.partitioning.as_ref()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Completed / total packets.
    pub fn progress(&self) -> (u64, u64) {
        (self.completed, self.total_packets)
    }

    /// Cycles whose phases actually executed. Under
    /// [`EngineMode::Naive`] this equals [`RouterSim::now`]; under
    /// [`EngineMode::FastForward`] the difference is the number of
    /// skipped (provably idle) cycles — a diagnostic for how much the
    /// event horizon is paying off on a given configuration.
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }

    /// Run to completion and report. Panics if the simulation fails to
    /// drain within a generous safety bound (an unstable configuration,
    /// e.g. the conventional router at 40 Gbps, where the FE cannot keep
    /// up — use [`RouterSim::run_for`] to study those).
    pub fn run(mut self) -> SimReport {
        // Worst-case drain bound: every packet serialised through an FE.
        let bound = self.total_packets * (self.config.fe.cycles(32) as u64 + 100) + 10_000;
        while self.completed < self.total_packets {
            self.step();
            assert!(
                self.now < bound,
                "simulation failed to drain by cycle {} ({}/{} packets done) — unstable config?",
                self.now,
                self.completed,
                self.total_packets
            );
        }
        self.report()
    }

    /// Run for a fixed number of cycles (for open-loop/unstable studies)
    /// and report on whatever completed.
    pub fn run_for(mut self, cycles: u64) -> SimReport {
        while self.now < cycles && self.completed < self.total_packets {
            self.step_bounded(cycles);
        }
        self.report()
    }

    /// Advance the simulation: exactly one cycle in
    /// [`EngineMode::Naive`], or — when the router is globally quiescent
    /// in [`EngineMode::FastForward`] — a jump to the next event followed
    /// by that event's cycle.
    pub fn step(&mut self) {
        self.step_bounded(u64::MAX);
    }

    /// [`RouterSim::step`] with fast-forward jumps capped at `limit`:
    /// a jump that reaches the cap stops the clock there *without*
    /// executing that cycle, so [`RouterSim::run_for`] ends at exactly
    /// the cycle count the naive engine would report.
    fn step_bounded(&mut self, limit: u64) {
        debug_assert!(self.now < limit, "stepping past the cycle bound");
        if self.config.engine == EngineMode::FastForward {
            // One scan yields both the jump target (the global minimum)
            // and the per-LC activity gate `step_cycle` consults. An
            // entry `< now` belongs to an LC whose phases ran (or that
            // was flagged by an inbound fabric send) since it was
            // computed — only those can have changed state, so only
            // those are recomputed.
            let mut next = u64::MAX;
            for i in 0..self.lcs.len() {
                if self.lc_next[i] < self.now {
                    self.lc_next[i] = self.lc_next_event(i);
                }
                next = next.min(self.lc_next[i]);
            }
            if let Some(interval) = self.config.flush_interval_cycles {
                if self.config.kind != RouterKind::Conventional {
                    // Flushes mutate cache state and statistics, so every
                    // boundary is a stop even when the caches are empty.
                    // The current cycle counts if its own flush has not
                    // run yet (entering `step_cycle` at `now` always
                    // means cycle `now` is still unexecuted).
                    let at = if self.now > 0 && self.now.is_multiple_of(interval) {
                        self.now
                    } else {
                        (self.now / interval + 1) * interval
                    };
                    next = next.min(at);
                }
            }
            if next != u64::MAX {
                let target = next.min(limit);
                if target > self.now {
                    self.now = target;
                    if target == limit {
                        return; // window exhausted before the event
                    }
                }
            }
            // No pending event anywhere (a drained or wedged run): fall
            // through and burn single cycles, exactly like the naive
            // engine, so `run`'s drain bound still fires on deadlock.
        }
        self.step_cycle();
    }

    /// The earliest cycle in which any of LC `i`'s phases can do work,
    /// or `u64::MAX` if nothing is ever pending for it. The global
    /// cache-flush boundary is the caller's concern.
    ///
    /// Immediately serviceable work — a probe waiting in the input
    /// queue, an injection waiting in the outgoing queue, or an FE job
    /// queued behind an *idle* engine — reports `self.now`. An FE job
    /// queued behind a busy engine is *not* immediate: nothing can
    /// happen to it before `fe_busy_until`, which is already the
    /// completion event. That distinction is what lets the overloaded
    /// conventional router (a permanent FE backlog) still fast-forward
    /// across each 40-cycle lookup.
    ///
    /// The six phases only create same-cycle work for *this* LC (a
    /// delivered request enters the input queue, a completion emits
    /// replies, a probe enqueues an FE job...), and every such trigger
    /// is one of the conditions below — cross-LC effects travel through
    /// the fabric with latency ≥ 1 — so the value cannot move *earlier*
    /// while the LC sits idle, and skipping it until then leaves the
    /// simulation state bit-identical.
    fn lc_next_event(&self, i: usize) -> u64 {
        let lc = &self.lcs[i];
        if !lc.input.is_empty() || !lc.outgoing.is_empty() {
            return self.now; // a probe or an injection is due
        }
        let mut next = u64::MAX;
        if lc.fe_job.is_some() {
            next = lc.fe_busy_until; // the completion event
        } else if !lc.fe_queue.is_empty() {
            return self.now; // an idle FE can start this job now
        }
        if lc.next_packet < self.config.packets_per_lc {
            next = next.min(lc.arrivals.peek());
        }
        // Only the SPAL router ever injects into the fabric.
        if self.config.kind == RouterKind::Spal {
            if let Some(at) = self.fabric.next_delivery_for(lc.id) {
                next = next.min(at);
            }
        }
        next
    }

    /// Execute one cycle's six phases on every LC.
    fn step_cycle(&mut self) {
        self.executed_cycles += 1;
        let now = self.now;
        // Routing-table update: flush every LR-cache (§3.2). Waiting
        // lists live beside the cache, so in-flight lookups still
        // complete; their results simply re-enter cold caches.
        if let Some(interval) = self.config.flush_interval_cycles {
            if now > 0
                && now.is_multiple_of(interval)
                && self.config.kind != RouterKind::Conventional
            {
                for lc in &mut self.lcs {
                    lc.cache.flush();
                }
            }
        }
        // The fast engine additionally skips LCs whose six phases are
        // all provably no-ops this cycle — their scanned next-event
        // cycle lies beyond `now` (after a jump, typically only the LC
        // whose event fired has anything to do). The naive engine runs
        // every phase on every LC, guards and all — it is the executable
        // specification the fast path is pinned against.
        let gate = self.config.engine == EngineMode::FastForward;
        for i in 0..self.lcs.len() {
            if gate && self.lc_next[i] > now {
                continue;
            }
            self.receive_fabric(i, now);
            self.admit_arrival(i, now);
            self.fe_complete(i, now);
            self.fe_start(i, now);
            self.probe_cache(i, now);
            self.send_outgoing(i, now);
        }
        self.now += 1;
    }

    fn home_of(&self, addr: u32) -> u16 {
        match &self.partitioning {
            Some(p) => p.home_of(addr),
            None => u16::MAX, // unused: non-SPAL kinds never ask
        }
    }

    fn complete_packet(&mut self, id: PacketId, now: u64) {
        self.latency
            .record(now - self.arrival_cycle[id as usize] + 1);
        self.completed += 1;
    }

    /// Step 1: deliver one fabric message.
    fn receive_fabric(&mut self, i: usize, now: u64) {
        if self.config.kind != RouterKind::Spal {
            return;
        }
        let Some(msg) = self.fabric.receive(self.lcs[i].id, now) else {
            return;
        };
        match msg.kind {
            MsgKind::Request => {
                self.lcs[i].input.push(WorkItem::Remote {
                    addr: msg.addr,
                    src: msg.src,
                    id: msg.packet_id,
                });
            }
            MsgKind::Reply { next_hop } => {
                // Fill as REM and release everyone parked on this address.
                let lc = &mut self.lcs[i];
                let _ = lc.cache.fill(msg.addr, next_hop, Origin::Rem);
                let waiters = lc.waiting.remove(&msg.addr).unwrap_or_default();
                debug_assert!(
                    waiters.remotes.is_empty(),
                    "remote requesters only ever wait at the home LC"
                );
                self.lcs[i].completed += 1 + waiters.locals.len() as u64;
                self.complete_packet(msg.packet_id, now);
                for id in waiters.locals {
                    self.complete_packet(id, now);
                }
            }
            // The cycle-level simulator models one FIL lookup per port
            // per cycle; coalesced batch messages exist only in the
            // threaded dataplane runtime and never enter this fabric.
            MsgKind::BatchRequest(_) | MsgKind::BatchReply(_) => {
                unreachable!("batch messages are a dataplane-runtime construct")
            }
        }
    }

    /// Step 2: admit this cycle's arrival.
    fn admit_arrival(&mut self, i: usize, now: u64) {
        let lc = &mut self.lcs[i];
        if lc.next_packet >= self.config.packets_per_lc {
            return;
        }
        if lc.arrivals.peek() != now {
            return;
        }
        lc.arrivals.advance(&mut lc.rng);
        let id = (i * self.config.packets_per_lc + lc.next_packet) as PacketId;
        let addr = lc.dests[lc.next_packet % lc.dests.len()];
        lc.next_packet += 1;
        self.arrival_cycle[id as usize] = now;
        lc.input.push(WorkItem::Local { id, addr });
    }

    /// Step 3: finish the FE lookup completing this cycle.
    fn fe_complete(&mut self, i: usize, now: u64) {
        if self.lcs[i].fe_job.is_none() || self.lcs[i].fe_busy_until > now {
            return;
        }
        let ActiveFeJob { job, next_hop: nh } = self.lcs[i].fe_job.take().expect("checked above");
        let uses_cache = self.config.kind != RouterKind::Conventional;
        if uses_cache {
            let _ = self.lcs[i].cache.fill(job.addr, nh, Origin::Loc);
        }
        // Release waiters and reply to remote requesters. The emptiness
        // check dodges a per-completion hash on the conventional router,
        // whose waiting lists are permanently empty.
        let waiters = if self.lcs[i].waiting.is_empty() {
            Waiters::default()
        } else {
            self.lcs[i].waiting.remove(&job.addr).unwrap_or_default()
        };
        let mut local_done: Vec<PacketId> = waiters.locals;
        if let Some(id) = job.local_initiator {
            local_done.push(id);
        }
        self.lcs[i].completed += local_done.len() as u64;
        for id in local_done {
            self.complete_packet(id, now);
        }
        let mut replies = waiters.remotes;
        if let Some(r) = job.remote_initiator {
            replies.push(r);
        }
        let src_lc = self.lcs[i].id;
        for (dst, packet_id) in replies {
            self.lcs[i].outgoing.push(FabricMsg {
                kind: MsgKind::Reply { next_hop: nh },
                src: src_lc,
                dst,
                addr: job.addr,
                packet_id,
                sent_at: now,
            });
        }
    }

    /// Step 4: start the next FE lookup. One trie walk yields both the
    /// result (carried on the active job until completion) and, for
    /// [`FeServiceModel::PerLookup`], the charged access count.
    fn fe_start(&mut self, i: usize, now: u64) {
        let lc = &mut self.lcs[i];
        if lc.fe_job.is_some() || lc.fe_queue.is_empty() {
            return;
        }
        let job = lc.fe_queue.pop().expect("non-empty");
        let counted = lc.fwd.lookup_counted(job.addr);
        let fe_cost = match self.config.fe {
            FeServiceModel::Fixed(c) => c,
            FeServiceModel::PerLookup => self.config.fe.cycles(counted.mem_accesses),
        };
        lc.fe_job = Some(ActiveFeJob {
            job,
            next_hop: counted.next_hop.map(|h| h.0),
        });
        lc.fe_busy_until = now + fe_cost as u64;
        lc.fe_lookups += 1;
        lc.fe_busy_cycles += fe_cost as u64;
    }

    /// Step 5: one LR-cache probe.
    fn probe_cache(&mut self, i: usize, now: u64) {
        let Some(item) = self.lcs[i].input.pop() else {
            return;
        };
        match item {
            WorkItem::Local { id, addr } => self.handle_local(i, id, addr, now),
            WorkItem::Remote { addr, src, id } => self.handle_remote(i, addr, src, id, now),
        }
    }

    fn handle_local(&mut self, i: usize, id: PacketId, addr: u32, now: u64) {
        if self.config.kind == RouterKind::Conventional {
            // No cache at all: every packet is an FE job.
            self.lcs[i].fe_queue.push(FeJob {
                addr,
                local_initiator: Some(id),
                remote_initiator: None,
            });
            return;
        }
        match self.lcs[i].cache.probe(addr) {
            ProbeResult::Hit { .. } => {
                self.lcs[i].completed += 1;
                self.complete_packet(id, now);
            }
            ProbeResult::HitWaiting => {
                self.lcs[i].waiting.entry(addr).or_default().locals.push(id);
            }
            ProbeResult::Miss => {
                let reserved = self.config.early_recording
                    && self.lcs[i].cache.reserve(addr) == ReserveOutcome::Reserved;
                let local_home = self.config.kind == RouterKind::CacheOnly
                    || self.home_of(addr) == self.lcs[i].id;
                if local_home {
                    let initiator = if reserved {
                        self.lcs[i].waiting.entry(addr).or_default().locals.push(id);
                        None
                    } else {
                        Some(id)
                    };
                    self.lcs[i].fe_queue.push(FeJob {
                        addr,
                        local_initiator: initiator,
                        remote_initiator: None,
                    });
                } else {
                    // Remote home: request crosses the fabric. The packet
                    // rides its own request/reply pair (it is the reply's
                    // carrier); same-address followers park on the W
                    // entry, if one was reserved, which the reply fills.
                    let src = self.lcs[i].id;
                    let dst = self.home_of(addr);
                    self.lcs[i].outgoing.push(FabricMsg {
                        kind: MsgKind::Request,
                        src,
                        dst,
                        addr,
                        packet_id: id,
                        sent_at: now,
                    });
                }
            }
        }
    }

    fn handle_remote(&mut self, i: usize, addr: u32, src: u16, id: PacketId, now: u64) {
        debug_assert_eq!(self.config.kind, RouterKind::Spal);
        let src_lc = self.lcs[i].id;
        match self.lcs[i].cache.probe(addr) {
            ProbeResult::Hit { value, .. } => {
                // The home cache answers without touching the FE — the
                // core sharing win of §3.3.
                self.lcs[i].outgoing.push(FabricMsg {
                    kind: MsgKind::Reply { next_hop: value },
                    src: src_lc,
                    dst: src,
                    addr,
                    packet_id: id,
                    sent_at: now,
                });
            }
            ProbeResult::HitWaiting => {
                self.lcs[i]
                    .waiting
                    .entry(addr)
                    .or_default()
                    .remotes
                    .push((src, id));
            }
            ProbeResult::Miss => {
                let reserved = self.config.early_recording
                    && self.lcs[i].cache.reserve(addr) == ReserveOutcome::Reserved;
                let remote_initiator = if reserved {
                    self.lcs[i]
                        .waiting
                        .entry(addr)
                        .or_default()
                        .remotes
                        .push((src, id));
                    None
                } else {
                    Some((src, id))
                };
                self.lcs[i].fe_queue.push(FeJob {
                    addr,
                    local_initiator: None,
                    remote_initiator,
                });
            }
        }
    }

    /// Step 6: inject one outgoing message.
    fn send_outgoing(&mut self, i: usize, now: u64) {
        if self.config.kind != RouterKind::Spal {
            return;
        }
        let Some(msg) = self.lcs[i].outgoing.pop() else {
            return;
        };
        self.fabric.send(msg, now);
        // The one cross-LC state change in the simulator: flag the
        // destination so the next scan recomputes its event horizon
        // (its cached entry cannot know about this message).
        self.lc_next[msg.dst as usize] = 0;
    }

    fn report(self) -> SimReport {
        let fabric_stats: FabricStats = *self.fabric.stats();
        let per_lc = self
            .lcs
            .iter()
            .map(|lc| LcReport {
                lc: lc.id as usize,
                packets: lc.completed,
                cache: *lc.cache.stats(),
                fe_lookups: lc.fe_lookups,
                fe_busy_cycles: lc.fe_busy_cycles,
                fe_queue_high_water: lc.fe_queue.high_water(),
            })
            .collect();
        SimReport {
            latency: self.latency,
            per_lc,
            fabric: fabric_stats,
            cycles: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;
    use spal_traffic::{preset, LcSpeed, PresetName, TracePreset};

    fn tiny_config(kind: RouterKind, psi: usize) -> SimConfig {
        SimConfig {
            kind,
            psi,
            speed: LcSpeed::Gbps40,
            cache: LrCacheConfig {
                blocks: 512,
                ..LrCacheConfig::default()
            },
            packets_per_lc: 3_000,
            seed: 7,
            ..SimConfig::default()
        }
    }

    fn tiny_traces(table: &RoutingTable, n: usize) -> Vec<Trace> {
        let p = TracePreset {
            distinct: 1_500,
            ..preset(PresetName::D75)
        };
        p.generate(table, 3_000 * n, 3).split(n)
    }

    #[test]
    fn spal_sim_completes_all_packets() {
        let rt = synth::small(71);
        let cfg = tiny_config(RouterKind::Spal, 4);
        let traces = tiny_traces(&rt, 4);
        let report = RouterSim::new(&rt, &traces, cfg).run();
        assert_eq!(report.latency.count(), 4 * 3_000);
        assert!(report.mean_lookup_cycles() >= 1.0);
        // With good locality the mean sits well below the 40-cycle FE.
        assert!(
            report.mean_lookup_cycles() < 40.0,
            "mean {}",
            report.mean_lookup_cycles()
        );
        assert!(report.hit_rate() > 0.5, "hit rate {}", report.hit_rate());
    }

    #[test]
    fn spal_sim_is_deterministic() {
        let rt = synth::small(73);
        let traces = tiny_traces(&rt, 2);
        let a = RouterSim::new(&rt, &traces, tiny_config(RouterKind::Spal, 2)).run();
        let b = RouterSim::new(&rt, &traces, tiny_config(RouterKind::Spal, 2)).run();
        assert_eq!(a.mean_lookup_cycles(), b.mean_lookup_cycles());
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn cache_only_sim_completes() {
        let rt = synth::small(79);
        let cfg = tiny_config(RouterKind::CacheOnly, 2);
        let traces = tiny_traces(&rt, 2);
        let report = RouterSim::new(&rt, &traces, cfg).run();
        assert_eq!(report.latency.count(), 2 * 3_000);
        // No fabric traffic ever.
        assert_eq!(report.fabric.sent, 0);
    }

    #[test]
    fn conventional_sim_at_low_load() {
        // 10 Gbps (mean gap 40) with a 40-cycle FE is borderline; use a
        // faster FE to stay stable and verify every packet pays FE time.
        let rt = synth::small(83);
        let cfg = SimConfig {
            kind: RouterKind::Conventional,
            psi: 2,
            speed: LcSpeed::Gbps10,
            fe: FeServiceModel::Fixed(20),
            packets_per_lc: 2_000,
            seed: 9,
            ..SimConfig::default()
        };
        let traces = tiny_traces(&rt, 2);
        let report = RouterSim::new(&rt, &traces, cfg).run();
        assert_eq!(report.latency.count(), 2 * 2_000);
        // Every lookup costs at least the FE service time.
        assert!(report.mean_lookup_cycles() >= 20.0);
        let fe_total: u64 = report.per_lc.iter().map(|l| l.fe_lookups).sum();
        assert_eq!(fe_total, 2 * 2_000);
    }

    #[test]
    fn spal_beats_conventional_and_cache_only_on_fe_load() {
        let rt = synth::small(89);
        let traces = tiny_traces(&rt, 4);
        let spal = RouterSim::new(&rt, &traces, tiny_config(RouterKind::Spal, 4)).run();
        let cache_only = RouterSim::new(&rt, &traces, tiny_config(RouterKind::CacheOnly, 4)).run();
        let fe = |r: &SimReport| r.per_lc.iter().map(|l| l.fe_lookups).sum::<u64>();
        // Sharing means strictly fewer FE lookups than cache-only.
        assert!(
            fe(&spal) < fe(&cache_only),
            "spal {} vs cache-only {}",
            fe(&spal),
            fe(&cache_only)
        );
    }

    #[test]
    fn remote_lookups_cross_the_fabric() {
        let rt = synth::small(97);
        let cfg = tiny_config(RouterKind::Spal, 4);
        let traces = tiny_traces(&rt, 4);
        let report = RouterSim::new(&rt, &traces, cfg).run();
        assert!(report.fabric.sent > 0);
        assert_eq!(report.fabric.sent, report.fabric.delivered);
    }

    #[test]
    fn per_lookup_fe_model_runs() {
        let rt = synth::small(101);
        let cfg = SimConfig {
            fe: FeServiceModel::PerLookup,
            ..tiny_config(RouterKind::Spal, 2)
        };
        let traces = tiny_traces(&rt, 2);
        let report = RouterSim::new(&rt, &traces, cfg).run();
        assert_eq!(report.latency.count(), 2 * 3_000);
    }

    #[test]
    fn psi_one_spal_has_no_fabric_traffic() {
        let rt = synth::small(103);
        let cfg = tiny_config(RouterKind::Spal, 1);
        let traces = tiny_traces(&rt, 1);
        let report = RouterSim::new(&rt, &traces, cfg).run();
        assert_eq!(report.fabric.sent, 0);
        assert_eq!(report.latency.count(), 3_000);
    }

    #[test]
    fn disabling_early_recording_duplicates_work() {
        let rt = synth::small(109);
        let traces = tiny_traces(&rt, 4);
        let with = RouterSim::new(&rt, &traces, tiny_config(RouterKind::Spal, 4)).run();
        let without = RouterSim::new(
            &rt,
            &traces,
            SimConfig {
                early_recording: false,
                ..tiny_config(RouterKind::Spal, 4)
            },
        )
        .run();
        // Without reservations there are no waiting hits and at least as
        // much fabric traffic.
        let waiting: u64 = without.per_lc.iter().map(|l| l.cache.hits_waiting).sum();
        assert_eq!(waiting, 0);
        assert!(
            without.fabric.sent >= with.fabric.sent,
            "without {} vs with {}",
            without.fabric.sent,
            with.fabric.sent
        );
        assert_eq!(without.latency.count(), with.latency.count());
    }

    #[test]
    fn update_flushes_slow_lookups_but_preserve_liveness() {
        let rt = synth::small(113);
        let traces = tiny_traces(&rt, 2);
        let base = tiny_config(RouterKind::Spal, 2);
        let no_flush = RouterSim::new(&rt, &traces, base.clone()).run();
        let flushy = RouterSim::new(
            &rt,
            &traces,
            SimConfig {
                flush_interval_cycles: Some(2_000),
                ..base
            },
        )
        .run();
        // Everything still completes, and frequent flushes cost latency.
        assert_eq!(flushy.latency.count(), no_flush.latency.count());
        assert!(
            flushy.mean_lookup_cycles() > no_flush.mean_lookup_cycles(),
            "flushy {} vs {}",
            flushy.mean_lookup_cycles(),
            no_flush.mean_lookup_cycles()
        );
        let flushes: u64 = flushy.per_lc.iter().map(|l| l.cache.flushes).sum();
        assert!(flushes > 0);
    }

    #[test]
    fn short_traces_wrap_around_and_aligned_bases_share_a_set() {
        // A trace shorter than packets_per_lc is replayed cyclically.
        // Destinations are /24 *base* addresses — low bits all zero — the
        // pathological stride for the paper's low-bit set indexing.
        let rt = synth::small(131);
        // Sample prefixes spread across the table (adjacent sorted
        // entries share allocation blocks and would cluster anyway).
        let short = Trace::new(
            "short",
            rt.entries()
                .iter()
                .step_by(19)
                .take(50)
                .map(|e| e.prefix.first_addr())
                .collect(),
        );
        let cfg = SimConfig {
            packets_per_lc: 2_000,
            ..tiny_config(RouterKind::Spal, 2)
        };
        let report = RouterSim::new(&rt, &[short.clone(), short], cfg).run();
        assert_eq!(report.latency.count(), 2 * 2_000);
        // The documented weakness of indexing by the low address bits:
        // aligned destinations pile into one set, so 50 addresses that
        // would fit the cache many times over mostly miss.
        assert!(
            report.hit_rate() < 0.5,
            "hit rate {} on aligned bases",
            report.hit_rate()
        );
    }

    #[test]
    fn fast_forward_actually_skips_cycles() {
        // At 10 Gbps (mean gap 40) the router idles most cycles; the
        // fast engine must execute only a small fraction of them, for
        // every router kind — including the backlogged conventional one,
        // whose quiet stretches sit between FE completions rather than
        // between arrivals.
        let rt = synth::small(139);
        for kind in [
            RouterKind::Spal,
            RouterKind::CacheOnly,
            RouterKind::Conventional,
        ] {
            let cfg = SimConfig {
                speed: LcSpeed::Gbps10,
                packets_per_lc: 1_000,
                ..tiny_config(kind, 2)
            };
            let traces = tiny_traces(&rt, 2);
            let mut sim = RouterSim::new(&rt, &traces, cfg);
            let limit = 1_000 * 40 * 4; // generous drain window
            while sim.now() < limit && sim.progress().0 < sim.progress().1 {
                sim.step();
            }
            let (executed, total) = (sim.executed_cycles(), sim.now());
            assert!(
                executed * 3 < total,
                "{kind:?}: executed {executed} of {total} cycles — fast-forward not engaging"
            );
        }
    }

    #[test]
    fn run_for_partial() {
        let rt = synth::small(107);
        let cfg = tiny_config(RouterKind::Spal, 2);
        let traces = tiny_traces(&rt, 2);
        let report = RouterSim::new(&rt, &traces, cfg).run_for(500);
        assert!(report.cycles <= 500);
        assert!(report.latency.count() < 2 * 3_000);
    }
}
