//! The multi-threaded SPAL runtime over IPv6 — the 128-bit mirror of
//! [`crate::runtime`].
//!
//! ψ LC **workers** each own one ROT-partition [`ForwardingTable6`]
//! (read through the epoch layer) and one local 128-bit-keyed LR-cache,
//! and exchange home-LC request/reply [`FabricMsg<u128>`]s over bounded
//! lock-free SPSC rings — including the vector-mode coalescing of up to
//! [`BATCH_MSG_LANES`] addresses per message. A **control plane**
//! consumes a v6 BGP update stream, patches a shadow snapshot through
//! each engine's [`Lpm6::apply_delta`] (falling back to a per-LC
//! fragment rebuild when SHIP declines), publishes RCU-style, and
//! broadcasts full-flush or prefix-targeted cache invalidations.
//!
//! The v4 runtime's operational extras (fault injection, LC failover,
//! overload admission, live probes) are deliberately not mirrored here;
//! the forwarding core — W-bit parking, request/reply coalescing,
//! version-gated fills, targeted invalidation, deterministic and
//! threaded modes — is identical, and the per-address semantics are
//! oracle-checked the same way.

use crate::epoch::{epoch_table, EpochReader, EpochWriter};
use crate::pending::{PendingTable, Waiter};
use crate::report::{ChurnReport, CoherenceSummary, DataplaneReport, TailSummary, WorkerReport};
use crate::runtime::{ChurnConfig, InvalidationMode, IN_FLIGHT_WINDOW_BATCHES, MAX_WORKERS};
use crate::vcache::{VersionedCache, VersionedFill};
use spal_cache::{BatchProbe, LrCache, LrCacheConfig, Origin, ProbeResult};
use spal_core::bits::eta_for;
use spal_core::{select_bits6, ForwardingTable6, LpmAlgorithm6, Partitioning6};
use spal_fabric::{
    spsc_ring, AddrBatch, FabricMsg, MsgKind, ReplyBatch, SpscConsumer, SpscProducer,
    BATCH_MSG_LANES,
};
use spal_lpm::{CountedLookup, Lpm6};
use spal_rib::updates::UpdateStreamConfig;
use spal_rib::v6::{update_stream6, Prefix6, RoutingTable6, Update6};
use spal_traffic::Trace6;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one IPv6 dataplane run. A subset of
/// [`crate::runtime::DataplaneConfig`]: the forwarding/churn core
/// without the fault/failover/overload scenario knobs.
#[derive(Debug, Clone)]
pub struct Dataplane6Config {
    /// Number of LC worker threads ψ (at most [`MAX_WORKERS`]).
    pub workers: usize,
    /// IPv6 LPM structure each partition engine runs.
    pub algorithm: LpmAlgorithm6,
    /// Per-worker LR-cache configuration (keys are 128-bit).
    pub cache: LrCacheConfig,
    /// Packets a worker admits from its trace per iteration.
    pub batch: usize,
    /// Capacity of each fabric SPSC ring.
    pub ring_capacity: usize,
    /// Churn stream (`None` = static table).
    pub churn: Option<ChurnConfig>,
    /// Cache-invalidation strategy after publications.
    pub invalidation: InvalidationMode,
    /// Cross-check every Nth FE result against scalar `lookup_counted`
    /// on the same pinned snapshot (0 = off).
    pub spot_check_every: u64,
    /// Run single-threaded with a fixed round-robin schedule.
    pub deterministic: bool,
    /// Seed for the churn stream and the final consistency sampler.
    pub seed: u64,
    /// Patch shadow tables via [`Lpm6::apply_delta`] (`true`) or
    /// rebuild every touched fragment per publication (`false`).
    pub delta_patching: bool,
    /// Vector mode: burst ring drains, batched cache probes, and
    /// per-destination coalescing of fabric messages.
    pub vector: bool,
}

impl Default for Dataplane6Config {
    fn default() -> Self {
        Dataplane6Config {
            workers: 4,
            algorithm: LpmAlgorithm6::Ship,
            cache: LrCacheConfig::paper(4096),
            batch: 32,
            ring_capacity: 1024,
            churn: None,
            invalidation: InvalidationMode::Targeted,
            spot_check_every: 64,
            deterministic: false,
            seed: 1,
            delta_patching: true,
            vector: true,
        }
    }
}

/// One published v6 forwarding state.
struct Snapshot6 {
    tables: Vec<ForwardingTable6>,
    /// Updates `< applied_seq` are reflected in `tables`.
    applied_seq: u64,
    /// Publication version (epoch at publish time); stamps replies.
    version: u64,
}

/// Control-plane → worker messages (v6 prefixes).
#[derive(Debug, Clone, Copy)]
enum CtrlMsg6 {
    Flush { version: u64 },
    Invalidate { bits: u128, len: u8, version: u64 },
}

/// One would-be fabric message awaiting per-destination coalescing
/// (see `runtime::OutEvent`; the event-stream ordering argument is
/// identical at 128 bits).
#[derive(Debug, Clone, Copy)]
enum OutEvent6 {
    Req {
        addr: u128,
    },
    Rep {
        addr: u128,
        packet_id: u64,
        nh: Option<u16>,
        version: u64,
    },
}

/// Fabric-ring drain burst in vector mode (messages per `pop_slice`).
const DRAIN_BURST: usize = 256;

fn update_prefix6(u: Update6) -> Prefix6 {
    match u {
        Update6::Announce(e) => e.prefix,
        Update6::Withdraw(p) => p,
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

struct WorkerCore6 {
    lc: usize,
    psi: usize,
    part: Arc<Partitioning6>,
    cache: VersionedCache<Option<u16>, u128>,
    dests: Arc<[u128]>,
    pos: usize,
    batch: usize,
    req_tx: Vec<Option<SpscProducer<FabricMsg<u128>>>>,
    req_rx: Vec<Option<SpscConsumer<FabricMsg<u128>>>>,
    ctrl_rx: SpscConsumer<CtrlMsg6>,
    outbox: VecDeque<FabricMsg<u128>>,
    /// Empty between flushes (see `runtime::WorkerCore::outbox_scratch`).
    outbox_scratch: VecDeque<FabricMsg<u128>>,
    /// One entry per distinct in-flight address (the W-bit discipline),
    /// flagged while a remote request for it is unanswered.
    pending: PendingTable<u128>,
    /// The waiters of the address being resolved (reused).
    waiters: Vec<Waiter>,
    fe_queue: Vec<u128>,
    results: Vec<CountedLookup>,
    spot_check_every: u64,
    fe_since_check: u64,
    report: WorkerReport,
    done: Arc<AtomicUsize>,
    marked_done: bool,
    completed_this_iter: u64,
    vector: bool,
    out_events: Vec<Vec<OutEvent6>>,
    probe_scratch: Vec<BatchProbe<Option<u16>>>,
    pop_scratch: Vec<FabricMsg<u128>>,
    push_scratch: Vec<FabricMsg<u128>>,
    cold_recorded: bool,
}

struct Worker6 {
    reader: EpochReader<Snapshot6>,
    core: WorkerCore6,
}

impl WorkerCore6 {
    fn complete(&mut self, nh: Option<u16>) {
        self.report.packets += 1;
        self.report.next_hop_sum = self
            .report
            .next_hop_sum
            .wrapping_add(nh.map(|h| h as u64 + 1).unwrap_or(0));
        self.completed_this_iter += 1;
    }

    fn emit_reply(&mut self, dst: u16, addr: u128, packet_id: u64, nh: Option<u16>, version: u64) {
        if self.vector {
            self.out_events[dst as usize].push(OutEvent6::Rep {
                addr,
                packet_id,
                nh,
                version,
            });
        } else {
            self.outbox.push_back(FabricMsg {
                kind: MsgKind::Reply { next_hop: nh },
                src: self.lc as u16,
                dst,
                addr,
                packet_id,
                sent_at: version,
            });
        }
    }

    fn emit_request(&mut self, dst: u16, addr: u128) {
        if self.vector {
            self.out_events[dst as usize].push(OutEvent6::Req { addr });
        } else {
            self.outbox.push_back(FabricMsg {
                kind: MsgKind::Request,
                src: self.lc as u16,
                dst,
                addr,
                packet_id: 0,
                sent_at: 0,
            });
        }
    }

    /// Park a waiter on `addr`; the first waiter creates the job and
    /// routes it (local FE queue or remote request).
    fn park(&mut self, addr: u128, w: Waiter) {
        if let Some(job) = self.pending.park(addr, w) {
            let home = self.part.home_of(addr);
            if home as usize == self.lc {
                self.fe_queue.push(addr);
            } else {
                self.pending.mark_awaiting(job);
                self.report.remote_requests += 1;
                self.emit_request(home, addr);
            }
        }
    }

    /// Complete every waiter just taken off `addr`'s entry (they sit in
    /// `self.waiters`, in parking order) with its resolved result.
    fn resolve(&mut self, addr: u128, nh: Option<u16>, version: u64, now: Instant) {
        let waiters = std::mem::take(&mut self.waiters);
        for &w in &waiters {
            match w {
                Waiter::Local { admitted } => {
                    let ns = now.saturating_duration_since(admitted).as_nanos() as u64;
                    self.report.latency.miss.record(ns);
                    self.complete(nh);
                }
                Waiter::Remote { src, packet_id } => {
                    self.emit_reply(src, addr, packet_id, nh, version)
                }
            }
        }
        self.waiters = waiters;
    }

    fn drain_ctrl(&mut self) -> u64 {
        let mut n = 0;
        while let Some(msg) = self.ctrl_rx.try_pop() {
            n += 1;
            match msg {
                CtrlMsg6::Flush { version } => self.cache.apply_flush(version),
                CtrlMsg6::Invalidate { bits, len, version } => {
                    self.cache.apply_invalidation(bits, len, version);
                }
            }
        }
        n
    }

    fn handle_request_addr(&mut self, src: u16, addr: u128, packet_id: u64, snap: &Snapshot6) {
        debug_assert!(
            self.part.home_of(addr) as usize == self.lc,
            "request arrived at a non-home LC"
        );
        self.report.remote_served += 1;
        match self.cache.probe(addr) {
            ProbeResult::Hit { value, .. } => {
                self.emit_reply(src, addr, packet_id, value, snap.version)
            }
            ProbeResult::HitWaiting => self.park(addr, Waiter::Remote { src, packet_id }),
            ProbeResult::Miss => {
                let _ = self.cache.reserve(addr);
                self.park(addr, Waiter::Remote { src, packet_id });
            }
        }
    }

    fn handle_reply_addr(&mut self, addr: u128, nh: Option<u16>, sent_at: u64, now: Instant) {
        if !self.pending.take_awaiting(addr, &mut self.waiters) {
            self.report.duplicate_replies += 1;
            return;
        }
        self.report.replies_received += 1;
        match self.cache.fill_versioned(addr, nh, Origin::Rem, sent_at) {
            VersionedFill::Cached(_) => {}
            VersionedFill::StaleDropped => self.report.stale_replies += 1,
        }
        self.resolve(addr, nh, sent_at, now);
    }

    /// Route one delivered message; batch messages unpack to the same
    /// per-address handlers, in lane order.
    fn dispatch(&mut self, msg: FabricMsg<u128>, snap: &Snapshot6, now: Instant) {
        match msg.kind {
            MsgKind::Request => self.handle_request_addr(msg.src, msg.addr, msg.packet_id, snap),
            MsgKind::Reply { next_hop } => {
                self.handle_reply_addr(msg.addr, next_hop, msg.sent_at, now)
            }
            MsgKind::BatchRequest(b) => {
                for &addr in b.addrs() {
                    self.handle_request_addr(msg.src, addr, 0, snap);
                }
            }
            MsgKind::BatchReply(b) => {
                for (addr, nh) in b.iter() {
                    self.handle_reply_addr(addr, nh, msg.sent_at, now);
                }
            }
        }
    }

    fn drain_fabric(&mut self, snap: &Snapshot6) -> u64 {
        let now = Instant::now();
        let mut n = 0;
        for src in 0..self.psi {
            let Some(mut rx) = self.req_rx[src].take() else {
                continue;
            };
            if self.vector {
                loop {
                    self.pop_scratch.clear();
                    if rx.pop_slice(&mut self.pop_scratch, DRAIN_BURST) == 0 {
                        break;
                    }
                    n += self.pop_scratch.len() as u64;
                    let msgs = std::mem::take(&mut self.pop_scratch);
                    for &msg in &msgs {
                        self.dispatch(msg, snap, now);
                    }
                    self.pop_scratch = msgs;
                }
            } else {
                while let Some(msg) = rx.try_pop() {
                    n += 1;
                    self.dispatch(msg, snap, now);
                }
            }
            self.req_rx[src] = Some(rx);
        }
        n
    }

    fn admit_own(&mut self) -> u64 {
        let end = (self.pos + self.batch).min(self.dests.len());
        let n = (end - self.pos) as u64;
        if n == 0 {
            return 0;
        }
        if self.pending.in_flight() + self.batch > IN_FLIGHT_WINDOW_BATCHES * self.batch {
            // The in-flight window binds (see `runtime::WorkerCore`).
            self.report.admit_throttled += 1;
            return 0;
        }
        let t0 = Instant::now();
        let (mut loc_hits, mut rem_hits) = (0u64, 0u64);
        if self.vector {
            let mut probes = std::mem::take(&mut self.probe_scratch);
            probes.clear();
            self.cache
                .probe_batch(&self.dests[self.pos..end], &mut probes);
            for (i, lane) in probes.iter().enumerate() {
                match *lane {
                    BatchProbe::Hit { value, origin } => {
                        match origin {
                            Origin::Loc => loc_hits += 1,
                            Origin::Rem => rem_hits += 1,
                        }
                        self.complete(value);
                    }
                    BatchProbe::Waiting | BatchProbe::MissReserved | BatchProbe::MissUnrecorded => {
                        self.park(self.dests[self.pos + i], Waiter::Local { admitted: t0 });
                    }
                }
            }
            self.probe_scratch = probes;
        } else {
            for i in self.pos..end {
                let addr = self.dests[i];
                match self.cache.probe(addr) {
                    ProbeResult::Hit { value, origin } => {
                        match origin {
                            Origin::Loc => loc_hits += 1,
                            Origin::Rem => rem_hits += 1,
                        }
                        self.complete(value);
                    }
                    ProbeResult::HitWaiting => self.park(addr, Waiter::Local { admitted: t0 }),
                    ProbeResult::Miss => {
                        let _ = self.cache.reserve(addr);
                        self.park(addr, Waiter::Local { admitted: t0 });
                    }
                }
            }
        }
        self.report.timestamp_pairs += 1;
        let dt = t0.elapsed().as_nanos() as u64;
        self.report.latency.loc_hit.record_n(dt, loc_hits);
        self.report.latency.rem_hit.record_n(dt, rem_hits);
        self.pos = end;
        n
    }

    fn fe_flush(&mut self, snap: &Snapshot6) {
        if self.fe_queue.is_empty() {
            return;
        }
        let addrs = std::mem::take(&mut self.fe_queue);
        self.results.clear();
        self.results.resize(addrs.len(), CountedLookup::MISS);
        let table = &snap.tables[self.lc];
        table.lookup_batch(&addrs, &mut self.results);
        self.report.fe_batches += 1;
        self.report.fe_lookups += addrs.len() as u64;
        let now = Instant::now();
        for (i, &addr) in addrs.iter().enumerate() {
            let res = self.results[i];
            if self.spot_check_every > 0 {
                self.fe_since_check += 1;
                if self.fe_since_check >= self.spot_check_every {
                    self.fe_since_check = 0;
                    self.report.spot_checks += 1;
                    if table.lookup_counted(addr) != res {
                        self.report.spot_check_mismatches += 1;
                    }
                }
            }
            let nh = res.next_hop.map(|h| h.0);
            self.pending.take(addr, &mut self.waiters);
            self.cache.fill_local(addr, nh, Origin::Loc);
            self.resolve(addr, nh, snap.version, now);
        }
        self.fe_queue = addrs;
        self.fe_queue.clear();
    }

    /// Coalesce the per-destination event streams into outbox messages
    /// (see `runtime::WorkerCore::pack_events`).
    fn pack_events(&mut self) {
        for dst in 0..self.psi {
            if self.out_events[dst].is_empty() {
                continue;
            }
            let events = std::mem::take(&mut self.out_events[dst]);
            let src = self.lc as u16;
            let mut i = 0;
            while i < events.len() {
                match events[i] {
                    OutEvent6::Req { addr } => {
                        let mut addrs = [0u128; BATCH_MSG_LANES];
                        let mut n = 0;
                        while i + n < events.len() && n < BATCH_MSG_LANES {
                            let OutEvent6::Req { addr } = events[i + n] else {
                                break;
                            };
                            addrs[n] = addr;
                            n += 1;
                        }
                        let kind = if n == 1 {
                            MsgKind::Request
                        } else {
                            self.report.batch_requests_sent += 1;
                            MsgKind::BatchRequest(AddrBatch::from_slice(&addrs[..n]))
                        };
                        self.outbox.push_back(FabricMsg {
                            kind,
                            src,
                            dst: dst as u16,
                            addr,
                            packet_id: 0,
                            sent_at: 0,
                        });
                        i += n;
                    }
                    OutEvent6::Rep {
                        addr,
                        packet_id,
                        nh,
                        version,
                    } => {
                        let mut pairs = [(0u128, None); BATCH_MSG_LANES];
                        let mut n = 0;
                        while i + n < events.len() && n < BATCH_MSG_LANES {
                            let OutEvent6::Rep {
                                addr,
                                nh,
                                version: v,
                                ..
                            } = events[i + n]
                            else {
                                break;
                            };
                            if v != version {
                                break;
                            }
                            pairs[n] = (addr, nh);
                            n += 1;
                        }
                        let kind = if n == 1 {
                            MsgKind::Reply { next_hop: nh }
                        } else {
                            self.report.batch_replies_sent += 1;
                            MsgKind::BatchReply(ReplyBatch::from_pairs(&pairs[..n]))
                        };
                        self.outbox.push_back(FabricMsg {
                            kind,
                            src,
                            dst: dst as u16,
                            addr,
                            packet_id,
                            sent_at: version,
                        });
                        i += n;
                    }
                }
            }
            let mut events = events;
            events.clear();
            self.out_events[dst] = events;
        }
    }

    /// Try to deliver queued messages; a full destination ring defers
    /// its messages (in order) to the next iteration rather than block.
    fn flush_outbox(&mut self) {
        self.pack_events();
        if self.outbox.is_empty() {
            return;
        }
        // Destinations whose ring filled this pass, one bit each.
        let mut blocked = 0u64;
        let mut deferred = std::mem::take(&mut self.outbox_scratch);
        while let Some(msg) = self.outbox.pop_front() {
            let dst = msg.dst as usize;
            if blocked >> dst & 1 == 1 {
                deferred.push_back(msg);
                continue;
            }
            self.push_scratch.clear();
            self.push_scratch.push(msg);
            while self.outbox.front().is_some_and(|m| m.dst as usize == dst) {
                let m = self.outbox.pop_front().expect("front checked");
                self.push_scratch.push(m);
            }
            let tx = self.req_tx[dst]
                .as_mut()
                .expect("messages are never addressed to self");
            let pushed = tx.push_slice(&self.push_scratch);
            let depth = tx.len() as u64;
            if depth > self.report.max_ring_depth {
                self.report.max_ring_depth = depth;
            }
            if pushed < self.push_scratch.len() {
                blocked |= 1 << dst;
                deferred.extend(self.push_scratch[pushed..].iter().copied());
            }
        }
        // The drained outbox becomes the next pass's empty scratch.
        self.outbox_scratch = std::mem::replace(&mut self.outbox, deferred);
    }

    fn maybe_mark_done(&mut self) {
        if !self.marked_done
            && self.pos >= self.dests.len()
            && self.pending.is_empty()
            && self.outbox.is_empty()
            && self.out_events.iter().all(|e| e.is_empty())
        {
            self.marked_done = true;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn maybe_snapshot_cold(&mut self) {
        if !self.cold_recorded && self.pos * 2 >= self.dests.len() {
            self.cold_recorded = true;
            self.report.cache_cold = *self.cache.stats();
        }
    }

    fn step(&mut self, snap: &Snapshot6) -> (u64, u64) {
        self.completed_this_iter = 0;
        let mut work = self.drain_ctrl();
        work += self.drain_fabric(snap);
        work += self.admit_own();
        self.report.max_in_flight = self
            .report
            .max_in_flight
            .max(self.pending.in_flight() as u64);
        self.maybe_snapshot_cold();
        self.fe_flush(snap);
        self.flush_outbox();
        self.maybe_mark_done();
        (work, self.completed_this_iter)
    }

    fn finalize_report(&mut self) {
        self.report.lc = self.lc;
        self.report.cache = *self.cache.stats();
    }
}

/// Bounded exponential backoff for empty SPSC polls (see
/// `runtime::Backoff` for the oversubscription rationale).
struct Backoff {
    step: u32,
    spin_steps: u32,
}

impl Backoff {
    const SPIN_STEPS: u32 = 6;

    fn new(threads: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Backoff {
            step: 0,
            spin_steps: if cores >= threads {
                Self::SPIN_STEPS
            } else {
                0
            },
        }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn snooze(&mut self) {
        if self.step < self.spin_steps {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

impl Worker6 {
    fn iterate(&mut self) -> (u64, u64) {
        let pin = self.reader.pin();
        self.core.step(&pin)
    }

    fn all_done(&self) -> bool {
        self.core.done.load(Ordering::SeqCst) >= self.core.psi
    }

    fn run_threaded(mut self) -> (WorkerReport, Vec<f64>) {
        let mut samples = Vec::new();
        let mut backoff = Backoff::new(self.core.psi + 1);
        loop {
            let t0 = Instant::now();
            let (work, completed) = self.iterate();
            if completed > 0 {
                samples.push(t0.elapsed().as_nanos() as f64 / completed as f64);
            }
            if self.core.marked_done && self.all_done() {
                break;
            }
            if work == 0 {
                backoff.snooze();
            } else {
                backoff.reset();
            }
        }
        self.core.finalize_report();
        (self.core.report, samples)
    }
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

struct Control6 {
    part: Arc<Partitioning6>,
    algorithm: LpmAlgorithm6,
    /// Per-LC v6 RIB fragments — the rebuild source for declined
    /// patches and the oracle for the final consistency check.
    per_lc_rib: Vec<RoutingTable6>,
    /// Updates ingested but not yet reflected in *both* snapshot
    /// copies; `log[i]` has sequence number `base_seq + i`.
    log: Vec<Update6>,
    base_seq: u64,
    next_seq: u64,
    writer: EpochWriter<Snapshot6>,
    shadow: Option<Box<Snapshot6>>,
    ctrl_tx: Vec<SpscProducer<CtrlMsg6>>,
    mode: InvalidationMode,
    done: Arc<AtomicUsize>,
    psi: usize,
    blocking: bool,
    delta_patching: bool,
    report: ChurnReport,
}

impl Control6 {
    /// Bring `snap` up to `next_seq`: changed prefixes coalesced per
    /// LC, dispatched to [`Lpm6::apply_delta`], fragment rebuilt from
    /// the post-update RIB on decline.
    fn sync(&mut self, snap: &mut Snapshot6) {
        let from = (snap.applied_seq - self.base_seq) as usize;
        let mut changed: Vec<Vec<Prefix6>> = vec![Vec::new(); self.psi];
        for &u in &self.log[from..] {
            let p = update_prefix6(u);
            for lc in self.part.lcs_of_prefix(p) {
                let per_lc = &mut changed[lc as usize];
                if !per_lc.contains(&p) {
                    per_lc.push(p);
                }
            }
        }
        for (lc, prefixes) in changed.iter().enumerate() {
            if prefixes.is_empty() {
                continue;
            }
            let patched = if self.delta_patching {
                snap.tables[lc].apply_delta(prefixes, &self.per_lc_rib[lc])
            } else {
                None
            };
            match patched {
                Some(stats) => {
                    self.report.delta_applies += 1;
                    self.report.delta_bytes_touched += stats.bytes_touched as u64;
                    self.report.delta_prefixes_applied += stats.prefixes_applied as u64;
                }
                None => {
                    self.report.rebuild_applies += 1;
                    snap.tables[lc] = ForwardingTable6::build(self.algorithm, &self.per_lc_rib[lc]);
                }
            }
        }
        snap.applied_seq = self.next_seq;
    }

    fn broadcast(&mut self, msg: CtrlMsg6) {
        for lc in 0..self.psi {
            let tx = &mut self.ctrl_tx[lc];
            loop {
                match tx.try_push(msg) {
                    Ok(()) => {
                        self.report.invalidations_sent += 1;
                        break;
                    }
                    Err(_) => {
                        if self.done.load(Ordering::SeqCst) >= self.psi {
                            break;
                        }
                        assert!(
                            self.blocking,
                            "control ring overflow in deterministic mode (capacity bug)"
                        );
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Apply one update batch and make it visible to the dataplane
    /// (RIB fragments → shadow patch/rebuild → RCU swap → targeted or
    /// full-flush invalidation; the grace wait lands off the timed
    /// apply window, as in the v4 control plane).
    fn publish_batch(&mut self, batch: &[Update6]) {
        let mut shadow = self.shadow.take().expect("shadow snapshot present");
        let t0 = Instant::now();
        for &u in batch {
            for lc in self.part.lcs_of_prefix(update_prefix6(u)) {
                let rib = &mut self.per_lc_rib[lc as usize];
                match u {
                    Update6::Announce(e) => {
                        rib.insert(e);
                    }
                    Update6::Withdraw(p) => {
                        rib.remove(p);
                    }
                }
            }
            self.log.push(u);
            self.next_seq += 1;
        }
        self.sync(&mut shadow);
        shadow.version = self.writer.epoch() + 1;
        let lag = self.writer.peek().applied_seq;
        let retiring = self.writer.publish_deferred(shadow);
        self.report
            .apply_us
            .record(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        self.shadow = Some(retiring.into_inner());
        self.report
            .reclaim_us
            .record(t1.elapsed().as_secs_f64() * 1e6);
        self.log.drain(..(lag - self.base_seq) as usize);
        self.base_seq = lag;
        let version = self.writer.epoch();
        match self.mode {
            InvalidationMode::FullFlush => self.broadcast(CtrlMsg6::Flush { version }),
            InvalidationMode::Targeted => {
                for &u in batch {
                    let p = update_prefix6(u);
                    self.broadcast(CtrlMsg6::Invalidate {
                        bits: p.bits(),
                        len: p.len(),
                        version,
                    });
                }
            }
        }
        self.report.updates_applied += batch.len() as u64;
        self.report.publications += 1;
    }

    fn run_paced(&mut self, updates: &[Update6], per_pub: usize, pace_us: u64) {
        for batch in updates.chunks(per_pub.max(1)) {
            if self.done.load(Ordering::SeqCst) >= self.psi {
                break;
            }
            self.publish_batch(batch);
            if pace_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(pace_us));
            }
        }
    }

    /// Sample the published tables against the per-LC RIB oracle (each
    /// address checked at its home LC).
    fn final_check(&mut self, samples: usize, seed: u64) {
        let mut x = seed | 1;
        for i in 0..samples {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Half the probes land inside live prefixes, half are
            // uniform random (mostly misses).
            let addr = if i % 2 == 0 {
                let mut best = None;
                for rib in &self.per_lc_rib {
                    if !rib.is_empty() {
                        best = Some(rib.entries()[x as usize % rib.len()]);
                        break;
                    }
                }
                match best {
                    Some(e) => e.prefix.bits() | (x as u128),
                    None => (x as u128) << 64 | x.rotate_left(29) as u128,
                }
            } else {
                (x as u128) << 64 | x.rotate_left(29) as u128
            };
            let lc = self.part.home_of(addr) as usize;
            let expect = self.per_lc_rib[lc].longest_match(addr).map(|e| e.next_hop);
            let got = self.writer.peek().tables[lc].lookup(addr);
            self.report.final_checks += 1;
            if expect != got {
                self.report.final_mismatches += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Run orchestration
// ---------------------------------------------------------------------

/// Run the IPv6 dataplane over `traces` (trace `i % traces.len()`
/// drives worker `i`) against `table`.
pub fn run6(table: &RoutingTable6, traces: &[Trace6], cfg: &Dataplane6Config) -> DataplaneReport {
    let psi = cfg.workers;
    assert!(psi >= 1, "need at least one worker");
    assert!(psi <= MAX_WORKERS, "at most {MAX_WORKERS} workers");
    assert!(!traces.is_empty(), "need at least one trace");
    assert!(
        traces.iter().all(|t| !t.is_empty()),
        "traces must be non-empty"
    );

    let bits = select_bits6(table, eta_for(psi));
    let part = Arc::new(Partitioning6::new(table, bits, psi));
    let per_lc_rib = part.forwarding_tables(table);
    let build = |version: u64| {
        Box::new(Snapshot6 {
            tables: per_lc_rib
                .iter()
                .map(|f| ForwardingTable6::build(cfg.algorithm, f))
                .collect(),
            applied_seq: 0,
            version,
        })
    };
    let (writer, readers) = epoch_table(build(0), psi);
    let shadow = build(0);

    // Fabric rings: one SPSC ring per ordered worker pair.
    let mut tx_mat: Vec<Vec<Option<SpscProducer<FabricMsg<u128>>>>> =
        (0..psi).map(|_| (0..psi).map(|_| None).collect()).collect();
    let mut rx_mat: Vec<Vec<Option<SpscConsumer<FabricMsg<u128>>>>> =
        (0..psi).map(|_| (0..psi).map(|_| None).collect()).collect();
    for src in 0..psi {
        for dst in 0..psi {
            if src != dst {
                let (tx, rx) = spsc_ring(cfg.ring_capacity.max(2));
                tx_mat[src][dst] = Some(tx);
                rx_mat[dst][src] = Some(rx);
            }
        }
    }

    // Control rings, sized so one publication's worth of targeted
    // invalidations always fits.
    let per_pub = cfg
        .churn
        .as_ref()
        .map(|c| c.updates_per_publication)
        .unwrap_or(0);
    let ctrl_cap = cfg.ring_capacity.max(2 * per_pub + 8);
    let mut ctrl_tx = Vec::with_capacity(psi);
    let mut ctrl_rx = Vec::with_capacity(psi);
    for _ in 0..psi {
        let (tx, rx) = spsc_ring(ctrl_cap);
        ctrl_tx.push(tx);
        ctrl_rx.push(rx);
    }

    let done = Arc::new(AtomicUsize::new(0));
    let mut workers: Vec<Worker6> = Vec::with_capacity(psi);
    for (lc, reader) in readers.into_iter().enumerate() {
        workers.push(Worker6 {
            reader,
            core: WorkerCore6 {
                lc,
                psi,
                part: Arc::clone(&part),
                cache: VersionedCache::new(LrCache::new(cfg.cache.clone())),
                dests: traces[lc % traces.len()].destinations_shared(),
                pos: 0,
                batch: cfg.batch.max(1),
                req_tx: std::mem::take(&mut tx_mat[lc]),
                req_rx: std::mem::take(&mut rx_mat[lc]),
                ctrl_rx: ctrl_rx.remove(0),
                outbox: VecDeque::new(),
                outbox_scratch: VecDeque::new(),
                pending: PendingTable::with_capacity(2 * cfg.batch.max(1)),
                waiters: Vec::new(),
                fe_queue: Vec::new(),
                results: Vec::new(),
                spot_check_every: cfg.spot_check_every,
                fe_since_check: 0,
                report: WorkerReport::default(),
                done: Arc::clone(&done),
                marked_done: false,
                completed_this_iter: 0,
                vector: cfg.vector,
                out_events: (0..psi).map(|_| Vec::new()).collect(),
                probe_scratch: Vec::new(),
                pop_scratch: Vec::new(),
                push_scratch: Vec::new(),
                cold_recorded: false,
            },
        });
    }

    let mut control = Control6 {
        part: Arc::clone(&part),
        algorithm: cfg.algorithm,
        per_lc_rib,
        log: Vec::new(),
        base_seq: 0,
        next_seq: 0,
        writer,
        shadow: Some(shadow),
        ctrl_tx,
        mode: cfg.invalidation,
        done: Arc::clone(&done),
        psi,
        blocking: !cfg.deterministic,
        delta_patching: cfg.delta_patching,
        report: ChurnReport::default(),
    };

    let updates = cfg.churn.as_ref().map(|c| {
        update_stream6(
            table,
            &UpdateStreamConfig {
                count: c.updates,
                withdraw_fraction: c.withdraw_fraction,
                seed: cfg.seed ^ 0x5EED_CAF6,
            },
        )
        .0
    });

    let t0 = Instant::now();
    let (mut results, coherence) = if cfg.deterministic {
        let r = run_deterministic(&mut workers, &mut control, updates.as_deref(), cfg);
        // Post-quiesce coherence sweep: drain trailing invalidations,
        // then every resident cache entry must agree with the per-LC
        // RIB oracle.
        let mut entries_checked = 0u64;
        let mut mismatches = 0u64;
        for w in workers.iter_mut() {
            w.core.drain_ctrl();
            for (addr, value) in w.core.cache.entries() {
                let home = control.part.home_of(addr) as usize;
                let expect = control.per_lc_rib[home]
                    .longest_match(addr)
                    .map(|e| e.next_hop.0);
                entries_checked += 1;
                if value != expect {
                    mismatches += 1;
                }
            }
        }
        (
            r,
            Some(CoherenceSummary {
                entries_checked,
                mismatches,
            }),
        )
    } else {
        let r = run_threaded(workers, &mut control, updates.as_deref(), cfg);
        (r, None)
    };
    let elapsed = t0.elapsed();

    let mut report = DataplaneReport {
        deterministic: cfg.deterministic,
        elapsed,
        ..Default::default()
    };
    let mut all_samples = Vec::new();
    results.sort_by_key(|(w, _)| w.lc);
    for (w, samples) in results {
        all_samples.extend(samples);
        report.workers.push(w);
    }
    report.tail = TailSummary::from_samples(all_samples);
    if cfg.churn.is_some() {
        control.final_check(1_000, cfg.seed ^ 0xF1A6);
        report.churn = Some(control.report.clone());
    }
    report.coherence = coherence;
    report
}

fn run_threaded(
    workers: Vec<Worker6>,
    control: &mut Control6,
    updates: Option<&[Update6]>,
    cfg: &Dataplane6Config,
) -> Vec<(WorkerReport, Vec<f64>)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| s.spawn(move || w.run_threaded()))
            .collect();
        if let Some(updates) = updates {
            let churn = cfg.churn.as_ref().expect("updates imply churn config");
            control.run_paced(updates, churn.updates_per_publication, churn.pace_us);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

fn run_deterministic(
    workers: &mut [Worker6],
    control: &mut Control6,
    updates: Option<&[Update6]>,
    cfg: &Dataplane6Config,
) -> Vec<(WorkerReport, Vec<f64>)> {
    let psi = workers.len();
    let done = Arc::clone(&workers[0].core.done);
    // Spread publications evenly over the rounds the longest trace
    // needs, so churn overlaps forwarding deterministically.
    let mut batches: VecDeque<&[Update6]> = match (updates, cfg.churn.as_ref()) {
        (Some(u), Some(c)) => u.chunks(c.updates_per_publication.max(1)).collect(),
        _ => VecDeque::new(),
    };
    let longest = workers
        .iter()
        .map(|w| w.core.dests.len())
        .max()
        .unwrap_or(0);
    let total_rounds = longest.div_ceil(cfg.batch.max(1)).max(1);
    let publish_every = (total_rounds / (batches.len() + 1)).max(1);

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); psi];
    let mut round = 0usize;
    let round_cap = 1000 * total_rounds + 10_000;
    while done.load(Ordering::SeqCst) < psi {
        round += 1;
        assert!(
            round <= round_cap,
            "deterministic schedule failed to quiesce"
        );
        if !batches.is_empty() && round.is_multiple_of(publish_every) {
            let batch = batches.pop_front().expect("non-empty");
            control.publish_batch(batch);
        }
        for (i, w) in workers.iter_mut().enumerate() {
            let t0 = Instant::now();
            let (_, completed) = w.iterate();
            if completed > 0 {
                samples[i].push(t0.elapsed().as_nanos() as f64 / completed as f64);
            }
        }
    }
    // Publish whatever churn remains so the final table reflects the
    // whole stream.
    while let Some(batch) = batches.pop_front() {
        control.publish_batch(batch);
    }
    workers
        .iter_mut()
        .map(|w| {
            w.core.finalize_report();
            (
                w.core.report.clone(),
                std::mem::take(&mut samples[w.core.lc]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::v6::synthesize6_dfz;
    use spal_traffic::generate6;

    fn small_setup(psi: usize, packets: usize) -> (RoutingTable6, Vec<Trace6>) {
        let table = synthesize6_dfz(3_000, 11);
        let trace = generate6(&table, 400, psi * packets, 5);
        (table, trace.split(psi))
    }

    fn oracle_checksum(table: &RoutingTable6, traces: &[Trace6]) -> (u64, u64) {
        let mut packets = 0u64;
        let mut sum = 0u64;
        for t in traces {
            for &addr in t.destinations() {
                packets += 1;
                sum = sum.wrapping_add(
                    table
                        .longest_match(addr)
                        .map(|e| e.next_hop.0 as u64 + 1)
                        .unwrap_or(0),
                );
            }
        }
        (packets, sum)
    }

    fn checksum(report: &DataplaneReport) -> u64 {
        report
            .workers
            .iter()
            .fold(0u64, |acc, w| acc.wrapping_add(w.next_hop_sum))
    }

    #[test]
    fn deterministic_single_worker_matches_oracle() {
        let (table, traces) = small_setup(1, 3_000);
        let cfg = Dataplane6Config {
            workers: 1,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            ..Default::default()
        };
        let report = run6(&table, &traces, &cfg);
        let (packets, sum) = oracle_checksum(&table, &traces);
        assert_eq!(report.total_packets(), packets);
        assert_eq!(checksum(&report), sum);
        assert_eq!(report.workers[0].spot_check_mismatches, 0);
        assert!(report.workers[0].remote_requests == 0);
    }

    #[test]
    fn deterministic_multi_worker_matches_oracle_and_shares_results() {
        let (table, traces) = small_setup(4, 2_000);
        let cfg = Dataplane6Config {
            workers: 4,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            ..Default::default()
        };
        let report = run6(&table, &traces, &cfg);
        let (packets, sum) = oracle_checksum(&table, &traces);
        assert_eq!(report.total_packets(), packets);
        assert_eq!(checksum(&report), sum);
        assert!(report.workers.iter().all(|w| w.spot_check_mismatches == 0));
        let remote: u64 = report.workers.iter().map(|w| w.remote_requests).sum();
        let served: u64 = report.workers.iter().map(|w| w.remote_served).sum();
        assert!(remote > 0, "expected cross-LC requests");
        assert_eq!(remote, served);
        // Vector mode actually coalesced messages.
        let batched: u64 = report
            .workers
            .iter()
            .map(|w| w.batch_requests_sent + w.batch_replies_sent)
            .sum();
        assert!(batched > 0, "no v6 message was ever coalesced");
    }

    #[test]
    fn deterministic_runs_are_reproducible() {
        let (table, traces) = small_setup(3, 1_000);
        let cfg = Dataplane6Config {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(128),
            ..Default::default()
        };
        let a = run6(&table, &traces, &cfg);
        let b = run6(&table, &traces, &cfg);
        assert_eq!(checksum(&a), checksum(&b));
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.cache, wb.cache, "lc {} stats differ", wa.lc);
            assert_eq!(wa.fe_lookups, wb.fe_lookups);
            assert_eq!(wa.remote_requests, wb.remote_requests);
        }
    }

    #[test]
    fn scalar_and_vector_match_under_churn_with_zero_divergence() {
        let (table, traces) = small_setup(3, 2_000);
        let base = Dataplane6Config {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            churn: Some(ChurnConfig {
                updates: 120,
                updates_per_publication: 20,
                withdraw_fraction: 0.3,
                pace_us: 0,
            }),
            seed: 7,
            ..Default::default()
        };
        let vector = run6(&table, &traces, &base);
        let scalar = run6(
            &table,
            &traces,
            &Dataplane6Config {
                vector: false,
                ..base
            },
        );
        // Identical per-address operation sequences in both modes.
        assert_eq!(checksum(&vector), checksum(&scalar));
        assert_eq!(vector.total_packets(), scalar.total_packets());
        for r in [&vector, &scalar] {
            assert!(r.workers.iter().all(|w| w.spot_check_mismatches == 0));
            let churn = r.churn.as_ref().expect("churn configured");
            assert!(churn.publications > 0);
            assert_eq!(churn.final_mismatches, 0, "published tables diverged");
            let coh = r.coherence.as_ref().expect("deterministic sweep");
            assert_eq!(coh.mismatches, 0, "cache coherence violated");
        }
        // SHIP declines rebuild per-LC fragments; either path must have
        // engaged on every publication.
        let churn = vector.churn.as_ref().unwrap();
        assert!(churn.delta_applies + churn.rebuild_applies > 0);
    }

    #[test]
    fn threaded_run_with_churn_matches_oracle_checks() {
        let (table, traces) = small_setup(4, 2_000);
        let cfg = Dataplane6Config {
            workers: 4,
            cache: LrCacheConfig::paper(256),
            churn: Some(ChurnConfig {
                updates: 200,
                updates_per_publication: 25,
                withdraw_fraction: 0.3,
                pace_us: 0,
            }),
            ..Default::default()
        };
        let report = run6(&table, &traces, &cfg);
        let (packets, _) = oracle_checksum(&table, &traces);
        assert_eq!(report.total_packets(), packets);
        assert!(report.workers.iter().all(|w| w.spot_check_mismatches == 0));
        let churn = report.churn.as_ref().expect("churn configured");
        assert_eq!(churn.final_mismatches, 0);
    }

    #[test]
    fn full_flush_mode_also_stays_coherent() {
        let (table, traces) = small_setup(2, 1_500);
        let cfg = Dataplane6Config {
            workers: 2,
            deterministic: true,
            invalidation: InvalidationMode::FullFlush,
            cache: LrCacheConfig::paper(128),
            churn: Some(ChurnConfig {
                updates: 80,
                updates_per_publication: 20,
                withdraw_fraction: 0.4,
                pace_us: 0,
            }),
            ..Default::default()
        };
        let report = run6(&table, &traces, &cfg);
        assert_eq!(report.coherence.as_ref().unwrap().mismatches, 0);
        assert_eq!(report.churn.as_ref().unwrap().final_mismatches, 0);
    }
}
