//! The multi-threaded SPAL runtime, generic over the address family.
//!
//! ψ LC **workers** each own one ROT-partition forwarding engine (read
//! through the epoch layer) and one local LR-cache, and exchange
//! home-LC request/reply [`FabricMsg`]s over bounded lock-free SPSC
//! rings — the concurrency mechanism behind the timing the
//! discrete-event simulator models. A **control plane** consumes a BGP
//! update stream, patches a shadow snapshot chunk-granularly through
//! each engine's `apply_delta` (falling back to a per-LC fragment
//! rebuild when an engine declines), publishes the snapshot RCU-style
//! ([`crate::epoch`]), and broadcasts either a full-flush or
//! prefix-targeted cache invalidations.
//!
//! Everything here is written once over an [`AddrFamily`]: [`run`] is
//! the IPv4 instantiation, [`run6`] the IPv6 one, and fault injection,
//! LC failover, overload admission, live probes and coherence sweeps
//! work at either width.
//!
//! ## Worker iteration
//!
//! Each iteration a worker: pins the current snapshot, drains its
//! control ring (cache invalidations), drains its fabric rings
//! (requests from other workers and replies to its own), admits one
//! batch from its trace, resolves the accumulated FE queue through one
//! `forward_batch` call, and flushes its outbox: one queue of messages
//! per destination, each request or reply lane appended to the newest
//! message where it is emitted (`emit_request`/`emit_reply`). Missed
//! addresses are *parked* (one pending job per distinct address — the W-bit early
//! recording discipline of §3.2) so duplicate work is never issued;
//! each resolved address completes every parked waiter at once, either
//! locally or with a reply over the fabric.
//!
//! Pushes never block: undeliverable messages stay in their
//! destination's queue and retry next iteration while the worker keeps
//! draining its own rings — so two workers flooding each other cannot
//! deadlock.
//! A worker is *done* when its trace is exhausted and it holds no
//! pending jobs, queued messages, or outstanding requests; it keeps
//! serving remote requests until every worker is done.
//!
//! ## Update visibility
//!
//! Fills racing a publication are benign in one direction (a fresh
//! entry invalidated spuriously) and handled explicitly in the other:
//! replies carry the table version they were computed against, and a
//! reply older than the receiver's last-processed invalidation
//! completes its packet but is not cached (`stale_replies`).

use crate::epoch::{epoch_table, EpochReader, EpochWriter};
use crate::family::{AddrFamily, V4, V6};
use crate::fault::{FaultInjector, FaultPlan};
use crate::pending::{PendingTable, Waiter};
use crate::report::{
    ChurnReport, DataplaneReport, FailoverSummary, FaultReport, SweepSummary, WorkerReport,
};
use crate::scenario::LiveProbe;
use crate::vcache::{VersionedCache, VersionedFill};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spal_cache::{BatchProbe, LrCache, LrCacheConfig, Origin};
use spal_core::bits::eta_for;
use spal_core::{select_bits, Partitioning};
use spal_fabric::{
    spsc_ring, AddrBatch, FabricMsg, MsgKind, ReplyBatch, SpscConsumer, SpscProducer,
};
use spal_lpm::Lpm;
use spal_rib::updates::{apply_batch, update_stream, Update, UpdateStreamConfig};
use spal_rib::v6::RoutingTable6;
use spal_rib::{NextHop, Prefix, RoutingTable};
use spal_traffic::{Trace, Trace6};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the control plane invalidates LR-caches after a publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvalidationMode {
    /// §3.2 baseline: flush every cache entirely after each update
    /// batch.
    FullFlush,
    /// Evict only entries covered by the changed prefixes
    /// ([`LrCache::invalidate_covered`]); unaffected entries keep their
    /// hits across churn.
    #[default]
    Targeted,
}

/// BGP churn applied while the dataplane forwards.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Total updates in the synthetic stream.
    pub updates: usize,
    /// Updates applied per snapshot publication.
    pub updates_per_publication: usize,
    /// Fraction of updates that withdraw a live route.
    pub withdraw_fraction: f64,
    /// Threaded runs: minimum microseconds between publications
    /// (0 = publish as fast as possible). Deterministic runs ignore
    /// this and spread publications evenly over the trace.
    pub pace_us: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            updates: 2_000,
            updates_per_publication: 50,
            withdraw_fraction: 0.3,
            pace_us: 200,
        }
    }
}

/// Deterministic LC-failure schedule: the scripted line-card loss the
/// failover scenario injects. The victim worker dies — stops draining
/// its rings, loses its unfinished packets, and marks itself done —
/// right after admitting `after_packets` of its own trace; the control
/// plane notices and re-homes its ROT partition across the survivors
/// online (see `Control::remap_failed`).
#[derive(Debug, Clone, Copy)]
pub struct FailoverPlan {
    /// The LC worker that dies (must be `< workers`, and `workers >= 2`
    /// so survivors exist).
    pub lc: u16,
    /// The victim dies once it has admitted at least this many of its
    /// own packets.
    pub after_packets: u64,
}

/// Sustained-overload admission: offered load above capacity with a
/// bounded ingress queue per worker. Arrivals are modelled by a token
/// bucket at `offered_pps`; packets the worker cannot admit pile into
/// an ingress queue capped at `ingress_capacity`, and the overflow is
/// dropped (head-drop) and accounted — never silently completed.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Offered load per worker, packets per second.
    pub offered_pps: f64,
    /// Bounded ingress queue: packets that have arrived but are not yet
    /// admitted, beyond which arrivals drop.
    pub ingress_capacity: usize,
}

/// Configuration of one dataplane run. The address family only picks
/// the type of `algorithm`; a bare `DataplaneConfig` is the IPv4 one.
#[derive(Debug, Clone)]
pub struct DataplaneConfig<F: AddrFamily = V4> {
    /// Number of LC worker threads ψ (at most [`MAX_WORKERS`]).
    pub workers: usize,
    /// LPM structure each partition engine runs.
    pub algorithm: F::Algorithm,
    /// Per-worker LR-cache configuration.
    pub cache: LrCacheConfig,
    /// Packets a worker admits from its trace per iteration.
    pub batch: usize,
    /// Capacity of each fabric SPSC ring.
    pub ring_capacity: usize,
    /// Churn stream (`None` = static table).
    pub churn: Option<ChurnConfig>,
    /// Cache-invalidation strategy after publications.
    pub invalidation: InvalidationMode,
    /// Cross-check every Nth FE batch result against the scalar `lookup`
    /// on the same pinned snapshot (0 = off).
    pub spot_check_every: u64,
    /// Run single-threaded with a fixed round-robin schedule — results
    /// are exactly reproducible (the sim-parity suite and the
    /// quickstart example run it).
    pub deterministic: bool,
    /// Seed for the churn stream and the final consistency sampler.
    pub seed: u64,
    /// Fault-injection plan (`None` = faultless fabric). Deterministic
    /// for a given plan seed; see [`crate::fault`].
    pub faults: Option<FaultPlan>,
    /// Scripted LC failure with online re-partitioning (`None` = no
    /// failure; the default).
    pub failover: Option<FailoverPlan>,
    /// Overload admission gate (`None` = admit straight from the trace;
    /// the default). Wall-clock-paced, so only meaningful on threaded
    /// runs.
    pub overload: Option<OverloadConfig>,
    /// Live progress probe the scenario runner samples concurrently
    /// with the run (`None` = no probe; the default).
    pub probe: Option<Arc<LiveProbe>>,
    /// Deterministic runs: every N rounds, drain each live worker's
    /// control ring and compare every resident cache entry against the
    /// per-LC RIB oracle (0 = off; the default). The soak scenario's
    /// periodic invariant sweep.
    pub sweep_every: usize,
}

/// Configuration of one IPv6 dataplane run.
pub type Dataplane6Config = DataplaneConfig<V6>;

impl<F: AddrFamily> Default for DataplaneConfig<F> {
    fn default() -> Self {
        DataplaneConfig {
            workers: 4,
            algorithm: F::DEFAULT_ALGORITHM,
            cache: LrCacheConfig::paper(4096),
            batch: 32,
            ring_capacity: 1024,
            churn: None,
            invalidation: InvalidationMode::Targeted,
            spot_check_every: 64,
            deterministic: false,
            seed: 1,
            faults: None,
            failover: None,
            overload: None,
            probe: None,
            sweep_every: 0,
        }
    }
}

/// One published forwarding state: every LC's partition engine.
struct Snapshot<F: AddrFamily> {
    /// Per LC, the engine — one allocation shared with the other
    /// ping-pong copy until the control plane patches this copy's
    /// (`Control::patch_tables`), so an untouched LC holds one engine.
    tables: Vec<Arc<F::Engine>>,
    /// Publication version (epoch at publish time); stamps replies.
    version: u64,
    /// The partitioning `tables` was built for. Published through the
    /// same RCU pointer as the tables so a re-partitioning after an LC
    /// failure reaches every worker atomically with the re-homed
    /// fragments (workers adopt it in `sync_partition`).
    part: Arc<Partitioning>,
    /// Bitmask of dead LCs under this snapshot (bit `i` = LC `i`).
    dead: u64,
}

/// Control-plane → worker messages.
#[derive(Debug, Clone, Copy)]
enum CtrlMsg<A> {
    /// Flush the whole LR-cache (post-publication, FullFlush mode).
    Flush { version: u64 },
    /// Evict entries covered by one changed prefix (Targeted mode).
    Invalidate { bits: A, len: u8, version: u64 },
}

/// One worker's sending and receiving end of a fabric ring.
type FabricTx<F> = SpscProducer<FabricMsg<<F as AddrFamily>::Addr>>;
type FabricRx<F> = SpscConsumer<FabricMsg<<F as AddrFamily>::Addr>>;

/// Fabric-ring drain burst (messages per `pop_slice`).
const DRAIN_BURST: usize = 256;

/// The in-flight window, in admit batches: a worker stops admitting
/// its own packets while admitting one more batch could take its
/// unanswered remote requests past `IN_FLIGHT_WINDOW_BATCHES × batch`.
///
/// Without a bound a worker admits as fast as it can probe, which is
/// faster than its peers can serve: the outbox and the in-flight table
/// grow to millions of entries, fall out of the hardware caches, and
/// every miss pays for it. Sixteen batches keeps a peer's rings busy
/// across a scheduler quantum without letting the in-flight state
/// outgrow L2. It is derived from `batch` — the unit both the admit
/// loop and the rings are sized in — rather than configured: nothing
/// that exists needs a second value.
///
/// The window cannot deadlock: it throttles only *admission*. Serving
/// remote requests, draining replies and flushing the outbox are never
/// gated, so every request a throttled worker is waiting on is
/// answered by peers that — throttled or not — still serve.
pub const IN_FLIGHT_WINDOW_BATCHES: usize = 16;

/// Headroom targeted remap invalidations must leave in the control
/// ring (for a same-round churn publication plus slop); a moved set
/// that cannot fit falls back to one full flush.
const REMAP_CTRL_SLACK: usize = 128;

/// Most LC workers one run supports: the dead-LC mask holds one bit
/// per worker in a `u64`. [`run_family`] panics above it.
pub const MAX_WORKERS: usize = 64;

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Token-bucket state behind [`OverloadConfig`]: arrivals accrue at the
/// offered rate; the gap between `arrived` and the admit cursor is the
/// bounded ingress queue.
struct OverloadState {
    rate_pps: f64,
    capacity: usize,
    tokens: f64,
    last: Instant,
    /// Trace positions `< arrived` have "arrived at the line card".
    arrived: usize,
}

struct WorkerCore<F: AddrFamily> {
    lc: usize,
    psi: usize,
    part: Arc<Partitioning>,
    cache: VersionedCache<Option<u16>, F::Addr>,
    dests: Arc<[F::Addr]>,
    pos: usize,
    batch: usize,
    /// Producers to every other worker (`None` at `self.lc`).
    req_tx: Vec<Option<FabricTx<F>>>,
    /// Consumers from every other worker (`None` at `self.lc`).
    req_rx: Vec<Option<FabricRx<F>>>,
    ctrl_rx: SpscConsumer<CtrlMsg<F::Addr>>,
    /// Per destination, the messages not yet on the wire, oldest first;
    /// lanes join the newest one as they are emitted. Entry `self.lc`
    /// stays empty.
    outbox: Vec<Vec<FabricMsg<F::Addr>>>,
    /// One entry per distinct in-flight address: all packets/requests
    /// waiting on its result (the W-bit discipline), and whether a
    /// remote request for it is unanswered — a per-address flag, not a
    /// counter, so a duplicated reply (fault injection, or a real
    /// fabric's at-least-once retry) is recognized and ignored.
    pending: PendingTable<F::Addr>,
    /// The waiters of the address being resolved (reused).
    waiters: Vec<Waiter>,
    /// Addresses to resolve on the local engine this iteration.
    fe_queue: Vec<F::Addr>,
    results: Vec<Option<NextHop>>,
    /// Fault adversary (`None` on a faultless fabric).
    faults: Option<FaultInjector<F::Addr>>,
    spot_check_every: u64,
    fe_since_check: u64,
    report: WorkerReport,
    done: Arc<AtomicUsize>,
    marked_done: bool,
    /// Lanes of the admit burst that did not hit, as offsets from
    /// `pos` (reused across iterations).
    miss_scratch: Vec<u32>,
    /// Per lane of the request message being served, its hit value
    /// (`None`: the lane did not hit; reused across messages).
    lane_hits: Vec<Option<Option<u16>>>,
    /// Scratch for burst ring drains.
    pop_scratch: Vec<FabricMsg<F::Addr>>,
    /// Whether the midpoint cold-start cache snapshot was taken.
    cold_recorded: bool,
    /// Scripted failure schedule (every worker carries the plan; only
    /// the victim acts on it).
    failover: Option<FailoverPlan>,
    /// This worker died (it is the failover victim past its trigger).
    failed: bool,
    /// Shared failure flag: the victim stores its LC index here; the
    /// control plane polls it and remaps (`usize::MAX` = none).
    failed_flag: Arc<AtomicUsize>,
    /// Dead LCs as of the last adopted snapshot — destinations to
    /// never send to.
    dead_mask: u64,
    /// Overload admission gate (`None` = admit freely).
    overload: Option<OverloadState>,
    /// Live progress probe for the scenario sampler.
    probe: Option<Arc<LiveProbe>>,
}

struct Worker<F: AddrFamily> {
    reader: EpochReader<Snapshot<F>>,
    core: WorkerCore<F>,
}

/// A completed packet's contribution to `next_hop_sum`: its next hop
/// plus one, so "no route" (0) is distinguishable from next hop 0.
#[inline]
fn hop_checksum(nh: Option<u16>) -> u64 {
    nh.map_or(0, |h| h as u64 + 1)
}

impl<F: AddrFamily> WorkerCore<F> {
    fn complete(&mut self, nh: Option<u16>) {
        self.report.packets += 1;
        self.report.next_hop_sum = self.report.next_hop_sum.wrapping_add(hop_checksum(nh));
    }

    /// Queue one reply lane for `dst`: appended to the newest message
    /// queued for it when that is a reply at the same table `version`
    /// with a free lane, else a new one-lane [`MsgKind::BatchReply`].
    /// Replies to a dead LC are dropped (the requester cannot drain
    /// them, and its waiters died with it).
    fn emit_reply(&mut self, dst: u16, addr: F::Addr, nh: Option<u16>, version: u64) {
        if self.dead_mask >> dst & 1 == 1 {
            self.report.dead_letters += 1;
            return;
        }
        let queue = &mut self.outbox[dst as usize];
        if let Some(FabricMsg {
            kind: MsgKind::BatchReply(b),
            sent_at,
            ..
        }) = queue.last_mut()
        {
            if *sent_at == version && b.push(addr, nh) {
                self.report.batch_replies_sent += (b.len() == 2) as u64;
                return;
            }
        }
        queue.push(FabricMsg {
            kind: MsgKind::BatchReply(ReplyBatch::from_pairs(&[(addr, nh)])),
            src: self.lc as u16,
            dst,
            addr,
            packet_id: 0,
            sent_at: version,
        });
    }

    /// Queue one home-LC lookup request lane for `dst`, coalescing as
    /// [`Self::emit_reply`] does: each destination's queue is the
    /// greedy run-length packing of its lanes in emission order, so the
    /// receiver sees every address in the order a message per address
    /// would deliver it. Requests are never addressed to a known-dead
    /// LC: `home_of` under the adopted partitioning never returns one,
    /// and the rehome sweep re-routes using the new map.
    fn emit_request(&mut self, dst: u16, addr: F::Addr) {
        debug_assert!(
            self.dead_mask >> dst & 1 == 0,
            "request addressed to a dead LC"
        );
        let queue = &mut self.outbox[dst as usize];
        if let Some(FabricMsg {
            kind: MsgKind::BatchRequest(b),
            ..
        }) = queue.last_mut()
        {
            if b.push(addr) {
                self.report.batch_requests_sent += (b.len() == 2) as u64;
                return;
            }
        }
        queue.push(FabricMsg {
            kind: MsgKind::BatchRequest(AddrBatch::from_slice(&[addr])),
            src: self.lc as u16,
            dst,
            addr,
            packet_id: 0,
            sent_at: 0,
        });
    }

    /// Park a waiter on `addr`; the first waiter creates the job and
    /// routes it (local FE queue or remote request).
    fn park(&mut self, addr: F::Addr, w: Waiter) {
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
    /// `now` is taken once per drain/flush phase; local waiters book
    /// `now - admitted` on the miss-path latency histogram.
    fn resolve(&mut self, addr: F::Addr, nh: Option<u16>, version: u64, now: Instant) {
        let waiters = std::mem::take(&mut self.waiters);
        for &w in &waiters {
            match w {
                Waiter::Local { admitted } => {
                    let ns = now.saturating_duration_since(admitted).as_nanos() as u64;
                    self.report.latency.miss.record(ns);
                    self.complete(nh);
                }
                Waiter::Remote { src } => self.emit_reply(src, addr, nh, version),
            }
        }
        self.waiters = waiters;
    }

    /// Adopt the pinned snapshot's partitioning if it changed (an
    /// online re-partitioning after an LC failure). In-flight state
    /// routed under the old map is migrated, in deterministic order:
    ///
    /// * queued messages to a now-dead LC are purged (`dead_letters`);
    /// * parked remote waiters whose requester died are dropped (no one
    ///   is left to receive the reply);
    /// * outstanding remote requests whose home moved are re-routed —
    ///   pulled into the local FE queue when this worker is the new
    ///   home, re-issued to the new home otherwise. The original
    ///   request may still produce a reply (it is dead only if the old
    ///   home died); the awaiting flag being per address makes the
    ///   eventual duplicate harmless.
    fn sync_partition(&mut self, snap: &Snapshot<F>) {
        if Arc::ptr_eq(&self.part, &snap.part) && self.dead_mask == snap.dead {
            return;
        }
        let old = std::mem::replace(&mut self.part, Arc::clone(&snap.part));
        let dead = snap.dead;
        self.dead_mask = dead;
        if self.failed {
            return;
        }
        self.pending.retain_waiters(|w| match w {
            Waiter::Remote { src } => dead >> *src & 1 == 0,
            Waiter::Local { .. } => true,
        });
        for (dst, queue) in self.outbox.iter_mut().enumerate() {
            if dead >> dst & 1 == 1 {
                self.report.dead_letters += queue.len() as u64;
                queue.clear();
            }
        }
        // Ascending addresses: slot order depends on the table's
        // growth history, and the sweep's order is report-visible.
        for addr in self.pending.awaiting_sorted() {
            let old_home = old.home_of(addr);
            let new_home = self.part.home_of(addr);
            if new_home == old_home && dead >> old_home & 1 == 0 {
                continue;
            }
            self.report.rehomed_requests += 1;
            if new_home as usize == self.lc {
                self.pending.clear_awaiting(addr);
                self.fe_queue.push(addr);
            } else {
                self.emit_request(new_home, addr);
            }
        }
    }

    /// Fire the scripted LC failure once its trigger point is reached:
    /// the victim loses every packet it has not completed, clears all
    /// in-flight state, raises the shared failure flag for the control
    /// plane, and marks itself done. Returns `true` while dead.
    fn maybe_die(&mut self) -> bool {
        if self.failed {
            return true;
        }
        let Some(plan) = self.failover else {
            return false;
        };
        if plan.lc as usize != self.lc || (self.pos as u64) < plan.after_packets {
            return false;
        }
        // Own packets never delivered: the unadmitted tail plus every
        // admitted-but-parked packet (ingress drops are accounted
        // separately, not lost).
        let lost = self.dests.len() as u64 - self.report.packets - self.report.ingress_dropped;
        self.report.lost_packets = lost;
        self.pos = self.dests.len();
        self.pending.clear();
        self.fe_queue.clear();
        for queue in self.outbox.iter_mut() {
            queue.clear();
        }
        self.failed = true;
        if let Some(p) = &self.probe {
            p.add_lost(lost);
            p.mark_kill();
        }
        self.failed_flag.store(self.lc, Ordering::SeqCst);
        if !self.marked_done {
            self.marked_done = true;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
        true
    }

    fn drain_ctrl(&mut self) -> u64 {
        let mut n = 0;
        while let Some(msg) = self.ctrl_rx.try_pop() {
            n += 1;
            match msg {
                CtrlMsg::Flush { version } => self.cache.apply_flush(version),
                CtrlMsg::Invalidate { bits, len, version } => {
                    self.cache.apply_invalidation(bits, len, version);
                }
            }
        }
        n
    }

    /// One lane of a [`MsgKind::BatchReply`]: one reply for one address
    /// (`sent_at` is the carrying message's table version; every lane
    /// was computed against it).
    fn handle_reply_addr(&mut self, addr: F::Addr, nh: Option<u16>, sent_at: u64, now: Instant) {
        if !self.pending.take_awaiting(addr, &mut self.waiters) {
            // A duplicated (or retransmitted-after-resolve) reply: the
            // original already completed every waiter and filled the
            // cache, so this copy is dropped idempotently.
            self.report.duplicate_replies += 1;
            return;
        }
        self.report.replies_received += 1;
        match self.cache.fill_versioned(addr, nh, Origin::Rem, sent_at) {
            VersionedFill::Cached(_) => {}
            // Result computed on a table older than an invalidation we
            // already processed: complete the packet (one stale delivery,
            // as on a real router) but never cache the value.
            VersionedFill::StaleDropped => self.report.stale_replies += 1,
        }
        self.resolve(addr, nh, sent_at, now);
    }

    /// Serve one delivered message in lane order — a receiver processes
    /// a coalesced message exactly as it would one message per address.
    fn dispatch(&mut self, msg: FabricMsg<F::Addr>, snap: &Snapshot<F>, now: Instant) {
        match msg.kind {
            MsgKind::BatchRequest(b) => {
                // Under failover a request routed on the old
                // partitioning can arrive after this worker adopted the
                // new one. A cache hit answers it (the reply's version
                // gate handles staleness); a miss parks it like any
                // remote miss, and `park` routes the lookup by
                // `home_of` under the new map — on to the new home if
                // that is another LC (request chaining). Without
                // failover the home must match.
                debug_assert!(
                    self.failover.is_some()
                        || b.addrs()
                            .iter()
                            .all(|&a| self.part.home_of(a) as usize == self.lc),
                    "request arrived at a non-home LC without failover"
                );
                self.report.remote_served += b.len() as u64;
                // One batched probe pass, as `admit_own`'s; each lane's
                // hit value is noted, then lanes are answered or parked
                // in lane order (neither touches the cache).
                let mut hits = std::mem::take(&mut self.lane_hits);
                hits.clear();
                self.cache.probe_each(b.addrs(), |_, lane| {
                    hits.push(match lane {
                        BatchProbe::Hit { value, .. } => Some(value),
                        _ => None,
                    })
                });
                for (&addr, &hit) in b.addrs().iter().zip(&hits) {
                    match hit {
                        Some(nh) => self.emit_reply(msg.src, addr, nh, snap.version),
                        None => self.park(addr, Waiter::Remote { src: msg.src }),
                    }
                }
                self.lane_hits = hits;
            }
            MsgKind::BatchReply(b) => {
                for (addr, nh) in b.iter() {
                    self.handle_reply_addr(addr, nh, msg.sent_at, now);
                }
            }
            MsgKind::Request | MsgKind::Reply { .. } => {
                unreachable!("the dataplane sends every message as a batch")
            }
        }
    }

    fn drain_fabric(&mut self, snap: &Snapshot<F>) -> u64 {
        let now = Instant::now();
        let mut n = 0;
        for src in 0..self.psi {
            let Some(mut rx) = self.req_rx[src].take() else {
                continue;
            };
            // Burst drain: one Acquire/Release pair per up-to-256
            // messages instead of per message, looping until the ring
            // is dry so each source is drained fully.
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
            self.req_rx[src] = Some(rx);
        }
        n
    }

    /// Packets admissible this iteration: the whole batch, or — under
    /// the overload gate — whatever the token-bucket arrival process
    /// has delivered into the bounded ingress queue, after head-drops.
    fn admit_limit(&mut self) -> usize {
        let Some(o) = self.overload.as_mut() else {
            return self.batch;
        };
        let now = Instant::now();
        let dt = now.duration_since(o.last).as_secs_f64();
        o.last = now;
        // Cap the bucket so a scheduler stall cannot convert into an
        // unbounded arrival burst.
        o.tokens = (o.tokens + dt * o.rate_pps).min(2.0 * o.capacity as f64);
        let arrivals = o.tokens as usize;
        o.tokens -= arrivals as f64;
        o.arrived = (o.arrived + arrivals).min(self.dests.len());
        let queued = o.arrived - self.pos;
        if queued > o.capacity {
            // Ingress overflow: head-drop the oldest queued packets.
            // They never complete and are excluded from the checksum —
            // drops are accounted, not silently forwarded.
            let excess = queued - o.capacity;
            self.pos += excess;
            self.report.ingress_dropped += excess as u64;
            if let Some(p) = &self.probe {
                p.add_dropped(excess as u64);
            }
        }
        (o.arrived - self.pos).min(self.batch)
    }

    fn admit_own(&mut self) -> u64 {
        let limit = self.admit_limit();
        let end = (self.pos + limit).min(self.dests.len());
        let n = (end - self.pos) as u64;
        if n == 0 {
            return 0;
        }
        if self.pending.in_flight() + self.batch > IN_FLIGHT_WINDOW_BATCHES * self.batch {
            // The window binds: this batch waits for replies. Reporting
            // no work lets a threaded worker with nothing else to do
            // yield to the peers it is waiting on.
            self.report.admit_throttled += 1;
            return 0;
        }
        let t0 = Instant::now();
        // One batched probe pass: per lane, a scalar probe (+ reserve
        // on a miss), so cache state and statistics are those of
        // probing packet by packet. Hits are tallied as the pass hands
        // them over; only the lanes that did not hit are noted, to be
        // parked once the pass is done (`park` never touches the
        // cache).
        let (mut loc_hits, mut rem_hits, mut hop_sum) = (0u64, 0u64, 0u64);
        let mut misses = std::mem::take(&mut self.miss_scratch);
        misses.clear();
        self.cache
            .probe_each(&self.dests[self.pos..end], |i, lane| match lane {
                BatchProbe::Hit { value, origin } => {
                    match origin {
                        Origin::Loc => loc_hits += 1,
                        Origin::Rem => rem_hits += 1,
                    }
                    hop_sum = hop_sum.wrapping_add(hop_checksum(value));
                }
                BatchProbe::Waiting | BatchProbe::MissReserved | BatchProbe::MissUnrecorded => {
                    misses.push(i as u32);
                }
            });
        // `complete`, once for every hit of the burst.
        let hits = loc_hits + rem_hits;
        self.report.packets += hits;
        self.report.next_hop_sum = self.report.next_hop_sum.wrapping_add(hop_sum);
        for &i in &misses {
            self.park(
                self.dests[self.pos + i as usize],
                Waiter::Local { admitted: t0 },
            );
        }
        self.miss_scratch = misses;
        if let Some(p) = &self.probe {
            p.record_admit(n, hits);
        }
        // Hit-path latency: one timestamp pair per admit burst (a
        // per-packet clock read would dominate the very path being
        // measured); every hit in the burst books the burst's elapsed.
        let dt = t0.elapsed().as_nanos() as u64;
        self.report.latency.loc_hit.record_n(dt, loc_hits);
        self.report.latency.rem_hit.record_n(dt, rem_hits);
        self.pos = end;
        n
    }

    fn fe_flush(&mut self, snap: &Snapshot<F>) {
        if self.fe_queue.is_empty() {
            return;
        }
        let addrs = std::mem::take(&mut self.fe_queue);
        self.results.clear();
        self.results.resize(addrs.len(), None);
        let table = &snap.tables[self.lc];
        table.forward_batch(&addrs, &mut self.results);
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
                    if table.lookup(addr) != res {
                        self.report.spot_check_mismatches += 1;
                    }
                }
            }
            let nh = res.map(|h| h.0);
            self.pending.take(addr, &mut self.waiters);
            self.cache.fill_local(addr, nh, Origin::Loc);
            self.resolve(addr, nh, snap.version, now);
        }
        // Reuse the allocation for the next iteration's queue.
        self.fe_queue = addrs;
        self.fe_queue.clear();
    }

    /// Put the queued messages on the wire: one `push_slice` per
    /// destination — one published head store per destination per
    /// iteration. A full ring keeps the rest of its queue, in order, for
    /// the next iteration rather than block.
    fn flush_outbox(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            // The adversary goes between the queues and the wire: it
            // may hold messages back, clone them, or release ones held
            // on earlier iterations, each message as a whole unit.
            f.filter(&mut self.outbox);
        }
        for (dst, queue) in self.outbox.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            if self.dead_mask >> dst & 1 == 1 {
                // A fault injector can release held messages to an LC
                // that died after they were queued; they go nowhere.
                self.report.dead_letters += queue.len() as u64;
                queue.clear();
                continue;
            }
            let tx = self.req_tx[dst]
                .as_mut()
                .expect("messages are never addressed to self");
            let pushed = tx.push_slice(queue);
            self.report.max_ring_depth = self.report.max_ring_depth.max(tx.len() as u64);
            queue.drain(..pushed);
        }
    }

    fn maybe_mark_done(&mut self) {
        if !self.marked_done
            && self.pos >= self.dests.len()
            && self.pending.is_empty()
            && self.outbox.iter().all(Vec::is_empty)
            && self.faults.as_ref().map_or(0, |f| f.pending()) == 0
        {
            self.marked_done = true;
            self.done.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Snapshot the cache statistics the first time this worker crosses
    /// the midpoint of its trace — the cold-start half the steady-state
    /// hit rate subtracts out.
    fn maybe_snapshot_cold(&mut self) {
        if !self.cold_recorded && self.pos * 2 >= self.dests.len() {
            self.cold_recorded = true;
            self.report.cache_cold = *self.cache.stats();
        }
    }

    fn step(&mut self, snap: &Snapshot<F>) -> u64 {
        self.sync_partition(snap);
        if self.maybe_die() {
            // A dead LC does no work; it only discards control traffic
            // so the control plane's bounded ring never wedges on it.
            while self.ctrl_rx.try_pop().is_some() {}
            return 0;
        }
        let mut work = self.drain_ctrl();
        work += self.drain_fabric(snap);
        work += self.admit_own();
        self.report.max_in_flight = self
            .report
            .max_in_flight
            .max(self.pending.in_flight() as u64);
        self.maybe_snapshot_cold();
        if self.faults.as_mut().is_some_and(|f| f.roll_stall()) {
            // Mid-batch stall: the batch just admitted (probes,
            // reservations, parked waiters) and anything queued for the
            // FE or the fabric is held as-is; lanes emitted later join
            // the queued messages. The next unstalled iteration resumes
            // against whatever snapshot is then current — i.e. possibly
            // across a publication.
            return work;
        }
        self.fe_flush(snap);
        self.flush_outbox();
        self.maybe_mark_done();
        work
    }

    fn finalize_report(&mut self) -> WorkerReport {
        self.report.lc = self.lc;
        self.report.cache = *self.cache.stats();
        if let Some(f) = &self.faults {
            self.report.faults = f.stats();
        }
        std::mem::take(&mut self.report)
    }
}

/// Bounded exponential backoff for empty SPSC polls: short spins keep
/// the reaction latency of a busy-wait while queues are merely bursty,
/// escalating to `yield_now` once the rings stay dry so the threads
/// that will refill them get scheduled.
///
/// Spinning only pays when the producer can run *concurrently* — so the
/// spin phase is enabled only on hosts with more cores than dataplane
/// threads. On an oversubscribed host every empty poll yields at once:
/// a worker alternating between a drained ring and one stray message
/// would otherwise keep resetting the backoff and burn its whole
/// scheduler quantum spinning, which stretches the writer's grace
/// rotations from one quantum to several (measured 3–4× worse churn
/// throughput on a single-core host).
struct Backoff {
    step: u32,
    spin_steps: u32,
}

impl Backoff {
    /// Empty polls spin (doubling) through this many steps, then yield.
    const SPIN_STEPS: u32 = 6;

    /// `threads` is the total the dataplane runs (workers + control);
    /// the spin phase needs at least that many cores.
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

impl<F: AddrFamily> Worker<F> {
    fn iterate(&mut self) -> u64 {
        let pin = self.reader.pin();
        self.core.step(&pin)
    }
}

/// Step `workers` round-robin — `between` first, then one iteration of
/// each LC in order — until every LC of the run is done, snoozing after
/// a round in which none of them did any work. The one loop both
/// schedules run: a threaded run gives each thread a one-LC slice and a
/// no-op `between`; the deterministic run passes every LC and the
/// control plane's round hook. The shared `done` counter is read only
/// once this slice's own LCs are all done.
fn drive<F: AddrFamily>(
    workers: &mut [Worker<F>],
    mut backoff: Backoff,
    mut between: impl FnMut(&mut [Worker<F>]),
) {
    loop {
        between(workers);
        let mut work = 0;
        for w in workers.iter_mut() {
            work += w.iterate();
        }
        if workers.iter().all(|w| w.core.marked_done) {
            let core = &workers[0].core;
            if core.done.load(Ordering::SeqCst) >= core.psi {
                return;
            }
        }
        if work == 0 {
            backoff.snooze();
        } else {
            backoff.reset();
        }
    }
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

struct Control<F: AddrFamily> {
    part: Arc<Partitioning>,
    algorithm: F::Algorithm,
    /// Per-LC routing-table fragments, kept current with every ingested
    /// update — the rebuild source for non-incremental engines and the
    /// oracle for the final consistency check.
    per_lc_rib: Vec<RoutingTable<F::Addr>>,
    /// Per LC, the prefixes the shadow copy has not seen: the previous
    /// publication's changed set. The two copies ping-pong, so the
    /// shadow is always exactly one publication behind — except on an
    /// LC whose engine both copies share, which has no lag.
    lagging: Vec<Vec<Prefix<F::Addr>>>,
    writer: EpochWriter<Snapshot<F>>,
    shadow: Option<Box<Snapshot<F>>>,
    ctrl_tx: Vec<SpscProducer<CtrlMsg<F::Addr>>>,
    mode: InvalidationMode,
    done: Arc<AtomicUsize>,
    psi: usize,
    /// Threaded mode spins on a full control ring (the worker will
    /// drain it); the deterministic schedule cannot, so capacity is
    /// sized to make overflow impossible and treated as a bug.
    blocking: bool,
    report: ChurnReport,
    /// Shared failure flag the victim worker raises (`usize::MAX` =
    /// no failure).
    failed_flag: Arc<AtomicUsize>,
    /// Dead LCs — skipped by `broadcast` once the remap makes their
    /// death official.
    dead_mask: u64,
    /// Control-ring capacity; bounds how many targeted invalidations a
    /// remap may enqueue before falling back to a full flush.
    ctrl_cap: usize,
    /// What the remap did, once it ran.
    failover: Option<FailoverSummary>,
}

impl<F: AddrFamily> Control<F> {
    /// Bring each LC's engine in `snap` in line with its RIB fragment
    /// for the prefixes in `changed[lc]`: the engine's `apply_delta`
    /// patch path first; an engine that declines gets its fragment
    /// rebuilt from the post-update RIB. An engine still shared with
    /// the live copy is cloned before it is patched (`Arc::make_mut`);
    /// a clone that declines is dropped for the rebuild. Returns the
    /// rebuilt LCs as a mask (bit `i` = LC `i`).
    fn patch_tables(&mut self, snap: &mut Snapshot<F>, changed: &[Vec<Prefix<F::Addr>>]) -> u64 {
        let mut rebuilt = 0u64;
        for (lc, prefixes) in changed.iter().enumerate() {
            if prefixes.is_empty() {
                continue;
            }
            let rib = &self.per_lc_rib[lc];
            match Arc::make_mut(&mut snap.tables[lc]).apply_delta(prefixes, rib) {
                Some(stats) => {
                    self.report.delta_applies += 1;
                    self.report.delta_bytes_touched += stats.bytes_touched as u64;
                    self.report.delta_prefixes_applied += stats.prefixes_applied as u64;
                }
                None => {
                    self.report.rebuild_applies += 1;
                    snap.tables[lc] = Arc::new(F::build(self.algorithm, rib));
                    rebuilt |= 1 << lc;
                }
            }
        }
        rebuilt
    }

    fn broadcast(&mut self, msg: CtrlMsg<F::Addr>) {
        for lc in 0..self.psi {
            if self.dead_mask >> lc & 1 == 1 {
                continue;
            }
            let tx = &mut self.ctrl_tx[lc];
            loop {
                match tx.try_push(msg) {
                    Ok(()) => {
                        self.report.invalidations_sent += 1;
                        break;
                    }
                    Err(_) => {
                        if self.done.load(Ordering::SeqCst) >= self.psi {
                            // Every worker finished; its cache no longer
                            // serves lookups, so the invalidation is moot.
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

    /// Make the per-LC RIB fragments' latest changes visible to the
    /// dataplane — one publication, the same for an update batch and a
    /// failover remap. `changed[lc]` holds the prefixes whose routes on
    /// LC `lc` changed since the last publication, each once.
    ///
    /// 1. Patch the shadow copy with `lagging ∪ changed`
    ///    ([`Self::patch_tables`]).
    /// 2. Stamp it with the current partitioning, dead mask and the next
    ///    version, and swap it in RCU-style. The recorded apply latency
    ///    runs from `t0` (the caller's RIB work) to the swap — the
    ///    moment every new reader pin sees the updated table.
    /// 3. Wait out the grace period on the swapped-out copy, *outside*
    ///    the timed window but before the invalidations go out: readers
    ///    race through their quiescent states with warm caches, which
    ///    keeps the wait short on oversubscribed hosts (invalidating
    ///    first would have them grinding through misses and remote
    ///    round trips mid-grace). That copy is the next shadow, and it
    ///    lags by `changed` — except on the LCs step 1 rebuilt: it takes
    ///    the live copy's `Arc` for those, so a rebuilt fragment is
    ///    built once and the lagging copy never rebuilds it again.
    /// 4. Invalidate at the new version: one targeted
    ///    [`CtrlMsg::Invalidate`] per `stale` prefix, in order, or one
    ///    [`CtrlMsg::Flush`] when `stale` is `None`.
    fn publish(
        &mut self,
        t0: Instant,
        changed: Vec<Vec<Prefix<F::Addr>>>,
        stale: Option<&[Prefix<F::Addr>]>,
    ) {
        let mut shadow = self.shadow.take().expect("shadow snapshot present");
        let mut patch = std::mem::replace(&mut self.lagging, changed);
        for (lag, new) in patch.iter_mut().zip(&self.lagging) {
            let seen = lag.len();
            for &p in new {
                if !lag[..seen].contains(&p) {
                    lag.push(p);
                }
            }
        }
        let rebuilt = self.patch_tables(&mut shadow, &patch);
        shadow.part = Arc::clone(&self.part);
        shadow.dead = self.dead_mask;
        shadow.version = self.writer.epoch() + 1;
        let retiring = self.writer.publish_deferred(shadow);
        self.report
            .apply_us
            .record(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        let mut next = retiring.into_inner();
        self.report
            .reclaim_us
            .record(t1.elapsed().as_secs_f64() * 1e6);
        let live = self.writer.peek();
        for lc in (0..self.psi).filter(|lc| rebuilt >> lc & 1 == 1) {
            next.tables[lc] = Arc::clone(&live.tables[lc]);
            self.lagging[lc].clear();
        }
        self.shadow = Some(next);
        let version = self.writer.epoch();
        match stale {
            Some(prefixes) => {
                for p in prefixes {
                    self.broadcast(CtrlMsg::Invalidate {
                        bits: p.bits(),
                        len: p.len(),
                        version,
                    });
                }
            }
            None => self.broadcast(CtrlMsg::Flush { version }),
        }
    }

    /// Apply one update batch to the RIB fragments of the LCs each
    /// prefix is homed on — one [`apply_batch`] per LC — then
    /// [`Self::publish`] it.
    fn publish_batch(&mut self, batch: &[Update<F::Addr>]) {
        let t0 = Instant::now();
        let mut per_lc: Vec<Vec<Update<F::Addr>>> = vec![Vec::new(); self.psi];
        let mut changed: Vec<Vec<Prefix<F::Addr>>> = vec![Vec::new(); self.psi];
        for &u in batch {
            let p = u.prefix();
            for lc in self.part.lcs_of_prefix(p) {
                per_lc[lc as usize].push(u);
                let changed = &mut changed[lc as usize];
                if !changed.contains(&p) {
                    changed.push(p);
                }
            }
        }
        for (rib, updates) in self.per_lc_rib.iter_mut().zip(&per_lc) {
            apply_batch(rib, updates);
        }
        let stale: Option<Vec<Prefix<F::Addr>>> = (self.mode == InvalidationMode::Targeted)
            .then(|| batch.iter().map(|u| u.prefix()).collect());
        self.publish(t0, changed, stale.as_deref());
        self.report.updates_applied += batch.len() as u64;
        self.report.publications += 1;
    }

    /// The threaded control loop, on the caller's thread while the
    /// workers run: publish the update stream's batches at the
    /// configured pace and poll the failure flag between them. Without
    /// a failover plan it returns when the stream runs out; with one it
    /// keeps polling until every worker is done (survivors with requests
    /// in flight to the victim cannot finish until the remap re-homes
    /// them). Either way it stops once every worker is done.
    fn serve(&mut self, updates: Option<&[Update<F::Addr>]>, cfg: &DataplaneConfig<F>) {
        let (per_pub, pace_us) = cfg
            .churn
            .as_ref()
            .map_or((1, 0), |c| (c.updates_per_publication.max(1), c.pace_us));
        let mut batches = updates.unwrap_or_default().chunks(per_pub);
        while self.done.load(Ordering::SeqCst) < self.psi {
            let remapped = self.maybe_remap();
            let pause = match batches.next() {
                Some(batch) => {
                    self.publish_batch(batch);
                    pace_us
                }
                None if cfg.failover.is_none() => return,
                None if remapped => 0,
                None => 50,
            };
            if pause > 0 {
                std::thread::sleep(std::time::Duration::from_micros(pause));
            }
        }
    }

    /// Poll the shared failure flag and re-partition once when it is
    /// raised. Returns whether a remap ran this call.
    fn maybe_remap(&mut self) -> bool {
        if self.failover.is_some() {
            return false;
        }
        let dead = self.failed_flag.load(Ordering::SeqCst);
        if dead == usize::MAX {
            return false;
        }
        self.remap_failed(dead as u16);
        true
    }

    /// Online re-partitioning after LC `dead` died, while packets keep
    /// flowing:
    ///
    /// 1. compute a successor [`Partitioning`] that re-homes the dead
    ///    LC's groups across the least-loaded survivors
    ///    ([`Partitioning::remap_without`]);
    /// 2. move the dead RIB fragment's routes into the survivors'
    ///    fragments (skipping routes already replicated there), one
    ///    [`apply_batch`] per survivor;
    /// 3. [`Self::publish`] the moved prefixes like any update batch,
    ///    stamped with the new partitioning and dead mask; workers adopt
    ///    the new map on their next pin and migrate their in-flight
    ///    state (`sync_partition`). The retiring copy catches up at the
    ///    next publication. The dead LC's lag is dropped: its engine is
    ///    never read again;
    /// 4. the publication invalidates the moved range at the new version
    ///    — targeted [`CtrlMsg::Invalidate`] per moved prefix when the
    ///    set fits the control-ring budget, one full flush otherwise.
    ///    Replies computed by the dead LC before it died carry pre-remap
    ///    versions, so the reply-version gate (`fill_versioned`) drops
    ///    them instead of caching stale values.
    fn remap_failed(&mut self, dead: u16) {
        let t0 = Instant::now();
        let dead_idx = dead as usize;
        let loads: Vec<usize> = self.per_lc_rib.iter().map(|r| r.entries().len()).collect();
        self.part = Arc::new(
            self.part
                .remap_without(dead, &self.per_lc_rib[dead_idx], &loads),
        );
        let fragment = std::mem::replace(&mut self.per_lc_rib[dead_idx], RoutingTable::new());
        let mut moved_in: Vec<Vec<Update<F::Addr>>> = vec![Vec::new(); self.psi];
        for &e in fragment.entries() {
            for lc in self.part.lcs_of_prefix(e.prefix) {
                debug_assert_ne!(lc, dead, "remap re-homed a group onto the dead LC");
                if self.per_lc_rib[lc as usize].get(e.prefix).is_none() {
                    moved_in[lc as usize].push(Update::Announce(e));
                }
            }
        }
        let changed: Vec<Vec<Prefix<F::Addr>>> = moved_in
            .iter()
            .map(|updates| updates.iter().map(|u| u.prefix()).collect())
            .collect();
        for (rib, updates) in self.per_lc_rib.iter_mut().zip(&moved_in) {
            apply_batch(rib, updates);
        }
        self.dead_mask |= 1 << dead;
        self.lagging[dead_idx].clear();
        let moved: Vec<Prefix<F::Addr>> = fragment.entries().iter().map(|e| e.prefix).collect();
        let targeted = self.mode == InvalidationMode::Targeted
            && moved.len() + REMAP_CTRL_SLACK <= self.ctrl_cap;
        self.publish(t0, changed, targeted.then_some(&moved));
        self.failover = Some(FailoverSummary {
            dead_lc: dead,
            moved_prefixes: moved.len() as u64,
            remap_us: t0.elapsed().as_secs_f64() * 1e6,
            targeted,
            invalidations_per_lc: if targeted { moved.len() as u64 } else { 1 },
        });
    }

    /// Sample the published tables against the per-LC RIB oracle (each
    /// address checked at its home LC, where lookups happen).
    fn final_check(&mut self, samples: usize, seed: u64) {
        let mut x = seed | 1;
        for i in 0..samples {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = F::check_addr(x, i, &self.per_lc_rib);
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

/// Run the IPv4 dataplane: [`run_family`] at [`V4`].
pub fn run(table: &RoutingTable, traces: &[Trace], cfg: &DataplaneConfig) -> DataplaneReport {
    run_family::<V4>(table, traces, cfg)
}

/// Run the IPv6 dataplane: [`run_family`] at [`V6`].
pub fn run6(table: &RoutingTable6, traces: &[Trace6], cfg: &Dataplane6Config) -> DataplaneReport {
    run_family::<V6>(table, traces, cfg)
}

/// Run the dataplane over `traces` (trace `i % traces.len()` drives
/// worker `i`; each trace is consumed once) against `table`.
pub fn run_family<F: AddrFamily>(
    table: &RoutingTable<F::Addr>,
    traces: &[Trace<F::Addr>],
    cfg: &DataplaneConfig<F>,
) -> DataplaneReport {
    let psi = cfg.workers;
    assert!(psi >= 1, "need at least one worker");
    assert!(!traces.is_empty(), "need at least one trace");
    assert!(
        traces.iter().all(|t| !t.is_empty()),
        "traces must be non-empty"
    );
    if let Some(plan) = &cfg.failover {
        assert!(psi >= 2, "failover needs at least one survivor");
        assert!((plan.lc as usize) < psi, "failover victim out of range");
    }
    assert!(psi <= MAX_WORKERS, "at most {MAX_WORKERS} workers");
    if let Some(o) = &cfg.overload {
        assert!(
            o.offered_pps > 0.0 && o.ingress_capacity > 0,
            "overload needs a positive rate and capacity"
        );
    }

    // First, before the partitioning and the engines exist: generating
    // the stream holds a copy of the table's prefixes, and that
    // transient should not stack on the engine builds'.
    let updates = cfg.churn.as_ref().map(|c| {
        update_stream(
            table,
            &UpdateStreamConfig {
                count: c.updates,
                withdraw_fraction: c.withdraw_fraction,
                seed: cfg.seed ^ F::CHURN_SEED_SALT,
            },
        )
        .0
    });
    let (mut workers, mut control) = assemble(table, traces, cfg);

    let t0 = Instant::now();
    let (forced_publications, sweeps) = if cfg.deterministic {
        run_deterministic(&mut workers, &mut control, updates.as_deref(), cfg)
    } else {
        std::thread::scope(|s| {
            for lc in workers.chunks_mut(1) {
                s.spawn(move || drive(lc, Backoff::new(psi + 1), |_| {}));
            }
            control.serve(updates.as_deref(), cfg);
        });
        (0, None)
    };
    let elapsed = t0.elapsed();

    let mut report = DataplaneReport {
        deterministic: cfg.deterministic,
        elapsed,
        workers: workers
            .iter_mut()
            .map(|w| w.core.finalize_report())
            .collect(),
        ..Default::default()
    };
    if cfg.deterministic {
        // Post-quiesce coherence sweep, after the reports are final (its
        // control-ring drain counts invalidations): the trailing
        // publications left their invalidations queued in the control
        // rings, so drain those first; then every entry still resident
        // in any cache must agree with the control plane's RIB oracle —
        // targeted invalidation plus the reply-version gate must leave
        // no entry covered by an updated prefix. A failed worker's cache
        // froze at its death and stopped receiving invalidations, so it
        // is out of the sweep (it serves no lookups either).
        let mut coherence = SweepSummary::default();
        sweep_caches(&mut workers, &control, &mut coherence);
        report.coherence = Some(coherence);
    }
    if cfg.churn.is_some() {
        control.final_check(1_000, cfg.seed ^ F::CHECK_SEED_SALT);
        report.churn = Some(control.report.clone());
    }
    report.failover = control.failover;
    report.sweeps = sweeps;
    if let Some(plan) = &cfg.faults {
        let mut fr = FaultReport {
            seed: plan.seed,
            forced_publications,
            ..Default::default()
        };
        for w in &report.workers {
            fr.delayed += w.faults.delayed;
            fr.dropped_retransmitted += w.faults.dropped_retransmitted;
            fr.duplicated += w.faults.duplicated;
            fr.stalls += w.faults.stalls;
            fr.duplicate_replies += w.duplicate_replies;
        }
        report.faults = Some(fr);
    }
    report
}

/// Everything a run needs before its first iteration: the partitioning,
/// one engine per LC behind the epoch table, the fabric and control
/// rings, and a worker per LC wired to them, plus the control plane
/// that owns the writer side. `cfg` was validated by [`run_family`].
fn assemble<F: AddrFamily>(
    table: &RoutingTable<F::Addr>,
    traces: &[Trace<F::Addr>],
    cfg: &DataplaneConfig<F>,
) -> (Vec<Worker<F>>, Control<F>) {
    let psi = cfg.workers;
    let bits = select_bits(table, eta_for(psi));
    let part = Arc::new(Partitioning::new(table, bits, psi));
    let per_lc_rib = part.forwarding_tables(table);
    // Each engine is built once; the live and shadow snapshots share it.
    let tables: Vec<Arc<F::Engine>> = per_lc_rib
        .iter()
        .map(|f| Arc::new(F::build(cfg.algorithm, f)))
        .collect();
    let snapshot = || {
        Box::new(Snapshot {
            tables: tables.clone(),
            version: 0,
            part: Arc::clone(&part),
            dead: 0,
        })
    };
    let (writer, readers) = epoch_table(snapshot(), psi);
    let shadow = snapshot();

    // Fabric rings: one SPSC ring per ordered worker pair.
    let mut tx_mat: Vec<Vec<Option<FabricTx<F>>>> =
        (0..psi).map(|_| (0..psi).map(|_| None).collect()).collect();
    let mut rx_mat: Vec<Vec<Option<FabricRx<F>>>> =
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
    // invalidations always fits (the deterministic schedule cannot spin
    // on a full ring).
    let per_pub = cfg
        .churn
        .as_ref()
        .map(|c| c.updates_per_publication)
        .unwrap_or(0);
    let mut ctrl_cap = cfg.ring_capacity.max(2 * per_pub + 8);
    if let Some(plan) = &cfg.failover {
        // A targeted remap enqueues one invalidation per moved prefix;
        // size the ring so the deterministic schedule can absorb the
        // burst (plus a same-round publication) without overflowing.
        let fragment = per_lc_rib[plan.lc as usize].entries().len();
        ctrl_cap = ctrl_cap.max(fragment + 2 * per_pub + 2 * REMAP_CTRL_SLACK);
    }
    let mut ctrl_tx = Vec::with_capacity(psi);
    let mut ctrl_rx = Vec::with_capacity(psi);
    for _ in 0..psi {
        let (tx, rx) = spsc_ring(ctrl_cap);
        ctrl_tx.push(tx);
        ctrl_rx.push(rx);
    }

    let done = Arc::new(AtomicUsize::new(0));
    let failed_flag = Arc::new(AtomicUsize::new(usize::MAX));
    let now = Instant::now();
    let mut workers: Vec<Worker<F>> = Vec::with_capacity(psi);
    for (lc, reader) in readers.into_iter().enumerate() {
        workers.push(Worker {
            reader,
            core: WorkerCore {
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
                outbox: vec![Vec::new(); psi],
                pending: PendingTable::with_capacity(2 * cfg.batch.max(1)),
                waiters: Vec::new(),
                fe_queue: Vec::new(),
                results: Vec::new(),
                faults: cfg.faults.as_ref().map(|p| FaultInjector::new(p, lc)),
                spot_check_every: cfg.spot_check_every,
                fe_since_check: 0,
                report: WorkerReport::default(),
                done: Arc::clone(&done),
                marked_done: false,
                miss_scratch: Vec::new(),
                lane_hits: Vec::new(),
                pop_scratch: Vec::new(),
                cold_recorded: false,
                failover: cfg.failover,
                failed: false,
                failed_flag: Arc::clone(&failed_flag),
                dead_mask: 0,
                overload: cfg.overload.map(|o| OverloadState {
                    rate_pps: o.offered_pps,
                    capacity: o.ingress_capacity,
                    tokens: 0.0,
                    last: now,
                    arrived: 0,
                }),
                probe: cfg.probe.clone(),
            },
        });
    }

    let control = Control {
        part: Arc::clone(&part),
        algorithm: cfg.algorithm,
        per_lc_rib,
        lagging: vec![Vec::new(); psi],
        writer,
        shadow: Some(shadow),
        ctrl_tx,
        mode: cfg.invalidation,
        done: Arc::clone(&done),
        psi,
        blocking: !cfg.deterministic,
        report: ChurnReport::default(),
        failed_flag,
        dead_mask: 0,
        ctrl_cap,
        failover: None,
    };
    (workers, control)
}

/// One mid-run invariant sweep (deterministic soak runs): drain each
/// live worker's control ring, then compare every resident cache entry
/// against the control plane's per-LC RIB oracle. Sound between rounds:
/// after the drain, any resident entry either postdates every processed
/// invalidation covering it or was never covered — both must match the
/// oracle.
fn sweep_caches<F: AddrFamily>(
    workers: &mut [Worker<F>],
    control: &Control<F>,
    summary: &mut SweepSummary,
) {
    summary.sweeps += 1;
    for w in workers.iter_mut().filter(|w| !w.core.failed) {
        w.core.drain_ctrl();
        for (addr, value) in w.core.cache.entries() {
            let home = control.part.home_of(addr) as usize;
            let expect = control.per_lc_rib[home]
                .longest_match(addr)
                .map(|e| e.next_hop.0);
            summary.entries_checked += 1;
            if value != expect {
                summary.mismatches += 1;
            }
        }
    }
}

/// The deterministic schedule: every LC on the caller's thread, stepped
/// by one [`drive`] whose round hook runs the control plane — the
/// round-cap assert, a pending remap, the due sweep, the due
/// publication, the forced-publication coin. Returns the number of
/// forced publications and, when `sweep_every` was set, the sweep
/// summary.
fn run_deterministic<F: AddrFamily>(
    workers: &mut [Worker<F>],
    control: &mut Control<F>,
    updates: Option<&[Update<F::Addr>]>,
    cfg: &DataplaneConfig<F>,
) -> (u64, Option<SweepSummary>) {
    // Adversarial snapshot swaps: a seeded coin decides, per round,
    // whether to force an extra (no-update) publication right before
    // the workers run — an epoch bump at a schedule point the paced
    // mode would rarely produce.
    let mut forced_rng = cfg
        .faults
        .as_ref()
        .filter(|p| p.forced_publication_per_mille > 0)
        .map(|p| {
            (
                SmallRng::seed_from_u64(p.seed ^ 0xF0CE_D5AB),
                p.forced_publication_per_mille,
            )
        });
    let mut forced_publications = 0u64;
    // Spread publications evenly over the rounds the longest trace
    // needs, so churn overlaps forwarding deterministically.
    let mut batches: VecDeque<&[Update<F::Addr>]> = match (updates, cfg.churn.as_ref()) {
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

    let mut sweeps = (cfg.sweep_every > 0).then(SweepSummary::default);
    let mut round = 0usize;
    let round_cap = 1000 * total_rounds + 10_000;
    drive(workers, Backoff::new(1), |workers| {
        round += 1;
        assert!(
            round <= round_cap,
            "deterministic schedule failed to quiesce"
        );
        control.maybe_remap();
        if let Some(s) = sweeps.as_mut() {
            if round.is_multiple_of(cfg.sweep_every) {
                sweep_caches(workers, control, s);
            }
        }
        if !batches.is_empty() && round.is_multiple_of(publish_every) {
            let batch = batches.pop_front().expect("non-empty");
            control.publish_batch(batch);
        }
        if let Some((rng, per_mille)) = forced_rng.as_mut() {
            if rng.gen_range(0u16..1000) < *per_mille {
                control.publish_batch(&[]);
                forced_publications += 1;
            }
        }
    });
    // Publish whatever churn remains so the final table reflects the
    // whole stream (mirrors the paced mode finishing its stream).
    while let Some(batch) = batches.pop_front() {
        control.publish_batch(batch);
    }
    (forced_publications, sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_core::{LpmAlgorithm, LpmAlgorithm6};
    use spal_rib::synth;
    use spal_rib::updates::apply;
    use spal_rib::v6::synthesize6_dfz;
    use spal_traffic::{generate6, preset, PresetName, TracePreset};

    /// A family plus the small table and 400-flow trace its cases run.
    trait TestFamily: AddrFamily {
        /// An engine whose patch declines on `decline_table`'s stream.
        const DECLINING: Self::Algorithm;

        fn small_setup(
            psi: usize,
            packets: usize,
        ) -> (RoutingTable<Self::Addr>, Vec<Trace<Self::Addr>>);

        /// The table `churn.rs`'s decline stream runs over.
        fn decline_table() -> RoutingTable<Self::Addr>;
    }

    impl TestFamily for V4 {
        const DECLINING: LpmAlgorithm = LpmAlgorithm::Lulea;

        fn decline_table() -> RoutingTable {
            synth::small(21)
        }

        fn small_setup(psi: usize, packets: usize) -> (RoutingTable, Vec<Trace>) {
            let table = synth::small(11);
            let p = TracePreset {
                distinct: 400,
                ..preset(PresetName::D75)
            };
            let traces = p.generate(&table, psi * packets, 5).split(psi);
            (table, traces)
        }
    }

    impl TestFamily for V6 {
        const DECLINING: LpmAlgorithm6 = LpmAlgorithm6::Ship;

        fn decline_table() -> RoutingTable6 {
            synthesize6_dfz(3_000, 21)
        }

        fn small_setup(psi: usize, packets: usize) -> (RoutingTable6, Vec<Trace6>) {
            let table = synthesize6_dfz(3_000, 11);
            let traces = generate6(&table, 400, psi * packets, 5).split(psi);
            (table, traces)
        }
    }

    /// Every case below runs once per family.
    macro_rules! for_both_families {
        ($($case:ident),* $(,)?) => {
            mod v4 {
                $(#[test] fn $case() { super::$case::<super::V4>() })*
            }
            mod v6 {
                $(#[test] fn $case() { super::$case::<super::V6>() })*
            }
        };
    }

    for_both_families!(
        deterministic_single_worker_matches_oracle,
        deterministic_multi_worker_matches_oracle_and_shares_results,
        one_fe_lookup_serves_every_lc_asking_for_an_address,
        deterministic_runs_are_reproducible,
        deterministic_churn_stays_coherent_and_coalesces,
        threaded_run_matches_oracle,
        threaded_run_with_churn_matches_oracle_checks,
        full_flush_mode_also_stays_coherent,
        mixed_admit_burst_books_hits_and_parks_misses_in_lane_order,
        mixed_request_message_answers_hits_and_parks_misses_in_lane_order,
        churn_free_run_shares_every_engine,
        untouched_lc_keeps_sharing_its_engine_under_churn,
        declined_fragment_is_rebuilt_once_and_shared,
    );

    /// Without churn nothing is patched: each LC's engine is built once
    /// and both ping-pong copies hold that one allocation to the end.
    fn churn_free_run_shares_every_engine<F: TestFamily>() {
        let (table, traces) = F::small_setup(3, 1_000);
        let cfg = DataplaneConfig {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(128),
            ..Default::default()
        };
        let (mut workers, mut control) = assemble::<F>(&table, &traces, &cfg);
        run_deterministic(&mut workers, &mut control, None, &cfg);
        let live = control.writer.peek();
        let shadow = control.shadow.as_deref().expect("shadow present");
        for lc in 0..3 {
            assert!(Arc::ptr_eq(&live.tables[lc], &shadow.tables[lc]), "lc {lc}");
            assert_eq!(Arc::strong_count(&live.tables[lc]), 2, "lc {lc}");
        }
    }

    /// Under churn only the LCs an update reaches get a private copy:
    /// the stream here skips every prefix homed on LC 0.
    fn untouched_lc_keeps_sharing_its_engine_under_churn<F: TestFamily>() {
        let (table, traces) = F::small_setup(3, 2_000);
        let cfg = DataplaneConfig {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            churn: Some(churn(120, 20, 0.3)),
            seed: 7,
            ..Default::default()
        };
        let (mut workers, mut control) = assemble::<F>(&table, &traces, &cfg);
        let stream = UpdateStreamConfig {
            count: 120,
            withdraw_fraction: 0.3,
            seed: cfg.seed ^ F::CHURN_SEED_SALT,
        };
        let updates: Vec<Update<F::Addr>> = update_stream(&table, &stream)
            .0
            .into_iter()
            .filter(|u| !control.part.lcs_of_prefix(u.prefix()).contains(&0))
            .collect();
        assert!(!updates.is_empty());
        run_deterministic(&mut workers, &mut control, Some(&updates), &cfg);
        assert!(control.report.delta_applies + control.report.rebuild_applies > 0);
        control.final_check(1_000, cfg.seed);
        assert_eq!(control.report.final_mismatches, 0);
        let live = control.writer.peek();
        let shadow = control.shadow.as_deref().expect("shadow present");
        assert!(Arc::ptr_eq(&live.tables[0], &shadow.tables[0]));
    }

    /// `churn.rs`'s decline stream (two LCs, 90 updates in publications
    /// of 30), published batch by batch on an engine that declines —
    /// Lulea always, SHIP once its garbage rule fires. Each publication
    /// rebuilds exactly the LCs whose patch declines, predicted on a
    /// clone of the shadow's engine; after a rebuild that engine is the
    /// live one and the LC has no lag, so the next publication rebuilds
    /// it only if its own new changes decline.
    fn declined_fragment_is_rebuilt_once_and_shared<F: TestFamily>() {
        let table = F::decline_table();
        let traces = [Trace::new("idle", vec![table.entries()[0].prefix.bits()])];
        let cfg = DataplaneConfig {
            workers: 2,
            deterministic: true,
            algorithm: F::DECLINING,
            churn: Some(churn(90, 30, 0.3)),
            seed: 3,
            ..Default::default()
        };
        let (_workers, mut control) = assemble::<F>(&table, &traces, &cfg);
        let stream = UpdateStreamConfig {
            count: 90,
            withdraw_fraction: 0.3,
            seed: cfg.seed ^ F::CHURN_SEED_SALT,
        };
        let updates = update_stream(&table, &stream).0;
        let mut rebuilt_last = [false; 2];
        for batch in updates.chunks(30) {
            let mut declines = [false; 2];
            for (lc, decline) in declines.iter_mut().enumerate() {
                if rebuilt_last[lc] {
                    assert!(
                        control.lagging[lc].is_empty(),
                        "lc {lc} lags after a rebuild"
                    );
                }
                let mut rib = control.per_lc_rib[lc].clone();
                let mut patch = control.lagging[lc].clone();
                for &u in batch {
                    if control
                        .part
                        .lcs_of_prefix(u.prefix())
                        .contains(&(lc as u16))
                    {
                        apply(&mut rib, u);
                        if !patch.contains(&u.prefix()) {
                            patch.push(u.prefix());
                        }
                    }
                }
                let mut engine = (*control.shadow.as_ref().unwrap().tables[lc]).clone();
                *decline = !patch.is_empty() && engine.apply_delta(&patch, &rib).is_none();
            }
            let before = control.report.rebuild_applies;
            control.publish_batch(batch);
            let expect = declines.iter().filter(|&&d| d).count() as u64;
            assert_eq!(control.report.rebuild_applies - before, expect);
            let live = control.writer.peek();
            let shadow = control.shadow.as_deref().expect("shadow present");
            for (lc, &declined) in declines.iter().enumerate() {
                if declined {
                    assert!(Arc::ptr_eq(&live.tables[lc], &shadow.tables[lc]), "lc {lc}");
                    assert!(control.lagging[lc].is_empty());
                }
            }
            rebuilt_last = declines;
        }
        assert!(control.report.rebuild_applies > 0, "no patch ever declined");
        control.final_check(1_000, cfg.seed);
        assert_eq!(control.report.final_mismatches, 0);
    }

    fn oracle_checksum<F: AddrFamily>(
        table: &RoutingTable<F::Addr>,
        traces: &[Trace<F::Addr>],
    ) -> (u64, u64) {
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

    fn churn(
        updates: usize,
        updates_per_publication: usize,
        withdraw_fraction: f64,
    ) -> ChurnConfig {
        ChurnConfig {
            updates,
            updates_per_publication,
            withdraw_fraction,
            pace_us: 0,
        }
    }

    fn assert_matches_oracle<F: AddrFamily>(
        report: &DataplaneReport,
        table: &RoutingTable<F::Addr>,
        traces: &[Trace<F::Addr>],
    ) {
        let (packets, sum) = oracle_checksum::<F>(table, traces);
        assert_eq!(report.total_packets(), packets);
        assert_eq!(report.checksum(), sum);
        assert_eq!(report.spot_check_mismatches(), 0);
    }

    fn deterministic_single_worker_matches_oracle<F: TestFamily>() {
        let (table, traces) = F::small_setup(1, 3_000);
        let cfg = DataplaneConfig {
            workers: 1,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            ..Default::default()
        };
        let report = run_family::<F>(&table, &traces, &cfg);
        assert_matches_oracle::<F>(&report, &table, &traces);
        assert!(report.workers[0].remote_requests == 0);
        // `forward_batch` was actually cross-checked against the scalar
        // `lookup`, not vacuously clean.
        assert!(report.workers[0].spot_checks > 0);
    }

    fn deterministic_multi_worker_matches_oracle_and_shares_results<F: TestFamily>() {
        let (table, traces) = F::small_setup(4, 2_000);
        let cfg = DataplaneConfig {
            workers: 4,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            ..Default::default()
        };
        let report = run_family::<F>(&table, &traces, &cfg);
        assert_matches_oracle::<F>(&report, &table, &traces);
        // Cross-LC traffic exists and produces REM-origin cache entries.
        let remote: u64 = report.workers.iter().map(|w| w.remote_requests).sum();
        let served: u64 = report.workers.iter().map(|w| w.remote_served).sum();
        assert!(remote > 0, "expected cross-LC requests");
        assert_eq!(
            remote,
            report
                .workers
                .iter()
                .map(|w| w.replies_received)
                .sum::<u64>()
        );
        assert_eq!(remote, served);
        assert!(report.rem_share() > 0.0);
        // The outbox actually coalesced messages.
        let batched: u64 = report
            .workers
            .iter()
            .map(|w| w.batch_requests_sent + w.batch_replies_sent)
            .sum();
        assert!(batched > 0, "no message was ever coalesced");
    }

    /// §3.3's sharing, counted exactly: three LCs each send one address
    /// homed on the third, twice. The home FE resolves it once; each
    /// other LC sends one request, and the home serves both.
    fn one_fe_lookup_serves_every_lc_asking_for_an_address<F: TestFamily>() {
        let (table, _) = F::small_setup(1, 1);
        let part = Partitioning::new(&table, select_bits(&table, eta_for(3)), 3);
        let home = 2;
        let addr = table
            .entries()
            .iter()
            .map(|e| e.prefix.bits())
            .find(|&a| part.home_of(a) == home)
            .expect("some address homes at LC 2");
        let traces: Vec<Trace<F::Addr>> = (0..3)
            .map(|lc| Trace::new(format!("lc{lc}"), vec![addr; 2]))
            .collect();
        let cfg = DataplaneConfig {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(128),
            ..Default::default()
        };
        let report = run_family::<F>(&table, &traces, &cfg);
        assert_matches_oracle::<F>(&report, &table, &traces);
        for w in &report.workers {
            let is_home = w.lc == home as usize;
            assert_eq!(w.fe_lookups, u64::from(is_home), "lc {}", w.lc);
            assert_eq!(w.remote_requests, u64::from(!is_home), "lc {}", w.lc);
            assert_eq!(w.remote_served, if is_home { 2 } else { 0 }, "lc {}", w.lc);
        }
    }

    fn deterministic_runs_are_reproducible<F: TestFamily>() {
        let (table, traces) = F::small_setup(3, 1_000);
        let cfg = DataplaneConfig {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(128),
            ..Default::default()
        };
        let a = run_family::<F>(&table, &traces, &cfg);
        let b = run_family::<F>(&table, &traces, &cfg);
        assert_eq!(a.checksum(), b.checksum());
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.cache, wb.cache, "lc {} stats differ", wa.lc);
            assert_eq!(wa.fe_lookups, wb.fe_lookups);
            assert_eq!(wa.remote_requests, wb.remote_requests);
        }
    }

    /// Under churn a deterministic run must not diverge from the
    /// oracle anywhere it is checked — spot checks, the published
    /// tables, the post-quiesce cache sweep — while batch framing is
    /// actually in play. (The byte-level report is pinned by the
    /// `golden_report` fixtures.)
    fn deterministic_churn_stays_coherent_and_coalesces<F: TestFamily>() {
        let (table, traces) = F::small_setup(3, 2_000);
        let cfg = DataplaneConfig {
            workers: 3,
            deterministic: true,
            cache: LrCacheConfig::paper(256),
            churn: Some(churn(120, 20, 0.3)),
            seed: 7,
            ..Default::default()
        };
        let r = run_family::<F>(&table, &traces, &cfg);
        assert_eq!(r.spot_check_mismatches(), 0);
        let churn = r.churn.as_ref().expect("churn configured");
        assert!(churn.publications > 0);
        assert_eq!(churn.final_mismatches, 0, "published tables diverged");
        // An engine that declines a patch gets its fragment rebuilt;
        // either path must have engaged.
        assert!(churn.delta_applies + churn.rebuild_applies > 0);
        let coh = r.coherence.as_ref().expect("deterministic sweep");
        assert_eq!(coh.mismatches, 0, "cache coherence violated");
        let batched: u64 = r
            .workers
            .iter()
            .map(|w| w.batch_requests_sent + w.batch_replies_sent)
            .sum();
        assert!(batched > 0, "no message was ever coalesced");
    }

    /// One admit burst holding every lane kind — `Hit` (LOC and REM),
    /// `Waiting`, `MissReserved`, `MissUnrecorded` — against a one-set
    /// cache seeded by hand. The counts are what the two-pass
    /// `probe_batch` + re-read admit booked for this burst, frozen
    /// here; the FE queue / fabric split follows from `home_of`.
    fn mixed_admit_burst_books_hits_and_parks_misses_in_lane_order<F: TestFamily>() {
        let (table, traces) = F::small_setup(1, 400);
        let mut d: Vec<F::Addr> = Vec::new();
        for &a in traces[0].destinations() {
            if !d.contains(&a) {
                d.push(a);
            }
        }
        let lanes = [0usize, 2, 3, 1, 0, 4, 5, 6, 3, 0];
        let burst: Vec<F::Addr> = lanes.iter().map(|&i| d[i]).collect();
        let cfg = DataplaneConfig {
            workers: 2,
            deterministic: true,
            cache: LrCacheConfig {
                blocks: 4,
                assoc: 4,
                victim_blocks: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let (mut workers, _control) =
            assemble::<F>(&table, &[Trace::new("burst", burst.clone())], &cfg);
        let core = &mut workers[0].core;
        core.cache.fill_local(d[0], Some(7), Origin::Loc);
        core.cache.fill_local(d[1], None, Origin::Rem);
        core.cache.reserve(d[2]);

        // d0 hits (LOC), d2 waits, d3 takes the free way, d1 hits (REM,
        // no route), d0 hits again, d4 evicts d1 and d5 evicts d0, d6
        // finds the set all waiting, d3 waits, d0 is gone and cannot
        // be recorded.
        assert_eq!(core.admit_own(), 10);
        assert_eq!(core.pos, 10);
        assert_eq!(core.report.packets, 3);
        assert_eq!(core.report.next_hop_sum, 16);
        assert_eq!(core.report.latency.loc_hit.count(), 2);
        assert_eq!(core.report.latency.rem_hit.count(), 1);
        let stats = *core.cache.stats();
        assert_eq!(
            (stats.hits_loc, stats.hits_rem, stats.hits_waiting),
            (2, 1, 2)
        );
        assert_eq!(
            (stats.misses, stats.reservations, stats.evictions),
            (5, 4, 2)
        );
        assert_eq!(stats.reservation_failures, 2);

        // Six addresses in flight, first-parked first: the ones homed
        // here queue for the FE in lane order, the others await a
        // reply; d3 carries both of its packets.
        let parked = [2usize, 3, 4, 5, 6, 0].map(|i| d[i]);
        let local = |a: &F::Addr| core.part.home_of(*a) as usize == core.lc;
        let homed_here: Vec<F::Addr> = parked.iter().copied().filter(|a| local(a)).collect();
        let mut remote: Vec<F::Addr> = parked.iter().copied().filter(|a| !local(a)).collect();
        remote.sort_unstable();
        assert_eq!(core.pending.len(), 6);
        assert_eq!(core.fe_queue, homed_here);
        assert_eq!(core.pending.in_flight(), remote.len());
        assert_eq!(core.pending.awaiting_sorted(), remote);
        assert_eq!(core.report.remote_requests, remote.len() as u64);
        let mut waiters = Vec::new();
        for (addr, expect) in parked.iter().zip([1usize, 2, 1, 1, 1, 1]) {
            assert!(core.pending.take(*addr, &mut waiters));
            assert_eq!(waiters.len(), expect);
        }
        assert!(core.pending.is_empty());
    }

    /// One request message from LC 1 holding every lane kind — `Hit`
    /// (LOC and REM), `Waiting`, `MissReserved`, `MissUnrecorded` and
    /// repeated addresses — served by its home LC 0 against a one-set
    /// cache seeded by hand, as in the admit-burst case above. The
    /// counts are what the scalar per-lane probe + reserve booked for
    /// this message, frozen here: hits are answered in lane order in
    /// one coalesced reply, every other lane is parked for the FE.
    fn mixed_request_message_answers_hits_and_parks_misses_in_lane_order<F: TestFamily>() {
        let (table, traces) = F::small_setup(2, 400);
        let cfg = DataplaneConfig {
            workers: 2,
            deterministic: true,
            cache: LrCacheConfig {
                blocks: 4,
                assoc: 4,
                victim_blocks: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let (mut workers, control) = assemble::<F>(&table, &traces, &cfg);
        let snap = control.writer.peek();
        let core = &mut workers[0].core;
        let mut d: Vec<F::Addr> = Vec::new();
        for &a in traces.iter().flat_map(|t| t.destinations()) {
            if core.part.home_of(a) == 0 && !d.contains(&a) {
                d.push(a);
            }
        }
        core.cache.fill_local(d[0], Some(7), Origin::Loc);
        core.cache.fill_local(d[1], None, Origin::Rem);
        core.cache.reserve(d[2]);
        let lanes: Vec<F::Addr> = [0usize, 2, 3, 1, 0, 4, 5, 6, 3, 0]
            .iter()
            .map(|&i| d[i])
            .collect();
        let msg = FabricMsg {
            kind: MsgKind::BatchRequest(AddrBatch::from_slice(&lanes)),
            src: 1,
            dst: 0,
            addr: lanes[0],
            packet_id: 0,
            sent_at: 0,
        };
        core.dispatch(msg, snap, Instant::now());

        // d0 hits (LOC), d2 waits, d3 takes the free way, d1 hits (REM,
        // no route), d0 hits again, d4 evicts d1 and d5 evicts d0, d6
        // finds the set all waiting, d3 waits, d0 is gone and cannot
        // be recorded.
        assert_eq!(core.report.remote_served, 10);
        assert_eq!(core.report.packets, 0);
        let stats = *core.cache.stats();
        assert_eq!(
            (stats.hits_loc, stats.hits_rem, stats.hits_waiting),
            (2, 1, 2)
        );
        assert_eq!(
            (stats.misses, stats.reservations, stats.evictions),
            (5, 4, 2)
        );
        assert_eq!(stats.reservation_failures, 2);

        // The three hits, in lane order, in one reply at the snapshot's
        // version.
        assert!(core.outbox[0].is_empty());
        let [reply] = core.outbox[1].as_slice() else {
            panic!("expected one reply message, got {:?}", core.outbox[1]);
        };
        let MsgKind::BatchReply(b) = &reply.kind else {
            panic!("expected a reply, got {:?}", reply.kind);
        };
        assert_eq!((reply.src, reply.dst, reply.sent_at), (0, 1, snap.version));
        let answered: Vec<_> = b.iter().collect();
        assert_eq!(answered, [(d[0], Some(7)), (d[1], None), (d[0], Some(7))]);
        assert_eq!(core.report.batch_replies_sent, 1);

        // Six addresses parked first-parked first, all homed here, so
        // all queue for the FE; every waiter is LC 1's, d3 carries both
        // of its lanes.
        let parked = [2usize, 3, 4, 5, 6, 0].map(|i| d[i]);
        assert_eq!(core.fe_queue, parked);
        assert_eq!(core.pending.len(), 6);
        assert_eq!(core.pending.in_flight(), 0);
        assert_eq!(core.report.remote_requests, 0);
        let mut waiters = Vec::new();
        for (addr, expect) in parked.iter().zip([1usize, 2, 1, 1, 1, 1]) {
            assert!(core.pending.take(*addr, &mut waiters));
            assert_eq!(waiters, vec![Waiter::Remote { src: 1 }; expect]);
        }
        assert!(core.pending.is_empty());
    }

    fn threaded_run_matches_oracle<F: TestFamily>() {
        let (table, traces) = F::small_setup(4, 2_000);
        let cfg = DataplaneConfig {
            workers: 4,
            cache: LrCacheConfig::paper(256),
            ..Default::default()
        };
        let report = run_family::<F>(&table, &traces, &cfg);
        assert_matches_oracle::<F>(&report, &table, &traces);
    }

    fn threaded_run_with_churn_matches_oracle_checks<F: TestFamily>() {
        let (table, traces) = F::small_setup(4, 2_000);
        let cfg = DataplaneConfig {
            workers: 4,
            cache: LrCacheConfig::paper(256),
            churn: Some(churn(200, 25, 0.3)),
            ..Default::default()
        };
        let report = run_family::<F>(&table, &traces, &cfg);
        let (packets, _) = oracle_checksum::<F>(&table, &traces);
        assert_eq!(report.total_packets(), packets);
        assert_eq!(report.spot_check_mismatches(), 0);
        let churn = report.churn.as_ref().expect("churn configured");
        assert_eq!(churn.final_mismatches, 0);
    }

    fn full_flush_mode_also_stays_coherent<F: TestFamily>() {
        let (table, traces) = F::small_setup(2, 1_500);
        let cfg = DataplaneConfig {
            workers: 2,
            deterministic: true,
            invalidation: InvalidationMode::FullFlush,
            cache: LrCacheConfig::paper(128),
            churn: Some(churn(80, 20, 0.4)),
            ..Default::default()
        };
        let report = run_family::<F>(&table, &traces, &cfg);
        assert_eq!(report.coherence.as_ref().unwrap().mismatches, 0);
        assert_eq!(report.churn.as_ref().unwrap().final_mismatches, 0);
    }
}
