//! The layer replay: the worker loop re-enacted from outside, one call
//! into a layer per span.
//!
//! The dataplane does not yet explain where its cycles go (ROADMAP
//! item 2), and this change may not add spans inside it. So the traced
//! run is a single-threaded re-enactment that drives the workload's own
//! trace through the same public functions in `WorkerCore::step`'s
//! order — pin, invalidate, drain fabric, `probe_batch`, `home_of`,
//! `lookup_batch`, `fill`, coalesce, `push_slice` — one 256-packet
//! burst at a time, with a span around every call. What lies between
//! the calls (the pending map, waiter lists, event coalescing) is the
//! replay's own stand-in for the runtime's and is *not* attributed to
//! any layer: it is the burst span's self time.
//!
//! With one LC the cache sees the identical probe/reserve/fill
//! sequence as the real worker, so the replay's hit and miss counts
//! must equal the run's `CacheStats` — the check that this is the
//! program's work and not a different program. With two LCs or a
//! control plane the real interleaving depends on timing; the replay
//! fixes one (LCs step round-robin, a publication every N bursts).

use crate::oracle::checksum_term;
use crate::stats::Span;
use crate::sut::{
    spsc_ring, AddrBatch, BatchProbe, CountedLookup, EngineKind, EpochReader, EpochWriter,
    FabricMsg, Family, ForwardingTable, Lpm, LrCache, LrCacheConfig, MsgKind, Origin, Prefix,
    ProbeResult, ReplyBatch, RoutingTable, SpscConsumer, SpscProducer, Update, BATCH,
    BATCH_MSG_LANES, RING_CAPACITY, V4,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// The span clock, in ticks since an arbitrary origin. On x86-64 it is
/// the time-stamp counter: `Instant::now` costs ~50 ns on the reference
/// host, which at eight spans per 256-packet burst made tracing cost
/// 8–9 % of the locality replay; RDTSC brings that under 2 %.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks(_origin: Instant) -> u64 {
    // SAFETY: RDTSC reads a counter register; it has no preconditions
    // and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Span recorder. With spans off every call is one predictable branch,
/// which is what the overhead measurement compares against.
pub struct Tracer {
    origin: Instant,
    tick0: u64,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// `capacity`: spans to make room for up front (`None` = spans
    /// off), so that recording never stops to grow or fault in the
    /// buffer.
    pub fn new(capacity: Option<usize>) -> Self {
        let origin = Instant::now();
        Tracer {
            origin,
            tick0: ticks(origin),
            // Written once now: left to first-touch page faults, the
            // buffer cost the churn replay 15 % (a fault per 85 spans,
            // slow beside the control plane's 5 MB memmoves).
            spans: capacity.map(|c| {
                let mut spans = vec![Span::default(); c];
                spans.clear();
                spans
            }),
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, id: u32) -> u32 {
        let Some(spans) = &mut self.spans else {
            return 0;
        };
        let now = ticks(self.origin);
        spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            id,
        });
        (spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, span: u32) {
        if let Some(spans) = &mut self.spans {
            spans[span as usize].end = ticks(self.origin);
        }
    }

    /// The recorded spans, their ticks converted to ns since the
    /// tracer was made (the tick rate is measured against `Instant`
    /// over the tracer's whole life; the TSC is constant-rate).
    pub fn finish(self) -> Vec<Span> {
        let ns = self.origin.elapsed().as_nanos() as f64;
        let ns_per_tick = ns / (ticks(self.origin) - self.tick0).max(1) as f64;
        let to_ns = |t: u64| ((t - self.tick0) as f64 * ns_per_tick) as u64;
        let mut spans = self.spans.unwrap_or_default();
        for s in &mut spans {
            s.start = to_ns(s.start);
            s.end = to_ns(s.end);
        }
        spans
    }

    /// What a span records around nothing — one clock read and the
    /// push. Layer costs subtract it per span, or a 5 ns `pin` would
    /// read as several times that.
    pub fn empty_span_ns() -> u64 {
        const SPANS: usize = 100_001;
        let mut t = Tracer::new(Some(SPANS));
        for _ in 0..SPANS {
            let s = t.begin("calibration", None, 0);
            t.end(s);
        }
        let mut empty: Vec<u64> = t.finish().iter().map(|s| s.end - s.start).collect();
        empty.sort_unstable();
        empty[SPANS / 2]
    }
}

/// Work the replay did, counted where it happened — the denominators of
/// the per-operation layer costs.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub packets: u64,
    pub bursts: u64,
    /// Addresses through `probe_batch` (own packets).
    pub batch_probes: u64,
    /// Addresses through scalar `probe` (remote requests at their home).
    pub remote_probes: u64,
    pub home_calls: u64,
    pub lookups: u64,
    pub lookup_calls: u64,
    pub lines: u64,
    pub fills: u64,
    pub ring_msgs: u64,
    pub ring_lanes: u64,
    pub pins: u64,
    pub publications: u64,
    pub patched: u64,
    pub rebuilt: u64,
    pub invalidate_calls: u64,
}

pub struct Outcome {
    /// Empty when spans were off.
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Cache hits (complete or waiting) and probes, summed over LCs.
    pub hits: u64,
    pub probes: u64,
    /// Σ over completed packets of next hop + 1, as the dataplane sums.
    pub checksum: u64,
    pub wall_ns: u64,
}

/// The control plane's part of the replay, for workloads with churn.
pub trait ControlPlane<F: Family> {
    /// Start over for one replay: the LC's RIB fragment, the writer half
    /// of the epoch table the replay reads, a shadow copy of the
    /// engines, and how many bursts lie between publications.
    fn arm(
        &mut self,
        rib: &F::Table,
        writer: EpochWriter<Vec<F::Engine>>,
        shadow: Vec<F::Engine>,
        every: u64,
    );
    /// A second control plane over the same update stream, for the
    /// replay's other copy.
    fn fork(&self) -> Box<dyn ControlPlane<F>>;
    /// Whether a publication is due before burst `burst`.
    fn due(&self, burst: u64) -> bool;
    /// Ingest the next update batch, patch the shadow engines, publish.
    /// Returns the prefixes the worker must invalidate.
    fn publish(&mut self, tracer: &mut Tracer, counts: &mut Counts) -> Vec<(F::Addr, u8)>;
}

#[derive(Clone, Copy)]
enum Waiter {
    Local,
    Remote { src: u16 },
}

#[derive(Clone, Copy)]
enum OutEvent<A> {
    Req(A),
    Rep(A, Option<u16>),
}

type Msg<F> = FabricMsg<<F as Family>::Addr>;

/// Where one LC step records: the tracer, the counters, and the burst
/// span every call of the step is a child of.
struct Frame<'a> {
    t: &'a mut Tracer,
    counts: &'a mut Counts,
    burst: u32,
    id: u32,
}

impl Frame<'_> {
    fn begin(&mut self, name: &'static str) -> u32 {
        self.t.begin(name, Some(self.burst), self.id)
    }

    fn end(&mut self, span: u32) {
        self.t.end(span)
    }
}

/// One emulated line card.
struct Lc<'a, F: Family> {
    id: usize,
    cache: LrCache<Option<u16>, F::Addr>,
    dests: &'a [F::Addr],
    pos: usize,
    pending: HashMap<F::Addr, Vec<Waiter>>,
    fe_queue: Vec<F::Addr>,
    out_events: Vec<Vec<OutEvent<F::Addr>>>,
    tx: Vec<Option<SpscProducer<Msg<F>>>>,
    rx: Vec<Option<SpscConsumer<Msg<F>>>>,
    to_invalidate: Vec<(F::Addr, u8)>,
    checksum: u64,
    // Scratch reused across bursts.
    probes: Vec<BatchProbe<Option<u16>>>,
    results: Vec<CountedLookup>,
    new_misses: Vec<F::Addr>,
    homes: Vec<u16>,
    popped: Vec<Msg<F>>,
    lanes: Vec<(F::Addr, Option<u16>)>,
    outbox: Vec<Msg<F>>,
}

impl<F: Family> Lc<'_, F> {
    fn complete(&mut self, nh: Option<u16>, counts: &mut Counts) {
        counts.packets += 1;
        self.checksum = self.checksum.wrapping_add(checksum_term(nh));
    }

    /// Park a waiter; returns whether it opened a new job for `addr`.
    fn park(&mut self, addr: F::Addr, w: Waiter) -> bool {
        match self.pending.entry(addr) {
            Entry::Occupied(mut e) => {
                e.get_mut().push(w);
                false
            }
            Entry::Vacant(e) => {
                e.insert(vec![w]);
                true
            }
        }
    }

    fn resolve(&mut self, addr: F::Addr, nh: Option<u16>, counts: &mut Counts) {
        for w in self.pending.remove(&addr).unwrap_or_default() {
            match w {
                Waiter::Local => self.complete(nh, counts),
                Waiter::Remote { src } => {
                    self.out_events[src as usize].push(OutEvent::Rep(addr, nh))
                }
            }
        }
    }

    fn idle(&self) -> bool {
        self.pos == self.dests.len() && self.pending.is_empty()
    }

    /// `drain_ctrl`: the invalidations the last publication queued.
    fn drain_ctrl(&mut self, cx: &mut Frame) {
        if self.to_invalidate.is_empty() {
            return;
        }
        let s = cx.begin("cache.invalidate_covered");
        for &(bits, len) in &self.to_invalidate {
            self.cache.invalidate_covered(bits, len);
        }
        cx.end(s);
        cx.counts.invalidate_calls += self.to_invalidate.len() as u64;
        self.to_invalidate.clear();
    }

    /// `drain_fabric`: requests are probed (and reserved on a miss) at
    /// their home, replies fill the requester's cache as `REM`.
    fn drain_fabric(&mut self, cx: &mut Frame) -> u64 {
        let mut drained = 0;
        for src in 0..self.rx.len() {
            let Some(mut rx) = self.rx[src].take() else {
                continue;
            };
            loop {
                let mut popped = std::mem::take(&mut self.popped);
                popped.clear();
                let s = cx.begin("fabric.pop_slice");
                let n = rx.pop_slice(&mut popped, BATCH);
                cx.end(s);
                for msg in &popped {
                    self.dispatch(msg, cx);
                }
                self.popped = popped;
                drained += n as u64;
                if n == 0 {
                    break;
                }
            }
            self.rx[src] = Some(rx);
        }
        drained
    }

    fn dispatch(&mut self, msg: &Msg<F>, cx: &mut Frame) {
        let mut lanes = std::mem::take(&mut self.lanes);
        lanes.clear();
        let is_request = match &msg.kind {
            MsgKind::Request => {
                lanes.push((msg.addr, None));
                true
            }
            MsgKind::BatchRequest(b) => {
                lanes.extend(b.addrs().iter().map(|&a| (a, None)));
                true
            }
            MsgKind::Reply { next_hop } => {
                lanes.push((msg.addr, *next_hop));
                false
            }
            MsgKind::BatchReply(b) => {
                lanes.extend(b.iter());
                false
            }
        };
        if is_request {
            self.serve_requests(msg.src, &lanes, cx);
        } else {
            let s = cx.begin("cache.fill");
            for &(addr, nh) in &lanes {
                self.cache.fill(addr, nh, Origin::Rem);
            }
            cx.end(s);
            cx.counts.fills += lanes.len() as u64;
            for &(addr, nh) in &lanes {
                self.resolve(addr, nh, cx.counts);
            }
        }
        self.lanes = lanes;
    }

    /// `handle_request_addr` per lane: a hit is answered at once, a
    /// miss reserves the block and joins the local engine queue (a
    /// request only ever reaches its home LC).
    fn serve_requests(&mut self, src: u16, lanes: &[(F::Addr, Option<u16>)], cx: &mut Frame) {
        let mut probes = std::mem::take(&mut self.probes);
        probes.clear();
        let s = cx.begin("cache.probe");
        for &(addr, _) in lanes {
            probes.push(match self.cache.probe(addr) {
                ProbeResult::Hit { value, origin } => BatchProbe::Hit { value, origin },
                ProbeResult::HitWaiting => BatchProbe::Waiting,
                ProbeResult::Miss => {
                    let _ = self.cache.reserve(addr);
                    BatchProbe::MissReserved
                }
            });
        }
        cx.end(s);
        cx.counts.remote_probes += lanes.len() as u64;
        for (&(addr, _), lane) in lanes.iter().zip(&probes) {
            match *lane {
                BatchProbe::Hit { value, .. } => {
                    self.out_events[src as usize].push(OutEvent::Rep(addr, value))
                }
                _ => {
                    if self.park(addr, Waiter::Remote { src }) {
                        self.fe_queue.push(addr);
                    }
                }
            }
        }
        self.probes = probes;
    }

    /// `admit_own`: one batched probe pass over the next burst; misses
    /// are parked and routed to the local engine or their home LC.
    fn admit_own(&mut self, part: &F::Part, cx: &mut Frame) {
        let end = (self.pos + BATCH).min(self.dests.len());
        if end == self.pos {
            return;
        }
        let dests = self.dests;
        let addrs = &dests[self.pos..end];
        let mut probes = std::mem::take(&mut self.probes);
        probes.clear();
        let s = cx.begin("cache.probe_batch");
        self.cache.probe_batch(addrs, &mut probes);
        cx.end(s);
        cx.counts.batch_probes += addrs.len() as u64;
        self.new_misses.clear();
        for (&addr, lane) in addrs.iter().zip(&probes) {
            match *lane {
                BatchProbe::Hit { value, .. } => self.complete(value, cx.counts),
                _ => {
                    if self.park(addr, Waiter::Local) {
                        self.new_misses.push(addr);
                    }
                }
            }
        }
        self.probes = probes;
        self.pos = end;
        if self.new_misses.is_empty() {
            return;
        }
        self.homes.clear();
        let s = cx.begin("core.home_of");
        for &addr in &self.new_misses {
            self.homes.push(F::home_of(part, addr));
        }
        cx.end(s);
        cx.counts.home_calls += self.new_misses.len() as u64;
        for (&addr, &home) in self.new_misses.iter().zip(&self.homes) {
            if home as usize == self.id {
                self.fe_queue.push(addr);
            } else {
                self.out_events[home as usize].push(OutEvent::Req(addr));
            }
        }
    }

    /// `fe_flush`: one `lookup_batch` over the queued misses, then a
    /// `LOC` fill each.
    fn fe_flush(&mut self, engine: &F::Engine, cx: &mut Frame) {
        if self.fe_queue.is_empty() {
            return;
        }
        let addrs = std::mem::take(&mut self.fe_queue);
        self.results.clear();
        self.results.resize(addrs.len(), CountedLookup::MISS);
        let s = cx.begin("lpm.lookup_batch");
        F::lookup_batch(engine, &addrs, &mut self.results);
        cx.end(s);
        cx.counts.lookup_calls += 1;
        cx.counts.lookups += addrs.len() as u64;
        cx.counts.lines += self
            .results
            .iter()
            .map(|r| r.lines_touched as u64)
            .sum::<u64>();
        let s = cx.begin("cache.fill");
        for (&addr, res) in addrs.iter().zip(&self.results) {
            self.cache
                .fill(addr, res.next_hop.map(|h| h.0), Origin::Loc);
        }
        cx.end(s);
        cx.counts.fills += addrs.len() as u64;
        let results = std::mem::take(&mut self.results);
        for (&addr, res) in addrs.iter().zip(&results) {
            self.resolve(addr, res.next_hop.map(|h| h.0), cx.counts);
        }
        self.results = results;
        self.fe_queue = addrs;
        self.fe_queue.clear();
    }

    /// `pack_events` + `flush_outbox`: runs of same-kind events to one
    /// destination coalesce into batch messages of up to
    /// [`BATCH_MSG_LANES`] lanes, pushed with one `push_slice`.
    fn flush_outbox(&mut self, cx: &mut Frame) -> u64 {
        let mut sent = 0;
        for dst in 0..self.out_events.len() {
            if self.out_events[dst].is_empty() {
                continue;
            }
            let events = std::mem::take(&mut self.out_events[dst]);
            self.outbox.clear();
            let mut i = 0;
            while i < events.len() {
                let is_req = matches!(events[i], OutEvent::Req(_));
                let run = events[i..]
                    .iter()
                    .take(BATCH_MSG_LANES)
                    .take_while(|e| matches!(e, OutEvent::Req(_)) == is_req)
                    .count();
                let (addr, kind) = pack::<F>(&events[i..i + run]);
                self.outbox.push(FabricMsg {
                    kind,
                    src: self.id as u16,
                    dst: dst as u16,
                    addr,
                    packet_id: 0,
                    sent_at: 0,
                });
                cx.counts.ring_lanes += run as u64;
                i += run;
            }
            let tx = self.tx[dst].as_mut().expect("no events to self");
            let s = cx.begin("fabric.push_slice");
            let pushed = tx.push_slice(&self.outbox);
            cx.end(s);
            // One LC steps at a time and drains its rings dry each
            // step, so a burst's messages always fit.
            assert_eq!(pushed, self.outbox.len(), "replay ring overflow");
            sent += pushed as u64;
            let mut events = events;
            events.clear();
            self.out_events[dst] = events;
        }
        cx.counts.ring_msgs += sent;
        sent
    }
}

/// Nothing on the rings, every trace consumed, every waiter resolved.
fn all_idle<F: Family>(in_flight: u64, lcs: &[Lc<F>]) -> bool {
    in_flight == 0 && lcs.iter().all(|lc| lc.idle())
}

/// One run of same-kind events as one message: scalar for a singleton,
/// batch otherwise.
fn pack<F: Family>(run: &[OutEvent<F::Addr>]) -> (F::Addr, MsgKind<F::Addr>) {
    match run[0] {
        OutEvent::Req(first) => {
            let addrs: Vec<F::Addr> = run
                .iter()
                .map(|e| match *e {
                    OutEvent::Req(a) => a,
                    OutEvent::Rep(..) => unreachable!("runs are same-kind"),
                })
                .collect();
            let kind = if addrs.len() == 1 {
                MsgKind::Request
            } else {
                MsgKind::BatchRequest(AddrBatch::from_slice(&addrs))
            };
            (first, kind)
        }
        OutEvent::Rep(first, nh) => {
            let pairs: Vec<(F::Addr, Option<u16>)> = run
                .iter()
                .map(|e| match *e {
                    OutEvent::Rep(a, nh) => (a, nh),
                    OutEvent::Req(_) => unreachable!("runs are same-kind"),
                })
                .collect();
            let kind = if pairs.len() == 1 {
                MsgKind::Reply { next_hop: nh }
            } else {
                MsgKind::BatchReply(ReplyBatch::from_pairs(&pairs))
            };
            (first, kind)
        }
    }
}

/// One re-enactment of the workload, advanced a few rounds at a time so
/// that a spans-off and a spans-on copy can take turns: this host
/// drifts by ±10 % over seconds, far more than the tracing overhead the
/// pair exists to measure, and taking turns exposes both to the same
/// drift.
pub struct Replayer<'a, F: Family> {
    part: &'a F::Part,
    reader: EpochReader<Vec<F::Engine>>,
    control: Option<Box<dyn ControlPlane<F>>>,
    lcs: Vec<Lc<'a, F>>,
    tracer: Tracer,
    counts: Counts,
    in_flight: u64,
    wall_ns: u64,
}

impl<'a, F: Family> Replayer<'a, F> {
    /// `streams[i]` drives emulated LC `i` against the engines published
    /// through `reader`; `control`, already armed with the writer half,
    /// publishes updates between bursts.
    pub fn new(
        part: &'a F::Part,
        reader: EpochReader<Vec<F::Engine>>,
        cache: &LrCacheConfig,
        streams: &[&'a [F::Addr]],
        control: Option<Box<dyn ControlPlane<F>>>,
        spans_on: bool,
    ) -> Self {
        let psi = streams.len();
        assert!(
            control.is_none() || psi == 1,
            "the churn replay emulates one LC"
        );
        let mut tx: Vec<Vec<Option<SpscProducer<Msg<F>>>>> =
            (0..psi).map(|_| (0..psi).map(|_| None).collect()).collect();
        let mut rx: Vec<Vec<Option<SpscConsumer<Msg<F>>>>> =
            (0..psi).map(|_| (0..psi).map(|_| None).collect()).collect();
        for src in 0..psi {
            for dst in (0..psi).filter(|&d| d != src) {
                let (p, c) = spsc_ring(RING_CAPACITY);
                tx[src][dst] = Some(p);
                rx[dst][src] = Some(c);
            }
        }
        let lcs = streams
            .iter()
            .enumerate()
            .map(|(id, &dests)| Lc {
                id,
                cache: LrCache::new(cache.clone()),
                dests,
                pos: 0,
                pending: HashMap::new(),
                fe_queue: Vec::new(),
                out_events: (0..psi).map(|_| Vec::new()).collect(),
                tx: std::mem::take(&mut tx[id]),
                rx: std::mem::take(&mut rx[id]),
                to_invalidate: Vec::new(),
                checksum: 0,
                probes: Vec::new(),
                results: Vec::new(),
                new_misses: Vec::new(),
                homes: Vec::new(),
                popped: Vec::new(),
                lanes: Vec::new(),
                outbox: Vec::new(),
            })
            .collect();
        // One LC records six spans per burst (a few more per
        // publication); two LCs step twice per burst and add the ring
        // and remote-probe spans, about twenty.
        let bursts: usize = streams.iter().map(|s| s.len().div_ceil(BATCH)).sum();
        let spans_per_burst = if psi == 1 { 8 } else { 24 };
        Replayer {
            part,
            reader,
            control,
            lcs,
            tracer: Tracer::new(spans_on.then_some(bursts * spans_per_burst)),
            counts: Counts::default(),
            in_flight: 0,
            wall_ns: 0,
        }
    }

    fn done(&self) -> bool {
        all_idle(self.in_flight, &self.lcs)
    }

    /// Step every LC once, `rounds` times over or until the work runs
    /// out; returns whether any is left.
    pub fn advance(&mut self, rounds: usize) -> bool {
        let t0 = Instant::now();
        let (t, counts) = (&mut self.tracer, &mut self.counts);
        for _ in 0..rounds {
            if all_idle(self.in_flight, &self.lcs) {
                break;
            }
            for lc in self.lcs.iter_mut() {
                let id = counts.bursts as u32;
                if let Some(cp) = self.control.as_deref_mut() {
                    if cp.due(counts.bursts) {
                        lc.to_invalidate = cp.publish(t, counts);
                    }
                }
                let burst = t.begin("burst", None, id);
                let cx = &mut Frame {
                    t: &mut *t,
                    counts: &mut *counts,
                    burst,
                    id,
                };
                let s = cx.begin("dataplane.epoch_pin");
                let snap = self.reader.pin();
                cx.end(s);
                cx.counts.pins += 1;
                lc.drain_ctrl(cx);
                self.in_flight -= lc.drain_fabric(cx);
                lc.admit_own(self.part, cx);
                lc.fe_flush(&snap[lc.id], cx);
                self.in_flight += lc.flush_outbox(cx);
                drop(snap);
                t.end(burst);
                counts.bursts += 1;
            }
        }
        self.wall_ns += t0.elapsed().as_nanos() as u64;
        !self.done()
    }

    pub fn finish(self) -> Outcome {
        assert!(self.done(), "replay finished early");
        let (mut hits, mut probes, mut checksum) = (0, 0, 0u64);
        for lc in &self.lcs {
            let s = lc.cache.stats();
            hits += s.hits_loc + s.hits_rem + s.hits_waiting;
            probes += s.probes();
            checksum = checksum.wrapping_add(lc.checksum);
        }
        Outcome {
            spans: self.tracer.finish(),
            counts: self.counts,
            hits,
            probes,
            checksum,
            wall_ns: self.wall_ns,
        }
    }
}

/// The IPv4 control plane for one LC, as `Control::publish_batch` runs
/// it: ingest a batch into the RIB, bring the shadow engine up to date
/// with `apply_delta` (rebuilding when the engine declines), swap it in
/// with `publish_deferred`, and take the retired copy back as the next
/// shadow — which lags by exactly the batch just published.
pub struct ControlV4 {
    updates: Vec<Update>,
    per_publication: usize,
    kind: EngineKind,
    rib: RoutingTable,
    next: usize,
    /// A publication is due every this many bursts.
    every: u64,
    writer: Option<EpochWriter<Vec<ForwardingTable>>>,
    // The epoch table publishes and hands back `Box<T>`.
    #[allow(clippy::box_collection)]
    shadow: Option<Box<Vec<ForwardingTable>>>,
    /// Prefixes the published copy has and the shadow lacks.
    lagging: Vec<Prefix>,
}

impl ControlV4 {
    pub fn new(updates: Vec<Update>, per_publication: usize, kind: EngineKind) -> Self {
        ControlV4 {
            updates,
            per_publication,
            kind,
            rib: RoutingTable::new(),
            next: 0,
            every: 1,
            writer: None,
            shadow: None,
            lagging: Vec::new(),
        }
    }
}

impl ControlPlane<V4> for ControlV4 {
    fn arm(
        &mut self,
        rib: &RoutingTable,
        writer: EpochWriter<Vec<ForwardingTable>>,
        shadow: Vec<ForwardingTable>,
        every: u64,
    ) {
        self.rib = rib.clone();
        self.next = 0;
        self.every = every.max(1);
        self.writer = Some(writer);
        self.shadow = Some(Box::new(shadow));
        self.lagging.clear();
    }

    fn fork(&self) -> Box<dyn ControlPlane<V4>> {
        Box::new(ControlV4::new(
            self.updates.clone(),
            self.per_publication,
            self.kind,
        ))
    }

    fn due(&self, burst: u64) -> bool {
        burst > 0 && burst.is_multiple_of(self.every) && self.next < self.updates.len()
    }

    fn publish(&mut self, t: &mut Tracer, counts: &mut Counts) -> Vec<(u32, u8)> {
        let id = counts.publications as u32;
        let end = (self.next + self.per_publication).min(self.updates.len());
        let batch = &self.updates[self.next..end];
        self.next = end;
        let publication = t.begin("publication", None, id);

        let mut changed: Vec<Prefix> = Vec::new();
        let s = t.begin("rib.ingest", Some(publication), id);
        for &u in batch {
            let p = match u {
                Update::Announce(e) => {
                    self.rib.insert(e);
                    e.prefix
                }
                Update::Withdraw(p) => {
                    self.rib.remove(p);
                    p
                }
            };
            if !changed.contains(&p) {
                changed.push(p);
            }
        }
        t.end(s);

        let mut shadow = self.shadow.take().expect("shadow engine present");
        let mut to_apply = std::mem::take(&mut self.lagging);
        for &p in &changed {
            if !to_apply.contains(&p) {
                to_apply.push(p);
            }
        }
        let s = t.begin("lpm.apply_delta", Some(publication), id);
        let patched = shadow[0].apply_delta(&to_apply, &self.rib).is_some();
        if !patched {
            shadow[0] = V4::build(self.kind, &self.rib);
        }
        t.end(s);
        if patched {
            counts.patched += 1;
        } else {
            counts.rebuilt += 1;
        }

        let s = t.begin("dataplane.publish", Some(publication), id);
        let writer = self.writer.as_mut().expect("armed before the replay");
        let retiring = writer.publish_deferred(shadow);
        t.end(s);
        // The emulated worker is between pins, so the grace period is
        // already over.
        self.shadow = Some(retiring.into_inner());
        t.end(publication);
        counts.publications += 1;
        let to_invalidate = changed.iter().map(|p| (p.bits(), p.len())).collect();
        self.lagging = changed;
        to_invalidate
    }
}
