//! Results of one dataplane run, shaped to be comparable with the
//! discrete-event simulator's (`spal_sim`-style) per-LC reports.

use crate::fault::FaultStats;
use spal_cache::CacheStats;
use std::time::Duration;

/// HDR-style latency histogram: log-linear buckets with 4 sub-bucket
/// bits (16 sub-buckets per power of two, ~6 % relative resolution),
/// O(1) record, O(buckets) percentile. Unlike [`LatencySummary`] it
/// never stores raw samples, so the worker's hot path can record
/// per-packet at tens of Mpps without unbounded allocation.
#[derive(Debug, Clone, Default)]
pub struct LatencyHisto {
    /// Bucket counts, grown lazily to the highest bucket touched.
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
}

const HISTO_SUB_BITS: u32 = 4;
const HISTO_SUB: u64 = 1 << HISTO_SUB_BITS; // 16 sub-buckets per octave

impl LatencyHisto {
    #[inline]
    fn bucket(ns: u64) -> usize {
        if ns < HISTO_SUB {
            return ns as usize; // exact below 16 ns
        }
        let msb = 63 - ns.leading_zeros() as u64;
        let sub = (ns >> (msb - HISTO_SUB_BITS as u64)) & (HISTO_SUB - 1);
        ((msb - HISTO_SUB_BITS as u64 + 1) * HISTO_SUB + sub) as usize
    }

    /// Lower bound (ns) of bucket `idx` — the value a percentile
    /// falling in that bucket reports.
    fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < HISTO_SUB {
            return idx;
        }
        let msb = idx / HISTO_SUB + HISTO_SUB_BITS as u64 - 1;
        let sub = idx % HISTO_SUB;
        (HISTO_SUB + sub) << (msb - HISTO_SUB_BITS as u64)
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Record `n` samples of the same value — how a worker books a
    /// whole burst of same-path packets with one call.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket(ns);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHisto) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Nearest-rank percentile (`f` in `[0, 1]`), reported as the
    /// containing bucket's lower bound; 0 when empty.
    pub fn percentile_ns(&self, f: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count - 1) as f64 * f).round() as u64;
        if target + 1 >= self.count {
            return self.max_ns; // the top rank is tracked exactly
        }
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > target {
                return Self::bucket_floor(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }

    pub fn p999_ns(&self) -> u64 {
        self.percentile_ns(0.999)
    }
}

/// Per-path packet-latency histograms: the three ways a packet can
/// complete in §3's terms — LR-cache hit on a locally produced result
/// (LOC), hit on a remote-sourced result (REM), or a miss that had to
/// run a lookup (local FE or a round trip to the home LC). Keeping the
/// paths separate is what lets a report's `latency` show the miss
/// path's tail apart from the burst-granular hit paths.
#[derive(Debug, Clone, Default)]
pub struct PathLatency {
    /// Completed by an LR-cache hit with M = LOC.
    pub loc_hit: LatencyHisto,
    /// Completed by an LR-cache hit with M = REM.
    pub rem_hit: LatencyHisto,
    /// Missed the cache: local-partition lookup or fabric round trip
    /// (includes waiting-list followers).
    pub miss: LatencyHisto,
}

impl PathLatency {
    /// Fold another worker's paths into this one.
    pub fn merge(&mut self, other: &PathLatency) {
        self.loc_hit.merge(&other.loc_hit);
        self.rem_hit.merge(&other.rem_hit);
        self.miss.merge(&other.miss);
    }

    /// All three paths merged into one distribution.
    pub fn all(&self) -> LatencyHisto {
        let mut h = self.loc_hit.clone();
        h.merge(&self.rem_hit);
        h.merge(&self.miss);
        h
    }
}

/// Per-worker (per-LC) results.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Line-card index this worker modelled.
    pub lc: usize,
    /// Packets from this worker's own trace (all completed).
    pub packets: u64,
    /// LR-cache statistics.
    pub cache: CacheStats,
    /// Batched FE invocations on the local partition engine.
    pub fe_batches: u64,
    /// Addresses resolved by the local partition engine (own packets
    /// plus remote requests served).
    pub fe_lookups: u64,
    /// Requests sent to other workers (this LC was not the home).
    pub remote_requests: u64,
    /// Requests received from other workers.
    pub remote_served: u64,
    /// Replies received for this worker's remote requests.
    pub replies_received: u64,
    /// Replies whose table version predated a processed invalidation —
    /// completed but deliberately not cached.
    pub stale_replies: u64,
    /// `forward_batch` next hops cross-checked against the scalar
    /// `lookup` on the same pinned snapshot.
    pub spot_checks: u64,
    /// Spot checks that disagreed (must be zero).
    pub spot_check_mismatches: u64,
    /// Replies for addresses with no outstanding request — duplicates
    /// (fault injection, or an at-least-once fabric) dropped
    /// idempotently.
    pub duplicate_replies: u64,
    /// Fault-injection counters (all zero on a faultless fabric).
    pub faults: FaultStats,
    /// Wrapping checksum over completed packets:
    /// `Σ (next_hop + 1 | 0 on routing miss)`.
    pub next_hop_sum: u64,
    /// Snapshot of `cache` taken when this worker crossed the midpoint
    /// of its trace — the cold-start half. Subtracting it from the final
    /// stats isolates the steady-state hit rate (a cold cache drags the
    /// lifetime average down and hides the working set actually fitting).
    pub cache_cold: CacheStats,
    /// Per-path packet-latency histograms (admission to completion).
    pub latency: PathLatency,
    /// Coalesced `BatchRequest` messages sent.
    pub batch_requests_sent: u64,
    /// Coalesced `BatchReply` messages sent.
    pub batch_replies_sent: u64,
    /// Packets this worker lost when it was killed by a
    /// [`FailoverPlan`](crate::runtime::FailoverPlan): the unadmitted
    /// remainder of its trace plus its own packets parked mid-flight.
    pub lost_packets: u64,
    /// In-flight remote requests re-routed after a re-partitioning
    /// moved their home LC (re-issued to the new home, or pulled back
    /// into the local FE queue).
    pub rehomed_requests: u64,
    /// Messages discarded because their destination LC was dead —
    /// purged from the outbox at remap time (whole messages, however
    /// many lanes they carry) or suppressed at emit (one per reply).
    pub dead_letters: u64,
    /// Packets dropped at ingress by the overload admission gate
    /// (offered load exceeded the bounded ingress queue).
    pub ingress_dropped: u64,
    /// High-water mark of any outbound fabric ring's occupancy, in
    /// messages, observed after each outbox flush — the bounded-queue
    /// evidence the overload scenario gates on.
    pub max_ring_depth: u64,
    /// High-water mark of this worker's unanswered remote requests,
    /// sampled after every admit pass — what the in-flight window
    /// ([`IN_FLIGHT_WINDOW_BATCHES`](crate::runtime::IN_FLIGHT_WINDOW_BATCHES))
    /// bounds. Timing-dependent on threaded runs, so it stays out of
    /// the canonical report.
    pub max_in_flight: u64,
    /// Iterations that had packets to admit and admitted none because
    /// the in-flight window was full (timing-dependent, as above).
    pub admit_throttled: u64,
}

/// Latency series in microseconds: running min/mean/max plus the raw
/// samples, so percentiles survive to the report (apply-latency tails
/// are the quantity the incremental-update path is judged on; a mean
/// hides one slow rebuild among many cheap patches).
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub sum_us: f64,
    pub min_us: f64,
    pub max_us: f64,
    samples: Vec<f64>,
}

impl LatencySummary {
    pub fn record(&mut self, us: f64) {
        if self.count == 0 || us < self.min_us {
            self.min_us = us;
        }
        if us > self.max_us {
            self.max_us = us;
        }
        self.count += 1;
        self.sum_us += us;
        self.samples.push(us);
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Nearest-rank percentile (`f` in `[0, 1]`), 0 when empty.
    pub fn percentile_us(&self, f: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        sorted[((sorted.len() - 1) as f64 * f).round() as usize]
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_us(0.50)
    }

    pub fn p99_us(&self) -> f64 {
        self.percentile_us(0.99)
    }
}

/// Control-plane results when a churn stream ran.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Routing updates consumed from the stream.
    pub updates_applied: u64,
    /// Update-batch publications (epoch bumps; a failover remap's
    /// publication is not counted here).
    pub publications: u64,
    /// Invalidation messages broadcast (prefix count × workers in
    /// targeted mode, one flush per worker per publication otherwise).
    pub invalidations_sent: u64,
    /// Per-publication latency: RIB ingest (or a remap's fragment
    /// move), shadow patch/rebuild and pointer swap, i.e.
    /// update-visible-to-dataplane (readers see the new snapshot from
    /// the swap onward). One sample per update batch, plus one for a
    /// failover remap. The grace-period wait for the retiring snapshot
    /// is off this path — see `reclaim_us`.
    pub apply_us: LatencySummary,
    /// Per-LC shadow syncs that went through the engine's incremental
    /// `apply_delta` patch path.
    pub delta_applies: u64,
    /// Per-LC shadow syncs that fell back to a full fragment rebuild
    /// (engine declined, or no patch path). Both snapshot copies share
    /// the rebuilt engine, so each is one build.
    pub rebuild_applies: u64,
    /// Engine bytes rewritten by successful patches, summed — the
    /// O(delta)-not-O(table) evidence.
    pub delta_bytes_touched: u64,
    /// Changed prefixes consumed by successful patches, summed.
    pub delta_prefixes_applied: u64,
    /// Grace-period wait when reclaiming the swapped-out snapshot as
    /// the next shadow — the cost moved *off* the apply path (it runs
    /// after the swap is recorded, before the invalidations go out).
    /// Large values here mean readers are slow to repin (e.g. a
    /// time-sliced single core), not that updates are slow to land.
    pub reclaim_us: LatencySummary,
    /// Post-run consistency samples: published table vs the control
    /// plane's per-LC RIB oracle.
    pub final_checks: u64,
    /// Samples that disagreed (must be zero).
    pub final_mismatches: u64,
}

/// Aggregated fault-injection results (present when the run had a
/// [`crate::fault::FaultPlan`]).
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Plan seed; re-running with the same seed replays every fault.
    pub seed: u64,
    /// Messages delivered late (sum over workers).
    pub delayed: u64,
    /// Messages "lost" and recovered by delayed retransmit.
    pub dropped_retransmitted: u64,
    /// Extra message copies delivered.
    pub duplicated: u64,
    /// Worker iterations stalled mid-batch.
    pub stalls: u64,
    /// No-op snapshot publications forced at adversarial points
    /// (deterministic schedule only).
    pub forced_publications: u64,
    /// Duplicate replies recognized and dropped by receivers.
    pub duplicate_replies: u64,
}

/// Online re-partitioning after an LC failure: what the control plane
/// did when the failure flag was raised.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverSummary {
    /// The LC that died.
    pub dead_lc: u16,
    /// Prefixes in the dead LC's RIB fragment, all re-homed across the
    /// survivors.
    pub moved_prefixes: u64,
    /// Wall-clock cost of the remap: fragment move, shadow patch, epoch
    /// publication and grace wait, and the cache invalidations.
    pub remap_us: f64,
    /// Whether invalidations were prefix-targeted (`true`) or the remap
    /// fell back to a full flush because the moved set exceeded the
    /// control-ring budget.
    pub targeted: bool,
    /// Invalidation messages sent per surviving LC (1 for a flush).
    pub invalidations_per_lc: u64,
}

/// Cache-coherence sweeps (deterministic runs): every resident entry
/// (main array + victim caches) of every live worker's cache compared
/// against the control plane's per-LC RIB oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSummary {
    /// Sweeps performed.
    pub sweeps: u64,
    /// Resident entries compared, summed over sweeps.
    pub entries_checked: u64,
    /// Entries that disagreed with the oracle (must be zero).
    pub mismatches: u64,
}

/// Results of one dataplane run.
#[derive(Debug, Clone, Default)]
pub struct DataplaneReport {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerReport>,
    /// Control-plane results (`None` when no churn was configured).
    pub churn: Option<ChurnReport>,
    /// Wall-clock duration of the run (worker spawn to last join).
    pub elapsed: Duration,
    /// Whether the run used the deterministic single-threaded schedule.
    pub deterministic: bool,
    /// Fault-injection results (`None` when no plan was configured).
    pub faults: Option<FaultReport>,
    /// Post-quiesce coherence sweep (`None` on threaded runs).
    pub coherence: Option<SweepSummary>,
    /// Online re-partitioning results (`None` unless a
    /// [`FailoverPlan`](crate::runtime::FailoverPlan) fired and the
    /// control plane remapped).
    pub failover: Option<FailoverSummary>,
    /// Mid-run coherence sweeps (`None` unless `sweep_every` was set on
    /// a deterministic run).
    pub sweeps: Option<SweepSummary>,
}

impl DataplaneReport {
    /// Packets completed across all workers.
    pub fn total_packets(&self) -> u64 {
        self.workers.iter().map(|w| w.packets).sum()
    }

    /// Aggregate throughput in million packets per second.
    pub fn throughput_mpps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.total_packets() as f64 / s / 1e6
        }
    }

    /// Complete + waiting hits and probes of every worker's `stats`,
    /// each summed as `u64`.
    fn pooled(&self, stats: impl Fn(&WorkerReport) -> &CacheStats) -> (u64, u64) {
        let (mut hits, mut probes) = (0, 0);
        for s in self.workers.iter().map(stats) {
            hits += s.hits_loc + s.hits_rem + s.hits_waiting;
            probes += s.probes();
        }
        (hits, probes)
    }

    /// Aggregate LR-cache hit rate (complete + waiting hits over
    /// probes), the same ratio [`spal-sim`'s report] computes.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.pooled(|w| &w.cache)).unwrap_or(0.0)
    }

    /// Share of complete-entry hits that were remote-sourced (REM).
    pub fn rem_share(&self) -> f64 {
        let loc: u64 = self.workers.iter().map(|w| w.cache.hits_loc).sum();
        let rem: u64 = self.workers.iter().map(|w| w.cache.hits_rem).sum();
        ratio((rem, loc + rem)).unwrap_or(0.0)
    }

    /// LR-cache hit rate over the cold-start half of the run (each
    /// worker's stats up to its trace midpoint).
    pub fn hit_rate_cold(&self) -> f64 {
        ratio(self.pooled(|w| &w.cache_cold)).unwrap_or(0.0)
    }

    /// LR-cache hit rate over the steady-state half of the run (final
    /// stats minus the cold snapshot). Falls back to the lifetime rate
    /// when no cold snapshot was taken (threaded runs record it too;
    /// the guard covers hand-built reports).
    pub fn hit_rate_steady(&self) -> f64 {
        let (hits, probes) = self.pooled(|w| &w.cache);
        let (cold_hits, cold_probes) = self.pooled(|w| &w.cache_cold);
        ratio((hits - cold_hits, probes - cold_probes)).unwrap_or_else(|| self.hit_rate())
    }

    /// Per-path latency histograms merged across workers.
    pub fn latency_paths(&self) -> PathLatency {
        let mut merged = PathLatency::default();
        for w in &self.workers {
            merged.merge(&w.latency);
        }
        merged
    }

    /// Wrapping checksum over every completed packet, order-independent
    /// — equal runs resolve equal next hops.
    pub fn checksum(&self) -> u64 {
        self.workers
            .iter()
            .fold(0u64, |acc, w| acc.wrapping_add(w.next_hop_sum))
    }

    /// Total spot-check disagreements (must be zero).
    pub fn spot_check_mismatches(&self) -> u64 {
        self.workers.iter().map(|w| w.spot_check_mismatches).sum()
    }

    /// Every way this run can disagree with the scalar full-table
    /// oracle, summed: per-batch spot checks, the control plane's
    /// post-churn table samples, the post-quiesce cache-coherence
    /// sweep, and the mid-run soak sweeps. Zero means every delivered
    /// lookup and every surviving cache entry matched the oracle.
    pub fn oracle_divergence(&self) -> u64 {
        let churn = self.churn.as_ref().map_or(0, |c| c.final_mismatches);
        let coherence = self.coherence.as_ref().map_or(0, |c| c.mismatches);
        let sweeps = self.sweeps.as_ref().map_or(0, |s| s.mismatches);
        self.spot_check_mismatches() + churn + coherence + sweeps
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let churn = match &self.churn {
            Some(c) => format!(
                " | {} updates in {} pubs, apply mean {:.1} µs p99 {:.1} µs ({} patched / {} rebuilt, {} B touched)",
                c.updates_applied,
                c.publications,
                c.apply_us.mean_us(),
                c.apply_us.p99_us(),
                c.delta_applies,
                c.rebuild_applies,
                c.delta_bytes_touched,
            ),
            None => String::new(),
        };
        let all = self.latency_paths().all();
        let p99 = match all.count() {
            0 => String::new(),
            _ => format!(" | p99 {} ns", all.p99_ns()),
        };
        format!(
            "{} pkts on {} workers in {:.3} s | {:.2} Mpps | hit rate {:.3} | REM share {:.3}{p99}{churn}",
            self.total_packets(),
            self.workers.len(),
            self.elapsed.as_secs_f64(),
            self.throughput_mpps(),
            self.hit_rate(),
            self.rem_share(),
        )
    }

    /// One-line summary of the fault adversary and what it achieved,
    /// for `spal dataplane --faults`. Empty when no plan ran.
    pub fn fault_summary(&self) -> String {
        let Some(f) = &self.faults else {
            return String::new();
        };
        let coh = self.coherence.map_or(String::new(), |c| {
            let ok = c.entries_checked - c.mismatches;
            format!(" | coherence {ok}/{} ok", c.entries_checked)
        });
        format!(
            "faults(seed {}): {} delayed, {} dropped+retransmitted, {} duplicated ({} dup replies dropped), {} stalls, {} forced pubs | oracle divergence {}{}",
            f.seed,
            f.delayed,
            f.dropped_retransmitted,
            f.duplicated,
            f.duplicate_replies,
            f.stalls,
            f.forced_publications,
            self.oracle_divergence(),
            coh,
        )
    }

    /// Hand-rolled JSON rendering (the workspace has no serde) of every
    /// field of the run — the object each BENCH and scenario row nests
    /// under `"report"`.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// [`Self::to_json`] without its wall-clock and unpinned fields: a
    /// pure function of the configuration and seeds, so deterministic
    /// runs render byte-for-byte identically across machines, which is
    /// what the golden-report regression test pins.
    pub fn canonical_json(&self) -> String {
        self.render(false)
    }

    /// The one field list behind both renderings, in canonical order;
    /// `full` keeps the fields [`Self::canonical_json`] leaves out.
    fn render(&self, full: bool) -> String {
        let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
        let (f2, f6) = (|x: f64| format!("{x:.2}"), |x: f64| format!("{x:.6}"));
        let sweep = |s: SweepSummary| {
            Fields(full, vec![])
                .full("sweeps", s.sweeps)
                .put("entries_checked", s.entries_checked)
                .put("mismatches", s.mismatches)
                .inline()
        };
        let churn = self.churn.as_ref().map(|c| {
            let (apply, reclaim) = (&c.apply_us, &c.reclaim_us);
            let apply_us = Fields(true, vec![])
                .put("mean", f2(apply.mean_us()))
                .put("min", f2(apply.min_us))
                .put("max", f2(apply.max_us))
                .put("p50", f2(apply.p50_us()))
                .put("p95", f2(apply.percentile_us(0.95)))
                .put("p99", f2(apply.p99_us()));
            let reclaim_us = Fields(true, vec![])
                .put("mean", f2(reclaim.mean_us()))
                .put("max", f2(reclaim.max_us));
            Fields(full, vec![])
                .put("updates", c.updates_applied)
                .put("publications", c.publications)
                .put("invalidations_sent", c.invalidations_sent)
                .full("apply_us", apply_us.inline())
                .full("delta_applies", c.delta_applies)
                .full("rebuild_applies", c.rebuild_applies)
                .full("delta_bytes_touched", c.delta_bytes_touched)
                .full("delta_prefixes_applied", c.delta_prefixes_applied)
                .full("reclaim_us", reclaim_us.inline())
                .put("final_checks", c.final_checks)
                .put("final_mismatches", c.final_mismatches)
                .inline()
        });
        let faults = self.faults.as_ref().map(|f| {
            Fields(full, vec![])
                .put("seed", f.seed)
                .put("delayed", f.delayed)
                .put("dropped_retransmitted", f.dropped_retransmitted)
                .put("duplicated", f.duplicated)
                .put("stalls", f.stalls)
                .put("forced_publications", f.forced_publications)
                .put("duplicate_replies", f.duplicate_replies)
                .inline()
        });
        let failover = self.failover.as_ref().map(|f| {
            Fields(true, vec![])
                .put("dead_lc", f.dead_lc)
                .put("moved_prefixes", f.moved_prefixes)
                .put("remap_us", f2(f.remap_us))
                .put("targeted", f.targeted)
                .put("invalidations_per_lc", f.invalidations_per_lc)
                .inline()
        });
        let histo = |h: &LatencyHisto| {
            Fields(true, vec![])
                .put("count", h.count())
                .put("p50_ns", h.p50_ns())
                .put("p99_ns", h.p99_ns())
                .put("p999_ns", h.p999_ns())
                .put("max_ns", h.max_ns())
                .inline()
        };
        let paths = self.latency_paths();
        let latency = Fields(true, vec![])
            .put("loc_hit", histo(&paths.loc_hit))
            .put("rem_hit", histo(&paths.rem_hit))
            .put("miss", histo(&paths.miss))
            .put("all", histo(&paths.all()));
        let row = |w: &WorkerReport| {
            Fields(full, vec![])
                .put("lc", w.lc)
                .put("packets", w.packets)
                .put("hits_loc", w.cache.hits_loc)
                .put("hits_rem", w.cache.hits_rem)
                .put("hits_waiting", w.cache.hits_waiting)
                .put("misses", w.cache.misses)
                .put("invalidations", w.cache.invalidations)
                .put("flushes", w.cache.flushes)
                .put("fe_lookups", w.fe_lookups)
                .put("remote_requests", w.remote_requests)
                .put("remote_served", w.remote_served)
                .put("stale_replies", w.stale_replies)
                .put("duplicate_replies", w.duplicate_replies)
                .full("lost_packets", w.lost_packets)
                .full("rehomed_requests", w.rehomed_requests)
                .full("dead_letters", w.dead_letters)
                .full("ingress_dropped", w.ingress_dropped)
                .full("max_ring_depth", w.max_ring_depth)
                .full("max_in_flight", w.max_in_flight)
                .full("admit_throttled", w.admit_throttled)
                .put("next_hop_sum", w.next_hop_sum)
                .inline()
        };
        let rows = self
            .workers
            .iter()
            .map(row)
            .collect::<Vec<_>>()
            .join(",\n    ");
        let top = Fields(full, vec![])
            .put("workers", self.workers.len())
            .put("deterministic", self.deterministic)
            .put("total_packets", self.total_packets())
            .full("elapsed_s", f6(self.elapsed.as_secs_f64()))
            .full("throughput_mpps", format!("{:.4}", self.throughput_mpps()))
            .put("hit_rate", f6(self.hit_rate()))
            .full("hit_rate_cold", f6(self.hit_rate_cold()))
            .full("hit_rate_steady", f6(self.hit_rate_steady()))
            .put("rem_share", f6(self.rem_share()))
            .put("checksum", self.checksum())
            .put("spot_check_mismatches", self.spot_check_mismatches())
            .put("oracle_divergence", self.oracle_divergence())
            .full("latency", latency.inline())
            .put("churn", or_null(churn))
            .put("faults", or_null(faults))
            .put("coherence", or_null(self.coherence.map(sweep)))
            .full("failover", or_null(failover))
            .full("sweeps", or_null(self.sweeps.map(sweep)))
            .put("per_worker", format!("[\n    {rows}\n  ]"))
            .1
            .join(",\n  ");
        format!("{{\n  {top}\n}}\n")
    }
}

/// Whether the rendering is full, and one JSON object's `"key": value`
/// pairs in order; a pair added with [`Fields::full`] is kept only in a
/// full rendering.
struct Fields(bool, Vec<String>);

impl Fields {
    /// A pair every rendering carries.
    fn put(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.1.push(format!("\"{key}\": {value}"));
        self
    }

    /// A pair only the full rendering carries.
    fn full(self, k: &str, v: impl std::fmt::Display) -> Self {
        if self.0 {
            self.put(k, v)
        } else {
            self
        }
    }

    /// `{ "key": value, ... }` on one line.
    fn inline(self) -> String {
        format!("{{ {} }}", self.1.join(", "))
    }
}

/// `part` over `whole` as one `f64` division of the `u64` counts;
/// `None` when `whole` is zero.
fn ratio((part, whole): (u64, u64)) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_tracks_extremes() {
        let mut l = LatencySummary::default();
        l.record(5.0);
        l.record(1.0);
        l.record(9.0);
        assert_eq!(l.count, 3);
        assert_eq!(l.min_us, 1.0);
        assert_eq!(l.max_us, 9.0);
        assert!((l.mean_us() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_percentiles() {
        let mut l = LatencySummary::default();
        assert_eq!(l.p99_us(), 0.0);
        for i in 1..=100 {
            l.record(i as f64);
        }
        assert_eq!(l.p50_us(), 51.0);
        assert_eq!(l.percentile_us(0.95), 95.0);
        assert_eq!(l.p99_us(), 99.0);
        assert_eq!(l.percentile_us(1.0), 100.0);
    }

    #[test]
    fn histo_buckets_are_monotone_and_exact_below_16() {
        for ns in 0..16u64 {
            assert_eq!(LatencyHisto::bucket(ns), ns as usize);
            assert_eq!(LatencyHisto::bucket_floor(ns as usize), ns);
        }
        let mut prev = 0usize;
        for shift in 4..63u32 {
            for sub in [0u64, 1, 7, 15] {
                let ns = (1u64 << shift) + (sub << (shift - 4));
                let idx = LatencyHisto::bucket(ns);
                assert!(idx >= prev, "bucket index regressed at {ns}");
                // A bucket's floor maps back to the same bucket, and is
                // never above the sample it came from.
                assert_eq!(LatencyHisto::bucket(LatencyHisto::bucket_floor(idx)), idx);
                assert!(LatencyHisto::bucket_floor(idx) <= ns);
                prev = idx;
            }
        }
    }

    #[test]
    fn histo_percentiles_within_bucket_resolution() {
        let mut h = LatencyHisto::default();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max_ns(), 10_000);
        // 16 sub-buckets per octave → the reported floor is within
        // 1/16 (~6.25 %) below the true nearest-rank value.
        for (f, exact) in [(0.50, 5000u64), (0.99, 9901), (0.999, 9991)] {
            let got = h.percentile_ns(f);
            assert!(
                got <= exact && got as f64 >= exact as f64 * (1.0 - 1.0 / 16.0),
                "p{f}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.percentile_ns(1.0), 10_000);
    }

    #[test]
    fn histo_record_n_and_merge() {
        let mut a = LatencyHisto::default();
        let mut b = LatencyHisto::default();
        a.record_n(100, 50);
        b.record_n(1_000_000, 5);
        a.merge(&b);
        assert_eq!(a.count(), 55);
        assert_eq!(a.max_ns(), 1_000_000);
        assert!(a.p50_ns() <= 100);
        assert!(a.p999_ns() > 900_000);
        assert_eq!(LatencyHisto::default().percentile_ns(0.99), 0);
    }

    #[test]
    fn path_latency_all_merges_paths() {
        let mut p = PathLatency::default();
        p.loc_hit.record_n(50, 10);
        p.rem_hit.record_n(80, 10);
        p.miss.record_n(5_000, 10);
        let all = p.all();
        assert_eq!(all.count(), 30);
        assert_eq!(all.max_ns(), 5_000);
        let mut merged = PathLatency::default();
        merged.merge(&p);
        merged.merge(&p);
        assert_eq!(merged.all().count(), 60);
    }

    #[test]
    fn cold_and_steady_hit_rates_split() {
        let mut r = DataplaneReport::default();
        let mut w = WorkerReport {
            lc: 0,
            packets: 200,
            ..Default::default()
        };
        // Cold half: 10 hits / 100 probes. Lifetime: 100 hits / 200.
        w.cache_cold.hits_loc = 10;
        w.cache_cold.misses = 90;
        w.cache.hits_loc = 100;
        w.cache.misses = 100;
        r.workers.push(w);
        assert!((r.hit_rate_cold() - 0.10).abs() < 1e-12);
        assert!((r.hit_rate_steady() - 0.90).abs() < 1e-12);
        assert!((r.hit_rate() - 0.50).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"hit_rate_cold\": 0.100000"));
        assert!(json.contains("\"hit_rate_steady\": 0.900000"));
        // The canonical (golden-pinned) rendering must not carry any of
        // the new wall-clock or cold-split fields.
        let canon = r.canonical_json();
        assert!(!canon.contains("hit_rate_cold"));
        assert!(!canon.contains("latency"));
    }

    #[test]
    fn canonical_keys_appear_in_to_json_in_order() {
        let mut r = DataplaneReport {
            churn: Some(ChurnReport::default()),
            faults: Some(FaultReport::default()),
            coherence: Some(SweepSummary::default()),
            failover: Some(FailoverSummary::default()),
            sweeps: Some(SweepSummary::default()),
            ..Default::default()
        };
        r.workers = vec![WorkerReport::default(), WorkerReport::default()];
        // Every value is a number, bool or null, so the quoted strings
        // are exactly the keys.
        let keys = |json: String| -> Vec<String> {
            json.split('"')
                .skip(1)
                .step_by(2)
                .map(String::from)
                .collect()
        };
        let full = keys(r.to_json());
        let mut rest = full.iter();
        for key in keys(r.canonical_json()) {
            assert!(
                rest.any(|k| *k == key),
                "canonical key {key:?} missing from to_json or out of order"
            );
        }
    }

    #[test]
    fn report_aggregates_and_renders() {
        let mut r = DataplaneReport::default();
        for lc in 0..2 {
            let mut w = WorkerReport {
                lc,
                packets: 10,
                next_hop_sum: 7,
                ..Default::default()
            };
            w.cache.hits_loc = 6;
            w.cache.hits_rem = 2;
            w.cache.misses = 2;
            r.workers.push(w);
        }
        r.elapsed = Duration::from_millis(10);
        assert_eq!(r.total_packets(), 20);
        assert_eq!(r.checksum(), 14);
        assert!((r.hit_rate() - 0.8).abs() < 1e-12);
        assert!((r.rem_share() - 0.25).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"total_packets\": 20"));
        assert!(json.contains("\"churn\": null"));
        assert!(r.summary().contains("hit rate 0.800"));
    }
}
