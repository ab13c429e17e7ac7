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
/// paths separate is what lets BENCH_latency.json show the miss path's
/// tail apart from the burst-granular hit paths.
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

    /// JSON object with each path's percentiles, plus all three merged
    /// — the one rendering behind [`DataplaneReport::to_json`],
    /// BENCH_latency.json and the CLI's `--out-latency` file.
    pub fn to_json(&self) -> String {
        let one = |h: &LatencyHisto| {
            format!(
                "{{ \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {} }}",
                h.count(),
                h.p50_ns(),
                h.p99_ns(),
                h.p999_ns(),
                h.max_ns()
            )
        };
        format!(
            "{{ \"loc_hit\": {}, \"rem_hit\": {}, \"miss\": {}, \"all\": {} }}",
            one(&self.loc_hit),
            one(&self.rem_hit),
            one(&self.miss),
            one(&self.all()),
        )
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
    /// Admit-burst timestamp pairs taken for the latency histograms —
    /// zero whenever `capture_latency` is off (the cold-path counter
    /// the skip is asserted through).
    pub timestamp_pairs: u64,
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

    pub fn p95_us(&self) -> f64 {
        self.percentile_us(0.95)
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
    /// (engine declined, or no patch path).
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

/// Post-quiesce cache-coherence sweep (deterministic runs): every
/// entry still resident in any LR-cache compared against the control
/// plane's per-LC RIB oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoherenceSummary {
    /// Resident entries compared (main array + victim caches).
    pub entries_checked: u64,
    /// Entries whose cached next hop disagreed with the oracle
    /// (must be zero).
    pub mismatches: u64,
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

/// Periodic mid-run coherence sweeps (deterministic soak runs): every
/// resident cache entry of every live worker compared against the
/// control plane's per-LC RIB oracle, `sweep_every` rounds apart.
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
    pub coherence: Option<CoherenceSummary>,
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

    /// Aggregate LR-cache hit rate (complete + waiting hits over
    /// probes), the same ratio [`spal-sim`'s report] computes.
    pub fn hit_rate(&self) -> f64 {
        let mut hits = 0u64;
        let mut probes = 0u64;
        for w in &self.workers {
            hits += w.cache.hits_loc + w.cache.hits_rem + w.cache.hits_waiting;
            probes += w.cache.probes();
        }
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        }
    }

    /// Share of complete-entry hits that were remote-sourced (REM).
    pub fn rem_share(&self) -> f64 {
        let loc: u64 = self.workers.iter().map(|w| w.cache.hits_loc).sum();
        let rem: u64 = self.workers.iter().map(|w| w.cache.hits_rem).sum();
        if loc + rem == 0 {
            0.0
        } else {
            rem as f64 / (loc + rem) as f64
        }
    }

    /// LR-cache hit rate over the cold-start half of the run (each
    /// worker's stats up to its trace midpoint).
    pub fn hit_rate_cold(&self) -> f64 {
        let mut hits = 0u64;
        let mut probes = 0u64;
        for w in &self.workers {
            hits += w.cache_cold.hits_loc + w.cache_cold.hits_rem + w.cache_cold.hits_waiting;
            probes += w.cache_cold.probes();
        }
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        }
    }

    /// LR-cache hit rate over the steady-state half of the run (final
    /// stats minus the cold snapshot). Falls back to the lifetime rate
    /// when no cold snapshot was taken (threaded runs record it too;
    /// the guard covers hand-built reports).
    pub fn hit_rate_steady(&self) -> f64 {
        let mut hits = 0u64;
        let mut probes = 0u64;
        for w in &self.workers {
            let h = w.cache.hits_loc + w.cache.hits_rem + w.cache.hits_waiting;
            let hc = w.cache_cold.hits_loc + w.cache_cold.hits_rem + w.cache_cold.hits_waiting;
            hits += h - hc;
            probes += w.cache.probes() - w.cache_cold.probes();
        }
        if probes == 0 {
            self.hit_rate()
        } else {
            hits as f64 / probes as f64
        }
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
        let coh = match &self.coherence {
            Some(c) => format!(
                " | coherence {}/{} ok",
                c.entries_checked - c.mismatches,
                c.entries_checked
            ),
            None => String::new(),
        };
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

    /// Hand-rolled JSON rendering (the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"workers\": {},\n", self.workers.len()));
        s.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        s.push_str(&format!("  \"total_packets\": {},\n", self.total_packets()));
        s.push_str(&format!(
            "  \"elapsed_s\": {:.6},\n",
            self.elapsed.as_secs_f64()
        ));
        s.push_str(&format!(
            "  \"throughput_mpps\": {:.4},\n",
            self.throughput_mpps()
        ));
        s.push_str(&format!("  \"hit_rate\": {:.6},\n", self.hit_rate()));
        s.push_str(&format!(
            "  \"hit_rate_cold\": {:.6},\n",
            self.hit_rate_cold()
        ));
        s.push_str(&format!(
            "  \"hit_rate_steady\": {:.6},\n",
            self.hit_rate_steady()
        ));
        s.push_str(&format!("  \"rem_share\": {:.6},\n", self.rem_share()));
        s.push_str(&format!("  \"checksum\": {},\n", self.checksum()));
        s.push_str(&format!(
            "  \"spot_check_mismatches\": {},\n",
            self.spot_check_mismatches()
        ));
        s.push_str(&format!(
            "  \"latency\": {},\n",
            self.latency_paths().to_json()
        ));
        match &self.churn {
            Some(c) => s.push_str(&format!(
                "  \"churn\": {{ \"updates\": {}, \"publications\": {}, \"invalidations_sent\": {}, \"apply_us\": {{ \"mean\": {:.2}, \"min\": {:.2}, \"max\": {:.2}, \"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2} }}, \"delta_applies\": {}, \"rebuild_applies\": {}, \"delta_bytes_touched\": {}, \"delta_prefixes_applied\": {}, \"reclaim_us\": {{ \"mean\": {:.2}, \"max\": {:.2} }}, \"final_checks\": {}, \"final_mismatches\": {} }},\n",
                c.updates_applied,
                c.publications,
                c.invalidations_sent,
                c.apply_us.mean_us(),
                c.apply_us.min_us,
                c.apply_us.max_us,
                c.apply_us.p50_us(),
                c.apply_us.p95_us(),
                c.apply_us.p99_us(),
                c.delta_applies,
                c.rebuild_applies,
                c.delta_bytes_touched,
                c.delta_prefixes_applied,
                c.reclaim_us.mean_us(),
                c.reclaim_us.max_us,
                c.final_checks,
                c.final_mismatches,
            )),
            None => s.push_str("  \"churn\": null,\n"),
        }
        s.push_str(&self.faults_json());
        s.push_str(&self.coherence_json());
        s.push_str(&self.failover_json());
        s.push_str(&self.sweeps_json());
        s.push_str("  \"per_worker\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"lc\": {}, \"packets\": {}, \"hits_loc\": {}, \"hits_rem\": {}, \"hits_waiting\": {}, \"misses\": {}, \"invalidations\": {}, \"flushes\": {}, \"fe_lookups\": {}, \"remote_requests\": {}, \"remote_served\": {}, \"stale_replies\": {}, \"duplicate_replies\": {}, \"lost_packets\": {}, \"rehomed_requests\": {}, \"dead_letters\": {}, \"ingress_dropped\": {}, \"max_ring_depth\": {}, \"max_in_flight\": {}, \"admit_throttled\": {} }}{}\n",
                w.lc,
                w.packets,
                w.cache.hits_loc,
                w.cache.hits_rem,
                w.cache.hits_waiting,
                w.cache.misses,
                w.cache.invalidations,
                w.cache.flushes,
                w.fe_lookups,
                w.remote_requests,
                w.remote_served,
                w.stale_replies,
                w.duplicate_replies,
                w.lost_packets,
                w.rehomed_requests,
                w.dead_letters,
                w.ingress_dropped,
                w.max_ring_depth,
                w.max_in_flight,
                w.admit_throttled,
                if i + 1 < self.workers.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    fn failover_json(&self) -> String {
        match &self.failover {
            Some(f) => format!(
                "  \"failover\": {{ \"dead_lc\": {}, \"moved_prefixes\": {}, \"remap_us\": {:.2}, \"targeted\": {}, \"invalidations_per_lc\": {} }},\n",
                f.dead_lc, f.moved_prefixes, f.remap_us, f.targeted, f.invalidations_per_lc,
            ),
            None => "  \"failover\": null,\n".to_string(),
        }
    }

    fn sweeps_json(&self) -> String {
        match &self.sweeps {
            Some(s) => format!(
                "  \"sweeps\": {{ \"sweeps\": {}, \"entries_checked\": {}, \"mismatches\": {} }},\n",
                s.sweeps, s.entries_checked, s.mismatches,
            ),
            None => "  \"sweeps\": null,\n".to_string(),
        }
    }

    fn faults_json(&self) -> String {
        match &self.faults {
            Some(f) => format!(
                "  \"faults\": {{ \"seed\": {}, \"delayed\": {}, \"dropped_retransmitted\": {}, \"duplicated\": {}, \"stalls\": {}, \"forced_publications\": {}, \"duplicate_replies\": {} }},\n",
                f.seed,
                f.delayed,
                f.dropped_retransmitted,
                f.duplicated,
                f.stalls,
                f.forced_publications,
                f.duplicate_replies,
            ),
            None => "  \"faults\": null,\n".to_string(),
        }
    }

    fn coherence_json(&self) -> String {
        match &self.coherence {
            Some(c) => format!(
                "  \"coherence\": {{ \"entries_checked\": {}, \"mismatches\": {} }},\n",
                c.entries_checked, c.mismatches,
            ),
            None => "  \"coherence\": null,\n".to_string(),
        }
    }

    /// Deterministic subset of [`Self::to_json`]: everything that is a
    /// pure function of the configuration and seeds, with all
    /// wall-clock-derived numbers (elapsed, throughput, latency
    /// percentiles, apply latencies) omitted. Deterministic runs render
    /// byte-for-byte identically across machines, which is what the
    /// golden-report regression test pins.
    pub fn canonical_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"workers\": {},\n", self.workers.len()));
        s.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        s.push_str(&format!("  \"total_packets\": {},\n", self.total_packets()));
        s.push_str(&format!("  \"hit_rate\": {:.6},\n", self.hit_rate()));
        s.push_str(&format!("  \"rem_share\": {:.6},\n", self.rem_share()));
        s.push_str(&format!("  \"checksum\": {},\n", self.checksum()));
        s.push_str(&format!(
            "  \"spot_check_mismatches\": {},\n",
            self.spot_check_mismatches()
        ));
        s.push_str(&format!(
            "  \"oracle_divergence\": {},\n",
            self.oracle_divergence()
        ));
        match &self.churn {
            Some(c) => s.push_str(&format!(
                "  \"churn\": {{ \"updates\": {}, \"publications\": {}, \"invalidations_sent\": {}, \"final_checks\": {}, \"final_mismatches\": {} }},\n",
                c.updates_applied,
                c.publications,
                c.invalidations_sent,
                c.final_checks,
                c.final_mismatches,
            )),
            None => s.push_str("  \"churn\": null,\n"),
        }
        s.push_str(&self.faults_json());
        s.push_str(&self.coherence_json());
        s.push_str("  \"per_worker\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"lc\": {}, \"packets\": {}, \"hits_loc\": {}, \"hits_rem\": {}, \"hits_waiting\": {}, \"misses\": {}, \"invalidations\": {}, \"flushes\": {}, \"fe_lookups\": {}, \"remote_requests\": {}, \"remote_served\": {}, \"stale_replies\": {}, \"duplicate_replies\": {}, \"next_hop_sum\": {} }}{}\n",
                w.lc,
                w.packets,
                w.cache.hits_loc,
                w.cache.hits_rem,
                w.cache.hits_waiting,
                w.cache.misses,
                w.cache.invalidations,
                w.cache.flushes,
                w.fe_lookups,
                w.remote_requests,
                w.remote_served,
                w.stale_replies,
                w.duplicate_replies,
                w.next_hop_sum,
                if i + 1 < self.workers.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
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
        assert_eq!(l.p95_us(), 95.0);
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
