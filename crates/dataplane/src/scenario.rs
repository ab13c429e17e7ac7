//! Scripted operational episodes against the live dataplane.
//!
//! Steady-state benchmarks plus BGP churn measure a healthy router;
//! this module runs the unhealthy days: a line card dying mid-traffic
//! with its ROT partition re-homed online, a flash crowd collapsing
//! the address distribution onto a few /24s, offered load held above
//! capacity with a bounded ingress queue, and a long-horizon soak
//! mixing churn, faults, and a failure with periodic invariant sweeps.
//!
//! Each scenario builds its table and traces, configures
//! [`crate::runtime::run`], and grades the resulting
//! [`DataplaneReport`] against hard gates (zero oracle divergence
//! always; per-scenario recovery/accounting gates on top). The result
//! is a [`ScenarioReport`], whose JSON row carries the scenario's own
//! keys and nests the underlying run's [`DataplaneReport::to_json`].
//!
//! The LC-failure scenario additionally samples a [`LiveProbe`] from a
//! side thread while the run executes, producing the recovery-time
//! metric: time from the kill until the aggregate admit-path hit rate
//! is back to ≥95% of its pre-failure steady state.

use crate::fault::FaultPlan;
use crate::report::DataplaneReport;
use crate::runtime::{run, ChurnConfig, DataplaneConfig, FailoverPlan, OverloadConfig};
use spal_cache::LrCacheConfig;
use spal_rib::{synth, RoutingTable};
use spal_traffic::{
    cache_thrash, flash_crowd, preset, FlashCrowdConfig, PresetName, ThrashConfig, Trace,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live run progress, updated by the workers from their admit path and
/// sampled concurrently by the scenario runner. All counters are
/// cumulative; relaxed ordering suffices (the sampler tolerates a
/// window's worth of skew).
#[derive(Debug)]
pub struct LiveProbe {
    start: Instant,
    admitted: AtomicU64,
    hits: AtomicU64,
    dropped: AtomicU64,
    lost: AtomicU64,
    /// Nanoseconds from `start` to the victim's death
    /// (`u64::MAX` = no kill yet).
    kill_ns: AtomicU64,
}

/// One cumulative sample of a [`LiveProbe`].
#[derive(Debug, Clone, Copy)]
struct ProbeSample {
    t_ns: u64,
    admitted: u64,
    hits: u64,
}

impl LiveProbe {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Arc<Self> {
        Arc::new(LiveProbe {
            start: Instant::now(),
            admitted: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            kill_ns: AtomicU64::new(u64::MAX),
        })
    }

    /// One admit burst: `n` packets probed, `hits` of them complete
    /// cache hits (parked packets count once they resolve nowhere —
    /// the probe measures the admit-path hit rate).
    pub(crate) fn record_admit(&self, n: u64, hits: u64) {
        self.admitted.fetch_add(n, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }

    pub(crate) fn add_dropped(&self, n: u64) {
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_lost(&self, n: u64) {
        self.lost.fetch_add(n, Ordering::Relaxed);
    }

    /// Record the victim's death (first call wins).
    pub(crate) fn mark_kill(&self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        let _ = self
            .kill_ns
            .compare_exchange(u64::MAX, ns, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Nanoseconds from probe creation to the kill, if one happened.
    pub fn kill_ns(&self) -> Option<u64> {
        match self.kill_ns.load(Ordering::SeqCst) {
            u64::MAX => None,
            ns => Some(ns),
        }
    }

    fn sample(&self) -> ProbeSample {
        ProbeSample {
            t_ns: self.start.elapsed().as_nanos() as u64,
            admitted: self.admitted.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }
}

/// The scripted episodes the subsystem knows how to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Kill one LC mid-traffic; the control plane re-homes its
    /// partition online while packets keep flowing.
    LcFailure,
    /// Zipf traffic collapsing onto a few hot /24s mid-trace, under
    /// light churn.
    FlashCrowd,
    /// Offered load above capacity against a bounded ingress queue:
    /// drops must be accounted, fabric queues bounded.
    Overload,
    /// Deterministic long-horizon soak: churn + faults + an LC failure
    /// + adversarial traffic, with periodic coherence sweeps.
    Soak,
}

impl ScenarioKind {
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::LcFailure,
        ScenarioKind::FlashCrowd,
        ScenarioKind::Overload,
        ScenarioKind::Soak,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::LcFailure => "lc-failure",
            ScenarioKind::FlashCrowd => "flash-crowd",
            ScenarioKind::Overload => "overload",
            ScenarioKind::Soak => "soak",
        }
    }

    pub fn from_name(s: &str) -> Option<ScenarioKind> {
        Self::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// How to run one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub kind: ScenarioKind,
    /// LC workers ψ (≥ 2; the failure scenarios kill LC 1).
    pub workers: usize,
    /// Packets per worker.
    pub packets: usize,
    pub seed: u64,
    /// Quick mode: smaller table and traces (CI-sized).
    pub quick: bool,
}

impl ScenarioConfig {
    /// CI/bench defaults for a scenario.
    pub fn new(kind: ScenarioKind, quick: bool) -> Self {
        ScenarioConfig {
            kind,
            workers: 4,
            packets: match (kind, quick) {
                (ScenarioKind::Soak, true) => 60_000,
                (ScenarioKind::Soak, false) => 150_000,
                (_, true) => 150_000,
                (_, false) => 600_000,
            },
            seed: 7,
            quick,
        }
    }

    fn table(&self) -> RoutingTable {
        if self.quick {
            synth::synthesize(&synth::SynthConfig::sized(8_000, self.seed))
        } else {
            synth::rt1(self.seed)
        }
    }
}

/// The recovery-time metric of the LC-failure scenario, computed from
/// the probe samples: pre-failure steady hit rate, time from the kill
/// until a sample window is back at ≥95% of it, and the post-recovery
/// steady rate.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySummary {
    /// Run time at the kill, milliseconds.
    pub kill_ms: f64,
    /// Kill → first ≥95%-of-steady window, milliseconds.
    pub recovery_ms: f64,
    /// Admit-path hit rate before the kill (second half of the
    /// pre-kill windows, skipping cache warm-up).
    pub pre_hit_rate: f64,
    /// Admit-path hit rate over the trailing post-kill windows.
    pub post_hit_rate: f64,
}

/// One scenario's graded result.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub kind: ScenarioKind,
    pub packets: usize,
    pub seed: u64,
    pub quick: bool,
    /// Fabric ring capacity the run used (the queue-depth bound).
    pub ring_capacity: usize,
    /// The underlying dataplane run.
    pub report: DataplaneReport,
    /// LC-failure recovery metric (`None` for the other scenarios, or
    /// when too few probe windows existed to grade one).
    pub recovery: Option<RecoverySummary>,
    /// Hard gates that failed (empty = scenario passed).
    pub gate_failures: Vec<String>,
}

impl ScenarioReport {
    pub fn passed(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Sum of a per-worker counter.
    fn sum(&self, f: impl Fn(&crate::report::WorkerReport) -> u64) -> u64 {
        self.report.workers.iter().map(f).sum()
    }

    /// One `BENCH_scenario.json` row: the scenario's own keys, and the
    /// run as [`DataplaneReport::to_json`] under `"report"`.
    pub fn json_row(&self) -> String {
        let recovery = match &self.recovery {
            Some(rec) => format!(
                "{{ \"kill_ms\": {:.3}, \"recovery_ms\": {:.3}, \"pre_hit_rate\": {:.4}, \"post_hit_rate\": {:.4} }}",
                rec.kill_ms, rec.recovery_ms, rec.pre_hit_rate, rec.post_hit_rate
            ),
            None => "null".to_string(),
        };
        let gates: Vec<String> = self
            .gate_failures
            .iter()
            .map(|g| format!("\"{}\"", g.replace('"', "'")))
            .collect();
        format!(
            "{{\"scenario\": \"{}\", \"packets_per_worker\": {}, \"quick\": {}, \"seed\": {}, \"ring_capacity\": {}, \"recovery\": {}, \"passed\": {}, \"gates_failed\": [{}], \"report\": {}}}",
            self.kind.name(),
            self.packets,
            self.quick,
            self.seed,
            self.ring_capacity,
            recovery,
            self.passed(),
            gates.join(", "),
            self.report.to_json().trim_end(),
        )
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let verdict = if self.passed() {
            "PASS".to_string()
        } else {
            format!("FAIL [{}]", self.gate_failures.join("; "))
        };
        let recovery = match &self.recovery {
            Some(r) => format!(
                " | kill at {:.1} ms, recovered in {:.1} ms ({:.3} -> {:.3})",
                r.kill_ms, r.recovery_ms, r.pre_hit_rate, r.post_hit_rate
            ),
            None => String::new(),
        };
        format!(
            "{}: {} pkts | hit rate {:.3} | divergence {} | drops {} | lost {}{} | {}",
            self.kind.name(),
            self.report.total_packets(),
            self.report.hit_rate(),
            self.report.oracle_divergence(),
            self.sum(|w| w.ingress_dropped),
            self.sum(|w| w.lost_packets),
            recovery,
            verdict,
        )
    }
}

/// Compute the recovery metric from cumulative probe samples and the
/// kill time. `None` when too few windows exist on either side of the
/// kill, or the hit rate never got back to the 95% band.
fn compute_recovery(samples: &[ProbeSample], kill_ns: u64) -> Option<RecoverySummary> {
    // Per-window admit-path hit rates (windows with no admissions are
    // skipped — they carry no rate information).
    let mut windows: Vec<(u64, f64)> = Vec::with_capacity(samples.len());
    for pair in samples.windows(2) {
        let d_admitted = pair[1].admitted.saturating_sub(pair[0].admitted);
        if d_admitted == 0 {
            continue;
        }
        let d_hits = pair[1].hits.saturating_sub(pair[0].hits);
        windows.push((pair[1].t_ns, d_hits as f64 / d_admitted as f64));
    }
    let pre: Vec<f64> = windows
        .iter()
        .filter(|(t, _)| *t <= kill_ns)
        .map(|(_, r)| *r)
        .collect();
    if pre.len() < 4 {
        return None;
    }
    // Steady pre-failure rate: the second half of the pre-kill windows
    // (the first half is cache warm-up).
    let steady = &pre[pre.len() / 2..];
    let pre_rate = steady.iter().sum::<f64>() / steady.len() as f64;
    let post: Vec<(u64, f64)> = windows
        .iter()
        .filter(|(t, _)| *t > kill_ns)
        .copied()
        .collect();
    let (rec_t, _) = post.iter().find(|(_, r)| *r >= 0.95 * pre_rate)?;
    let tail = &post[post.len() / 2..];
    let post_rate = tail.iter().map(|(_, r)| *r).sum::<f64>() / tail.len().max(1) as f64;
    Some(RecoverySummary {
        kill_ms: kill_ns as f64 / 1e6,
        recovery_ms: rec_t.saturating_sub(kill_ns) as f64 / 1e6,
        pre_hit_rate: pre_rate,
        post_hit_rate: post_rate,
    })
}

/// Shared gate: the run never disagreed with the full-table oracle.
fn gate_divergence(report: &DataplaneReport, failures: &mut Vec<String>) {
    let d = report.oracle_divergence();
    if d != 0 {
        failures.push(format!("oracle_divergence {d} != 0"));
    }
}

const RING_CAPACITY: usize = 1024;

fn base_config(cfg: &ScenarioConfig) -> DataplaneConfig {
    DataplaneConfig {
        workers: cfg.workers,
        cache: LrCacheConfig::paper(4096),
        ring_capacity: RING_CAPACITY,
        seed: cfg.seed,
        ..Default::default()
    }
}

/// What a scenario runner hands back: the run, its recovery metric
/// (LC failure only), and the gates it failed.
type Graded = (DataplaneReport, Option<RecoverySummary>, Vec<String>);

/// Run one scenario end to end: build table and traces, run the
/// dataplane, grade the gates.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    assert!(cfg.workers >= 2, "scenarios need at least two workers");
    assert!(cfg.packets > 0, "scenarios need packets");
    let (report, recovery, gate_failures) = match cfg.kind {
        ScenarioKind::LcFailure => run_lc_failure(cfg),
        ScenarioKind::FlashCrowd => run_flash_crowd(cfg),
        ScenarioKind::Overload => run_overload(cfg),
        ScenarioKind::Soak => run_soak(cfg),
    };
    ScenarioReport {
        kind: cfg.kind,
        packets: cfg.packets,
        seed: cfg.seed,
        quick: cfg.quick,
        ring_capacity: RING_CAPACITY,
        report,
        recovery,
        gate_failures,
    }
}

/// E21: kill LC 1 at 40% of its trace; survivors re-home its partition
/// online. Gates: zero divergence, a finite recovery time, and the
/// post-failure hit rate back to ≥95% of pre-failure.
fn run_lc_failure(cfg: &ScenarioConfig) -> Graded {
    let table = cfg.table();
    let p = preset(PresetName::D75);
    let traces: Vec<Trace> = (0..cfg.workers)
        .map(|lc| p.generate(&table, cfg.packets, cfg.seed + lc as u64))
        .collect();
    let probe = LiveProbe::new();
    let dcfg = DataplaneConfig {
        failover: Some(FailoverPlan {
            lc: 1,
            after_packets: (cfg.packets as u64) * 2 / 5,
        }),
        probe: Some(Arc::clone(&probe)),
        ..base_config(cfg)
    };
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let probe = Arc::clone(&probe);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                samples.push(probe.sample());
                std::thread::sleep(Duration::from_micros(200));
            }
            samples.push(probe.sample());
            samples
        })
    };
    let report = run(&table, &traces, &dcfg);
    stop.store(true, Ordering::SeqCst);
    let samples = sampler.join().expect("sampler thread panicked");

    let recovery = probe
        .kill_ns()
        .and_then(|kill| compute_recovery(&samples, kill));
    let mut failures = Vec::new();
    gate_divergence(&report, &mut failures);
    if report.failover.is_none() {
        failures.push("no remap ran".to_string());
    }
    match &recovery {
        None => failures.push("no finite recovery time".to_string()),
        Some(r) => {
            if r.post_hit_rate < 0.95 * r.pre_hit_rate {
                failures.push(format!(
                    "post-failure hit rate {:.4} < 95% of pre-failure {:.4}",
                    r.post_hit_rate, r.pre_hit_rate
                ));
            }
        }
    }
    let lost: u64 = report.workers.iter().map(|w| w.lost_packets).sum();
    let expected = (cfg.workers * cfg.packets) as u64 - lost;
    if report.total_packets() != expected {
        failures.push(format!(
            "completed {} != admitted-minus-lost {expected}",
            report.total_packets()
        ));
    }
    (report, recovery, failures)
}

/// E22: Zipf stream collapsing onto hot /24s mid-trace, under light
/// churn. Gates: zero divergence, every packet completed, bounded
/// fabric queues.
fn run_flash_crowd(cfg: &ScenarioConfig) -> Graded {
    let table = cfg.table();
    let fc = FlashCrowdConfig {
        distinct: if cfg.quick { 8_000 } else { 20_000 },
        ..Default::default()
    };
    let traces: Vec<Trace> = (0..cfg.workers)
        .map(|lc| flash_crowd(&table, cfg.packets, cfg.seed + lc as u64, &fc))
        .collect();
    let dcfg = DataplaneConfig {
        churn: Some(ChurnConfig {
            updates: if cfg.quick { 1_000 } else { 4_000 },
            updates_per_publication: 50,
            withdraw_fraction: 0.3,
            pace_us: 100,
        }),
        ..base_config(cfg)
    };
    let report = run(&table, &traces, &dcfg);
    let mut failures = Vec::new();
    gate_divergence(&report, &mut failures);
    let expected = (cfg.workers * cfg.packets) as u64;
    if report.total_packets() != expected {
        failures.push(format!(
            "completed {} != offered {expected}",
            report.total_packets()
        ));
    }
    gate_ring_depth(&report, &mut failures);
    (report, None, failures)
}

/// Fabric backpressure gate: rings stayed within their bound (the
/// high-water mark proves the introspection saw real depth, and the
/// bound proves no unbounded queueing).
fn gate_ring_depth(report: &DataplaneReport, failures: &mut Vec<String>) {
    let max_depth = report
        .workers
        .iter()
        .map(|w| w.max_ring_depth)
        .max()
        .unwrap_or(0);
    if max_depth == 0 {
        failures.push("ring depth never observed (no fabric traffic?)".to_string());
    }
    if max_depth > RING_CAPACITY as u64 {
        failures.push(format!(
            "ring depth {max_depth} exceeds capacity {RING_CAPACITY}"
        ));
    }
}

/// E23: offered load above capacity against a bounded ingress queue.
/// Gates: zero divergence, drops happened and are exactly accounted
/// (completed + dropped = offered), bounded fabric queues.
fn run_overload(cfg: &ScenarioConfig) -> Graded {
    let table = cfg.table();
    let p = preset(PresetName::BL); // least cacheable preset: most FE work
    let traces: Vec<Trace> = (0..cfg.workers)
        .map(|lc| p.generate(&table, cfg.packets, cfg.seed + lc as u64))
        .collect();
    let dcfg = DataplaneConfig {
        overload: Some(OverloadConfig {
            offered_pps: 40e6,
            ingress_capacity: 4_096,
        }),
        ..base_config(cfg)
    };
    let report = run(&table, &traces, &dcfg);
    let mut failures = Vec::new();
    gate_divergence(&report, &mut failures);
    let dropped: u64 = report.workers.iter().map(|w| w.ingress_dropped).sum();
    if dropped == 0 {
        failures.push("overload produced no ingress drops".to_string());
    }
    for w in &report.workers {
        let accounted = w.packets + w.ingress_dropped;
        if accounted != cfg.packets as u64 {
            failures.push(format!(
                "lc {}: completed {} + dropped {} != offered {}",
                w.lc, w.packets, w.ingress_dropped, cfg.packets
            ));
        }
    }
    gate_ring_depth(&report, &mut failures);
    (report, None, failures)
}

/// E24: deterministic long-horizon soak — churn + fabric faults + an
/// LC failure + flash-crowd-then-thrash traffic, with a coherence
/// sweep every 64 rounds. Gates: zero divergence (including every
/// sweep), sweeps actually ran, the remap ran.
fn run_soak(cfg: &ScenarioConfig) -> Graded {
    let table = cfg.table();
    let fc = FlashCrowdConfig {
        distinct: if cfg.quick { 6_000 } else { 15_000 },
        ..Default::default()
    };
    let th = ThrashConfig {
        working_set: 5_000,
        phase_len: 10_000,
        phases: 3,
    };
    let traces: Vec<Trace> = (0..cfg.workers)
        .map(|lc| {
            let seed = cfg.seed + lc as u64;
            let half = cfg.packets / 2;
            let a = flash_crowd(&table, half, seed, &fc);
            let b = cache_thrash(&table, cfg.packets - half, seed ^ 0x50AC, &th);
            let mut dests = a.destinations().to_vec();
            dests.extend_from_slice(b.destinations());
            Trace::new(format!("soak(lc {lc})"), dests)
        })
        .collect();
    let dcfg = DataplaneConfig {
        deterministic: true,
        churn: Some(ChurnConfig {
            updates: if cfg.quick { 1_000 } else { 3_000 },
            updates_per_publication: 50,
            withdraw_fraction: 0.3,
            pace_us: 0,
        }),
        faults: Some(FaultPlan {
            seed: cfg.seed ^ 0xFA17,
            delay_per_mille: 30,
            drop_per_mille: 10,
            dup_per_mille: 10,
            stall_per_mille: 5,
            forced_publication_per_mille: 3,
            max_delay_iters: 3,
            retransmit_delay_iters: 5,
        }),
        failover: Some(FailoverPlan {
            lc: 1,
            after_packets: (cfg.packets as u64) * 2 / 5,
        }),
        sweep_every: 64,
        ..base_config(cfg)
    };
    let report = run(&table, &traces, &dcfg);
    let mut failures = Vec::new();
    gate_divergence(&report, &mut failures);
    match &report.sweeps {
        None => failures.push("no coherence sweeps ran".to_string()),
        Some(s) => {
            if s.sweeps == 0 {
                failures.push("no coherence sweeps ran".to_string());
            }
            if s.mismatches != 0 {
                failures.push(format!("{} sweep mismatches", s.mismatches));
            }
        }
    }
    if report.failover.is_none() {
        failures.push("no remap ran".to_string());
    }
    (report, None, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for k in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ScenarioKind::from_name("nope"), None);
    }

    #[test]
    fn recovery_metric_detects_dip_and_return() {
        // Cumulative samples: steady 0.9 hit rate, a dip to 0.2 after
        // the kill at t=10, recovery at t=16.
        let mut samples = Vec::new();
        let (mut admitted, mut hits) = (0u64, 0u64);
        for t in 0..30u64 {
            admitted += 100;
            hits += match t {
                0..=10 => 90,
                11..=15 => 20,
                _ => 92,
            };
            samples.push(ProbeSample {
                t_ns: t * 1_000_000,
                admitted,
                hits,
            });
        }
        let r = compute_recovery(&samples, 10_500_000).expect("recovery found");
        assert!(
            (r.pre_hit_rate - 0.9).abs() < 0.05,
            "pre {}",
            r.pre_hit_rate
        );
        // Kill at 10.5 ms, first >=95% window ends at t=17 ms.
        assert!(
            (5.0..8.0).contains(&r.recovery_ms),
            "recovery_ms {}",
            r.recovery_ms
        );
        assert!(r.post_hit_rate > 0.85);
    }

    #[test]
    fn recovery_none_when_rate_never_returns() {
        let mut samples = Vec::new();
        let (mut admitted, mut hits) = (0u64, 0u64);
        for t in 0..20u64 {
            admitted += 100;
            hits += if t <= 10 { 90 } else { 10 };
            samples.push(ProbeSample {
                t_ns: t * 1_000_000,
                admitted,
                hits,
            });
        }
        assert!(compute_recovery(&samples, 10_500_000).is_none());
    }

    #[test]
    fn quick_soak_scenario_passes_gates() {
        let mut cfg = ScenarioConfig::new(ScenarioKind::Soak, true);
        cfg.packets = 20_000;
        let r = run_scenario(&cfg);
        assert!(r.passed(), "soak gates failed: {:?}", r.gate_failures);
        assert!(r.report.failover.is_some());
        assert!(r.report.sweeps.expect("sweeps ran").sweeps > 0);
        let row = r.json_row();
        assert!(row.contains("\"scenario\": \"soak\""));
    }
}
