//! **Dataplane throughput gate**: the multi-threaded SPAL runtime swept
//! over worker counts, with and without BGP churn, at either address
//! width — one sweep body over a per-family [`Plan`]. IPv4 (default)
//! runs DIR-24-8 LCs over a 600k-prefix table and the paper's `B_L`
//! preset (32k flows, Zipf bursts — the stream the SPAL cache design
//! targets); `--v6` runs SHIP LCs (128-bit caches and fabric) over the
//! DFZ-2026 v6 table and a Zipf locality stream. Results go to
//! `BENCH_dataplane{,6}.json` (one row per configuration) and
//! `BENCH_latency{,6}.json` (per-path completion-latency percentiles
//! per configuration):
//!
//! ```json
//! {"benchmark": "dataplane", "config": "w4", "workers": 4,
//!  "throughput_mpps": 30.1, "hit_rate": 0.93, "hit_rate_cold": 0.85,
//!  "hit_rate_steady": 0.96, ..., "host_cores": 2, "measured": false}
//! ```
//!
//! Verdicts go through the [`Gates`] ledger (see `spal_bench::gate` for
//! the protocol). A row or gate whose busy threads (workers, plus the
//! control thread under churn) outnumber the host's cores ran and was
//! checked, but its wall-clock numbers describe the scheduler: the row
//! says `"measured": false`, the gate says UNMEASURED, and the last
//! line counts it. No threshold depends on the host.
//!
//! * **correctness** (unconditional) — every churn-free run's checksum
//!   equals a full-table oracle replay of its trace, in-run spot checks
//!   against the scalar `lookup` on the pinned snapshot never disagree,
//!   the post-churn published tables match the control plane's RIB, and
//!   the churn row patched at least one fragment through `apply_delta`;
//! * **scaling** — 1 → 4 workers must scale above 1.0×;
//! * **churn degradation** — with the control plane republishing under
//!   a paced update stream, throughput at the widest sweep point must
//!   stay ≥ 0.55× of the churn-free run;
//! * **churn apply** — apply p99 ≤ 50 ms on every churn row.
//!
//! Exits non-zero on any violation so CI can run it:
//! `bench_dataplane [--v6] --quick`. Flags: `--packets N` (total per
//! sweep point), `--prefixes N` (IPv4 table size), `--seed N`,
//! `--out PATH`, `--out-latency PATH`, and `--rt1` (accepted and
//! ignored, for `run_experiments.sh`). Any other flag is an error.

use spal_bench::gate::{stamp, write_array};
use spal_bench::{dfz, lookup, ArgError, Args, Gates};
use spal_cache::LrCacheConfig;
use spal_core::{LpmAlgorithm, LpmAlgorithm6};
use spal_dataplane::{
    run_family, AddrFamily, ChurnConfig, DataplaneConfig, DataplaneReport, V4, V6,
};
use spal_lpm::Lpm;
use spal_rib::RoutingTable;
use spal_traffic::Trace;

const REPS: usize = 3;
/// Worker counts swept, narrowest to widest; the churn rows run at the
/// widest.
const SWEEP: [usize; 3] = [1, 2, 4];
/// Incremental patching keeps publications cheap, so the floor is
/// tighter than the rebuild-era 0.5x.
const CHURN_DEGRADATION_FLOOR: f64 = 0.55;
/// A rebuild per publication (or a grace wait back on the apply path)
/// would blow through this.
const APPLY_P99_CEILING_US: f64 = 50_000.0;

/// What differs between the two widths of the sweep.
struct Plan<F: AddrFamily> {
    /// The banner and the ledger's name.
    name: &'static str,
    /// Prefix of every row's `config`.
    prefix: &'static str,
    /// Every row's `workload`.
    workload: &'static str,
    table: RoutingTable<F::Addr>,
    trace: Trace<F::Addr>,
    /// What each LC runs.
    engine: F::Algorithm,
    /// The full-table engine whose replay every churn-free checksum
    /// must equal.
    oracle: F::Algorithm,
    /// Default `--out` / `--out-latency`, relative to the repo root.
    out: &'static str,
    out_latency: &'static str,
}

/// Best (shortest) of `REPS` runs.
fn measure<F: AddrFamily>(
    table: &RoutingTable<F::Addr>,
    traces: &[Trace<F::Addr>],
    cfg: &DataplaneConfig<F>,
) -> DataplaneReport {
    let mut best: Option<DataplaneReport> = None;
    for _ in 0..REPS {
        let report = run_family::<F>(table, traces, cfg);
        if best.as_ref().is_none_or(|b| report.elapsed < b.elapsed) {
            best = Some(report);
        }
    }
    best.expect("at least one rep")
}

fn opt_json<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

/// One `BENCH_dataplane.json` row.
fn row_json(
    config: &str,
    workload: &str,
    r: &DataplaneReport,
    checksum_ok: Option<bool>,
) -> String {
    let churn = r.churn.as_ref();
    let us = |f: fn(&spal_dataplane::LatencySummary) -> f64| {
        opt_json(churn.map(|c| format!("{:.2}", f(&c.apply_us))))
    };
    format!(
        "{{\"benchmark\": \"dataplane\", \"config\": \"{config}\", \"workload\": \"{workload}\", \
         \"workers\": {}, \"churn\": {}, \"packets\": {}, \"throughput_mpps\": {:.4}, \
         \"wall_ms\": {:.3}, \"hit_rate\": {:.6}, \"hit_rate_cold\": {:.6}, \
         \"hit_rate_steady\": {:.6}, \"rem_share\": {:.6}, \"checksum_ok\": {}, \
         \"spot_mismatches\": {}, \"final_mismatches\": {}, \"apply_mean_us\": {}, \
         \"apply_max_us\": {}, \"apply_p50_us\": {}, \"apply_p95_us\": {}, \"apply_p99_us\": {}, \
         \"delta_applies\": {}, \"rebuild_applies\": {}, \"delta_bytes_touched\": {}, \
         \"latency_p999_ns\": {}}}",
        r.workers.len(),
        churn.is_some(),
        r.total_packets(),
        r.throughput_mpps(),
        r.elapsed.as_secs_f64() * 1e3,
        r.hit_rate(),
        r.hit_rate_cold(),
        r.hit_rate_steady(),
        r.rem_share(),
        opt_json(checksum_ok),
        r.spot_check_mismatches(),
        opt_json(churn.map(|c| c.final_mismatches)),
        us(|a| a.mean_us()),
        us(|a| a.max_us),
        us(|a| a.p50_us()),
        us(|a| a.p95_us()),
        us(|a| a.p99_us()),
        opt_json(churn.map(|c| c.delta_applies)),
        opt_json(churn.map(|c| c.rebuild_applies)),
        opt_json(churn.map(|c| c.delta_bytes_touched)),
        r.latency_paths().all().p999_ns(),
    )
}

/// What a full-table engine says the trace's next hops sum to.
fn oracle_checksum<F: AddrFamily>(full: &F::Engine, trace: &Trace<F::Addr>) -> u64 {
    let mut sum = 0u64;
    let mut out = vec![None; 1024];
    for chunk in trace.destinations().chunks(1024) {
        full.forward_batch(chunk, &mut out[..chunk.len()]);
        for r in &out[..chunk.len()] {
            sum = sum.wrapping_add(r.map(|h| h.0 as u64 + 1).unwrap_or(0));
        }
    }
    sum
}

/// The sweep's outputs: the ledger and the two row files.
struct Sweep<F: AddrFamily> {
    plan: Plan<F>,
    gates: Gates,
    rows: Vec<String>,
    latency_rows: Vec<String>,
}

impl<F: AddrFamily> Sweep<F> {
    /// Run one configuration, print and record its rows, and grade the
    /// gates every run carries: a churn-free run's checksum equals
    /// `oracle`, no in-run spot check disagreed, after churn the
    /// published tables match the control plane's RIB, the delta path
    /// engaged, and the apply-p99 ceiling holds.
    fn run(
        &mut self,
        suffix: &str,
        cfg: &DataplaneConfig<F>,
        oracle: Option<u64>,
    ) -> DataplaneReport {
        let plan = &self.plan;
        let config = format!("{}{suffix}", plan.prefix);
        let report = measure::<F>(&plan.table, &plan.trace.split(cfg.workers), cfg);
        println!(
            "  {config:22} {:>8.3} Mpps {:>9.1} ms | hit {:.3} (cold {:.3} / steady {:.3}) \
             rem {:.3} | p99.9 {:>8} ns",
            report.throughput_mpps(),
            report.elapsed.as_secs_f64() * 1e3,
            report.hit_rate(),
            report.hit_rate_cold(),
            report.hit_rate_steady(),
            report.rem_share(),
            report.latency_paths().all().p999_ns(),
        );
        if let Some(c) = &report.churn {
            println!(
                "  {:22} {} updates in {} pubs | apply mean {:.1} us p99 {:.1} us max {:.1} us \
                 | {} patched / {} rebuilt | {} B touched | reclaim mean {:.1} us",
                "",
                c.updates_applied,
                c.publications,
                c.apply_us.mean_us(),
                c.apply_us.p99_us(),
                c.apply_us.max_us,
                c.delta_applies,
                c.rebuild_applies,
                c.delta_bytes_touched,
                c.reclaim_us.mean_us(),
            );
        }
        let checksum_ok = oracle.map(|sum| report.checksum() == sum);
        if let Some(ok) = checksum_ok {
            let what = format!("{config}: checksum equals the full-table oracle's");
            self.gates.require(&what, ok);
        }
        self.gates.require(
            &format!("{config}: no spot-check mismatches"),
            report.spot_check_mismatches() == 0,
        );
        // Busy threads: the workers, plus the control thread under churn.
        let busy = cfg.workers + usize::from(cfg.churn.is_some());
        if let Some(c) = &report.churn {
            self.gates.require(
                &format!("{config}: published tables match the RIB"),
                c.final_mismatches == 0,
            );
            self.gates.require(
                &format!("{config}: delta path engaged"),
                c.delta_applies > 0,
            );
            let what = format!("{config}: apply p99 (us)");
            self.gates
                .ceiling(&what, c.apply_us.p99_us(), APPLY_P99_CEILING_US, busy);
        }
        let row = row_json(&config, plan.workload, &report, checksum_ok);
        self.rows.push(stamp(&row, busy));
        // Per-path completion latency — what the paper's packet sees:
        // hit paths record the admit burst's probe cost, the miss path
        // records admit → resolve (including the remote round trip).
        let latency = format!(
            "{{\"benchmark\": \"dataplane_latency\", \"config\": \"{config}\", \
             \"workers\": {}, \"churn\": {}, \"latency\": {}}}",
            cfg.workers,
            cfg.churn.is_some(),
            report.latency_paths().to_json(),
        );
        self.latency_rows.push(stamp(&latency, busy));
        report
    }
}

/// The sweep, at either width: workers 1 → 2 → 4 churn-free and a churn
/// row at the widest point.
fn sweep<F: AddrFamily>(
    plan: Plan<F>,
    args: &Args,
    packets: usize,
    seed: u64,
) -> Result<(), ArgError> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = args.get_or("out", format!("{root}/{}", plan.out))?;
    let out_latency = args.get_or("out-latency", format!("{root}/{}", plan.out_latency))?;
    println!(
        "{}: {packets} packets/config ({} distinct dests), table {} prefixes, {} host cores, \
         best of {REPS}",
        plan.name,
        plan.trace.distinct(),
        plan.table.len(),
        spal_bench::gate::host_cores(),
    );
    // The partitioned, cached, message-passing runtime must resolve
    // every packet to exactly what one full-table engine says.
    let oracle = oracle_checksum::<F>(&F::build(plan.oracle, &plan.table), &plan.trace);

    // Large batches amortize ring/epoch traffic per admitted packet —
    // on a time-sliced core, every cross-worker round trip costs a
    // scheduling quantum, so bigger batches matter most there.
    let base = DataplaneConfig::<F> {
        algorithm: plan.engine,
        cache: LrCacheConfig::paper(4096),
        batch: 256,
        ring_capacity: 8192,
        spot_check_every: 64,
        seed,
        ..Default::default()
    };
    let mut s = Sweep {
        gates: Gates::new(plan.name),
        plan,
        rows: Vec::new(),
        latency_rows: Vec::new(),
    };

    let mpps: Vec<f64> = SWEEP
        .iter()
        .map(|&workers| {
            let cfg = DataplaneConfig {
                workers,
                ..base.clone()
            };
            s.run(&format!("w{workers}"), &cfg, Some(oracle))
                .throughput_mpps()
        })
        .collect();
    let (narrow, wide) = (SWEEP[0], SWEEP[SWEEP.len() - 1]);
    let (mpps_narrow, mpps_wide) = (mpps[0], mpps[mpps.len() - 1]);
    s.gates.floor(
        &format!("scaling {narrow}->{wide} workers (x)"),
        mpps_wide / mpps_narrow,
        1.0,
        wide,
    );

    // Churn at the widest sweep point: the control plane republishes
    // under a paced update stream beside the workers.
    let churn_cfg = DataplaneConfig {
        workers: wide,
        churn: Some(ChurnConfig {
            updates: (packets / 400).clamp(200, 20_000),
            updates_per_publication: 50,
            withdraw_fraction: 0.3,
            pace_us: 100,
        }),
        ..base
    };
    let busy = wide + 1;
    let churned = s.run(&format!("w{wide}-churn"), &churn_cfg, None);
    s.gates.floor(
        "churn degradation (x of churn-free)",
        churned.throughput_mpps() / mpps_wide,
        CHURN_DEGRADATION_FLOOR,
        busy,
    );

    write_array(&out, &s.rows).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", s.rows.len());
    write_array(&out_latency, &s.latency_rows).expect("writing latency JSON");
    println!("wrote {} rows to {out_latency}", s.latency_rows.len());
    s.gates.finish();
    Ok(())
}

fn main() -> Result<(), ArgError> {
    let args = Args::parse(std::env::args().skip(1))?;
    args.expect_only(&[
        "quick",
        "v6",
        "packets",
        "prefixes",
        "seed",
        "out",
        "out-latency",
        "rt1",
    ])?;
    let quick = args.has("quick");
    let packets = args.get_or("packets", if quick { 200_000 } else { 2_000_000 })?;
    let seed = args.get_or("seed", 1u64)?;
    if args.has("v6") {
        // SHIP LCs over the DFZ-2026 v6 table. The oracle is the binary
        // reference trie: bit-identical to `RoutingTable6::longest_match`
        // (pinned by the ship_equiv and prop_v6 suites) but O(prefix
        // length) per packet instead of the table scan, which at 200k
        // routes x 2M packets would never finish.
        let table = dfz::dfz_v6_table(quick);
        let trace = dfz::dfz_v6_trace(&table, packets, seed);
        let plan = Plan::<V6> {
            name: "bench_dataplane --v6",
            prefix: "v6-",
            workload: "v6",
            table,
            trace,
            engine: LpmAlgorithm6::Ship,
            oracle: LpmAlgorithm6::Binary,
            out: "BENCH_dataplane6.json",
            out_latency: "BENCH_latency6.json",
        };
        sweep(plan, &args, packets, seed)
    } else {
        // The paper's deployment: each LC runs the flat DIR-24-8 engine
        // (whose batched lookup interleaves its table reads) over its
        // partition; the oracle is one big DP trie.
        let default_prefixes = if quick {
            60_000
        } else {
            lookup::STRESS_PREFIXES
        };
        let prefixes = args.get_or("prefixes", default_prefixes)?;
        let (table, trace) = lookup::dataplane_workload(prefixes, packets, seed);
        let plan = Plan::<V4> {
            name: "bench_dataplane",
            prefix: "",
            workload: "locality",
            table,
            trace,
            engine: LpmAlgorithm::Dir24,
            oracle: LpmAlgorithm::Dp,
            out: "BENCH_dataplane.json",
            out_latency: "BENCH_latency.json",
        };
        sweep(plan, &args, packets, seed)
    }
}
