//! **Dataplane throughput gate**: the multi-threaded SPAL runtime on a
//! 600k-prefix table, swept over worker counts, with and without BGP
//! churn. Results go to `BENCH_dataplane.json` (one row per
//! configuration) and `BENCH_latency.json` (per-path completion-latency
//! percentiles per configuration):
//!
//! ```json
//! {"benchmark": "dataplane", "config": "w4", "workers": 4,
//!  "host_cores": 2, "measured": false, "throughput_mpps": 30.1,
//!  "hit_rate": 0.93, "hit_rate_cold": 0.85, "hit_rate_steady": 0.96, ...}
//! ```
//!
//! Every row runs the paper's `B_L` preset (32k flows, Zipf bursts) —
//! the stream the SPAL cache design targets. A row whose busy threads
//! (workers, plus the control thread under churn) outnumber the host's
//! cores is written `"measured": false`: it ran and was checked, but
//! its wall-clock numbers describe the scheduler.
//!
//! Gated bounds (correctness bounds unconditional; throughput floors
//! adapt to the host, reported in the output):
//!
//! * **correctness** — every churn-free run's checksum equals a scalar
//!   full-table oracle replay of its trace, in-run spot checks against
//!   the scalar `lookup` on the pinned snapshot never disagree, and the
//!   post-churn published table matches the control plane's RIB;
//! * **scaling** — on hosts with ≥ 4 cores, 1 → 4 workers must scale
//!   above 1.0×; on smaller hosts the sweep still runs but the gate is
//!   reported UNMEASURED and counted on the last line — four workers
//!   time-sliced onto fewer cores measure the scheduler, not the
//!   dataplane;
//! * **churn degradation** — with the control plane republishing under
//!   a paced update stream, throughput at the widest sweep point must
//!   stay ≥ 0.55× of the churn-free run (≥ 0.4× on < 4 cores, where the
//!   control thread steals a worker's core);
//! * **churn apply** — the same stream against a Lulea snapshot,
//!   patched chunk-granularly vs force-rebuilt (`delta_patching:
//!   false`): the patch arm must engage (> 0 delta applies), beat the
//!   rebuild arm's mean apply latency ≥ 2×, and keep apply p99 ≤ 50 ms.
//!
//! Exits non-zero on any violation so CI can run it:
//! `bench_dataplane --quick`. Flags: `--packets N` (total per sweep
//! point), `--prefixes N`, `--seed N`, `--out PATH`,
//! `--out-latency PATH`.

use spal_bench::{dfz, lookup};
use spal_cache::LrCacheConfig;
use spal_core::{ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6};
use spal_dataplane::{
    run_family, AddrFamily, ChurnConfig, Dataplane6Config, DataplaneConfig, DataplaneReport, V4, V6,
};
use spal_lpm::Lpm;
use spal_rib::RoutingTable;
use spal_traffic::Trace;
use std::io::Write;

const REPS: usize = 3;

struct Options {
    packets: usize,
    prefixes: usize,
    seed: u64,
    quick: bool,
    v6: bool,
    out: Option<String>,
    out_latency: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        packets: 2_000_000,
        prefixes: lookup::STRESS_PREFIXES,
        seed: 1,
        quick: false,
        v6: false,
        out: None,
        out_latency: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts.packets = 200_000;
                opts.prefixes = 60_000;
                opts.quick = true;
            }
            "--packets" => {
                i += 1;
                opts.packets = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--packets needs a number");
            }
            "--prefixes" => {
                i += 1;
                opts.prefixes = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--prefixes needs a number");
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs a number");
            }
            "--out" => {
                i += 1;
                opts.out = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--out-latency" => {
                i += 1;
                opts.out_latency = Some(args.get(i).expect("--out-latency needs a path").clone());
            }
            "--v6" => opts.v6 = true,
            "--rt1" => {}
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    opts
}

struct Row {
    config: String,
    workload: &'static str,
    workers: usize,
    churn: bool,
    packets: u64,
    throughput_mpps: f64,
    wall_ms: f64,
    hit_rate: f64,
    hit_rate_cold: f64,
    hit_rate_steady: f64,
    rem_share: f64,
    checksum_ok: Option<bool>,
    spot_mismatches: u64,
    final_mismatches: Option<u64>,
    apply_mean_us: Option<f64>,
    apply_max_us: Option<f64>,
    apply_p50_us: Option<f64>,
    apply_p95_us: Option<f64>,
    apply_p99_us: Option<f64>,
    delta_applies: Option<u64>,
    rebuild_applies: Option<u64>,
    delta_bytes_touched: Option<u64>,
    tail_p99_ns: f64,
    latency_p999_ns: u64,
}

/// Best (shortest) of `REPS` runs, at either address width.
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

fn row_from(
    config: &str,
    workload: &'static str,
    report: &DataplaneReport,
    oracle: Option<u64>,
) -> Row {
    let churn = report.churn.as_ref();
    Row {
        config: config.to_string(),
        workload,
        workers: report.workers.len(),
        churn: churn.is_some(),
        packets: report.total_packets(),
        throughput_mpps: report.throughput_mpps(),
        wall_ms: report.elapsed.as_secs_f64() * 1e3,
        hit_rate: report.hit_rate(),
        hit_rate_cold: report.hit_rate_cold(),
        hit_rate_steady: report.hit_rate_steady(),
        rem_share: report.rem_share(),
        checksum_ok: oracle.map(|sum| report.checksum() == sum),
        spot_mismatches: report.spot_check_mismatches(),
        final_mismatches: churn.map(|c| c.final_mismatches),
        apply_mean_us: churn.map(|c| c.apply_us.mean_us()),
        apply_max_us: churn.map(|c| c.apply_us.max_us),
        apply_p50_us: churn.map(|c| c.apply_us.p50_us()),
        apply_p95_us: churn.map(|c| c.apply_us.p95_us()),
        apply_p99_us: churn.map(|c| c.apply_us.p99_us()),
        delta_applies: churn.map(|c| c.delta_applies),
        rebuild_applies: churn.map(|c| c.rebuild_applies),
        delta_bytes_touched: churn.map(|c| c.delta_bytes_touched),
        tail_p99_ns: report.tail.p99_ns,
        latency_p999_ns: report.latency_paths().all().p999_ns(),
    }
}

fn print_row(r: &Row) {
    println!(
        "  {:22} {:>8.3} Mpps {:>9.1} ms | hit {:.3} (cold {:.3} / steady {:.3}) rem {:.3} \
         | p99.9 {:>8} ns | {}",
        r.config,
        r.throughput_mpps,
        r.wall_ms,
        r.hit_rate,
        r.hit_rate_cold,
        r.hit_rate_steady,
        r.rem_share,
        r.latency_p999_ns,
        match r.checksum_ok {
            Some(true) => "checksum ok",
            Some(false) => "checksum MISMATCH",
            None => "churn",
        },
    );
}

fn opt_json<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

fn write_json(path: &str, rows: &[Row], cores: usize) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        // Busy threads: the workers, plus the control thread under churn.
        let measured = r.workers + usize::from(r.churn) <= cores;
        writeln!(
            f,
            "  {{\"benchmark\": \"dataplane\", \"config\": \"{}\", \"workload\": \"{}\", \
             \"workers\": {}, \"host_cores\": {cores}, \"measured\": {measured}, \"churn\": {}, \
             \"packets\": {}, \"throughput_mpps\": {:.4}, \"wall_ms\": {:.3}, \
             \"hit_rate\": {:.6}, \"hit_rate_cold\": {:.6}, \"hit_rate_steady\": {:.6}, \
             \"rem_share\": {:.6}, \"checksum_ok\": {}, \"spot_mismatches\": {}, \
             \"final_mismatches\": {}, \"apply_mean_us\": {}, \"apply_max_us\": {}, \
             \"apply_p50_us\": {}, \"apply_p95_us\": {}, \"apply_p99_us\": {}, \
             \"delta_applies\": {}, \"rebuild_applies\": {}, \"delta_bytes_touched\": {}, \
             \"tail_p99_ns\": {:.1}, \"latency_p999_ns\": {}}}{}",
            r.config,
            r.workload,
            r.workers,
            r.churn,
            r.packets,
            r.throughput_mpps,
            r.wall_ms,
            r.hit_rate,
            r.hit_rate_cold,
            r.hit_rate_steady,
            r.rem_share,
            opt_json(&r.checksum_ok),
            r.spot_mismatches,
            opt_json(&r.final_mismatches),
            opt_json(&r.apply_mean_us.map(|v| format!("{v:.2}"))),
            opt_json(&r.apply_max_us.map(|v| format!("{v:.2}"))),
            opt_json(&r.apply_p50_us.map(|v| format!("{v:.2}"))),
            opt_json(&r.apply_p95_us.map(|v| format!("{v:.2}"))),
            opt_json(&r.apply_p99_us.map(|v| format!("{v:.2}"))),
            opt_json(&r.delta_applies),
            opt_json(&r.rebuild_applies),
            opt_json(&r.delta_bytes_touched),
            r.tail_p99_ns,
            r.latency_p999_ns,
            comma
        )?;
    }
    writeln!(f, "]")?;
    Ok(())
}

/// One `BENCH_latency.json` row: per-path completion-latency
/// percentiles for a configuration. "Completion" is what the paper's
/// packet sees — hit paths record the admit burst's probe cost, the
/// miss path records admit → resolve (including the remote round
/// trip).
fn latency_row(config: &str, report: &DataplaneReport) -> String {
    format!(
        "{{\"benchmark\": \"dataplane_latency\", \"config\": \"{config}\", \"workers\": {}, \
         \"churn\": {}, \"latency\": {}}}",
        report.workers.len(),
        report.churn.is_some(),
        report.latency_paths().to_json(),
    )
}

fn write_latency_json(path: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, line) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(f, "  {line}{comma}")?;
    }
    writeln!(f, "]")?;
    Ok(())
}

/// The per-row correctness gates of a churn-free run: its checksum
/// equals the full-table oracle replay and no in-run spot check
/// disagreed.
fn check_row(row: &Row, failures: &mut Vec<String>) {
    if row.checksum_ok == Some(false) {
        failures.push(format!(
            "{}: checksum mismatch vs full-table oracle",
            row.config
        ));
    }
    if row.spot_mismatches > 0 {
        failures.push(format!(
            "{}: {} spot-check mismatches",
            row.config, row.spot_mismatches
        ));
    }
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

/// The `--v6` arm: the IPv6 dataplane (SHIP engines, 128-bit caches
/// and fabric) over the DFZ-2026 v6 table. Gates: every churn-free
/// run's checksum equals an oracle replay through the binary reference
/// trie (bit-identical to `longest_match` by the equivalence suites,
/// but O(prefix) per packet instead of an O(table) scan), in-run spot
/// checks never disagree, the post-churn published tables match the
/// control plane's RIB, and churn apply p99 stays under the same 50 ms
/// ceiling as the IPv4 arm — scaled by threads/cores on oversubscribed
/// hosts, where the control thread's wall-clock apply time measures the
/// scheduler's time-slicing rather than the apply itself.
fn run_v6(opts: &Options) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let tier = if opts.quick { "quick" } else { "full" };
    let table = dfz::dfz_v6_table(opts.quick);
    let trace = dfz::dfz_v6_trace(&table, opts.packets, opts.seed);
    println!(
        "bench_dataplane --v6 ({tier}): {} packets/config, table {} prefixes, {cores} host \
         cores, best of {REPS}",
        opts.packets,
        table.len(),
    );

    // Oracle replay through the binary reference trie — bit-identical
    // to `RoutingTable6::longest_match` (pinned by the ship_equiv and
    // prop_v6 suites) but O(prefix length) per packet instead of the
    // table scan, which at 200k routes x 2M packets would never finish.
    let oracle_trie = ForwardingTable6::build(LpmAlgorithm6::Binary, &table);
    let oracle = oracle_checksum::<V6>(&oracle_trie, &trace);

    let base_cfg = Dataplane6Config {
        algorithm: LpmAlgorithm6::Ship,
        cache: LrCacheConfig::paper(4096),
        batch: 256,
        ring_capacity: 8192,
        spot_check_every: 64,
        seed: opts.seed,
        ..Default::default()
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut latency_rows: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for workers in [1usize, 4] {
        let cfg = Dataplane6Config {
            workers,
            ..base_cfg.clone()
        };
        let report = measure::<V6>(&table, &trace.split(workers), &cfg);
        let config = format!("v6-w{workers}");
        let row = row_from(&config, "v6", &report, Some(oracle));
        print_row(&row);
        check_row(&row, &mut failures);
        latency_rows.push(latency_row(&config, &report));
        rows.push(row);
    }

    // Churn row: SHIP bin-granular patching with per-LC fragment
    // rebuild on decline, targeted invalidation, zero-divergence gates.
    let churn_workers = 4;
    let churn_cfg = Dataplane6Config {
        workers: churn_workers,
        churn: Some(ChurnConfig {
            updates: (opts.packets / 400).clamp(200, 20_000),
            updates_per_publication: 50,
            withdraw_fraction: 0.3,
            pace_us: 100,
        }),
        ..base_cfg.clone()
    };
    let churn_report = measure::<V6>(&table, &trace.split(churn_workers), &churn_cfg);
    let config = format!("v6-w{churn_workers}-churn");
    let row = row_from(&config, "v6", &churn_report, None);
    let churn_stats = churn_report.churn.as_ref().expect("churn ran");
    print_row(&row);
    println!(
        "  {:22} {} updates in {} pubs | apply mean {:.1} us p99 {:.1} us max {:.1} us | \
         {} patched / {} rebuilt",
        "",
        churn_stats.updates_applied,
        churn_stats.publications,
        churn_stats.apply_us.mean_us(),
        churn_stats.apply_us.p99_us(),
        churn_stats.apply_us.max_us,
        churn_stats.delta_applies,
        churn_stats.rebuild_applies,
    );
    if row.spot_mismatches > 0 {
        failures.push(format!(
            "{config}: {} spot-check mismatches",
            row.spot_mismatches
        ));
    }
    if churn_stats.final_mismatches > 0 {
        failures.push(format!(
            "{config}: published tables diverged from RIB in {} samples",
            churn_stats.final_mismatches
        ));
    }
    // Same 50 ms apply ceiling as the IPv4 arm — when the control
    // thread actually gets a core. Oversubscribed hosts (fewer cores
    // than workers + control) time-slice the apply against spinning
    // workers, inflating wall-clock apply ~(threads/cores)x, so the
    // ceiling scales by that factor there (mirroring the host-aware
    // scaling/degradation gates above); the measured p99 is still
    // recorded in the JSON row either way.
    const V6_APPLY_P99_CEILING_US: f64 = 50_000.0;
    let threads = churn_workers + 1;
    let ceiling = if cores >= threads {
        V6_APPLY_P99_CEILING_US
    } else {
        V6_APPLY_P99_CEILING_US * threads as f64 / cores as f64
    };
    let p99 = churn_stats.apply_us.p99_us();
    let verdict = if p99 <= ceiling { "ok" } else { "FAIL" };
    let host = if cores >= threads {
        String::new()
    } else {
        format!(", {cores}-core host running {threads} threads")
    };
    println!("  v6 churn apply p99 {p99:.1} us (ceiling {ceiling:.0} us{host}) {verdict}");
    if p99 > ceiling {
        failures.push(format!(
            "{config}: apply p99 {p99:.1} us > {ceiling:.0} us ceiling"
        ));
    }
    latency_rows.push(latency_row(&config, &churn_report));
    rows.push(row);

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dataplane6.json");
    let out = opts.out.as_deref().unwrap_or(default_out);
    write_json(out, &rows, cores).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());

    let default_latency = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_latency6.json");
    let out_latency = opts.out_latency.as_deref().unwrap_or(default_latency);
    write_latency_json(out_latency, &latency_rows).expect("writing latency JSON");
    println!("wrote {} rows to {out_latency}", latency_rows.len());

    if !failures.is_empty() {
        eprintln!("bench_dataplane --v6 FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("bench_dataplane --v6 passed");
}

fn main() {
    let opts = parse_args();
    if opts.v6 {
        run_v6(&opts);
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (table, locality) = lookup::dataplane_workload(opts.prefixes, opts.packets, opts.seed);
    println!(
        "bench_dataplane: {} packets/config, table {} prefixes, {cores} host cores, best of {REPS}",
        opts.packets,
        table.len(),
    );
    println!(
        "  stream: locality (B_L) {} distinct dests",
        locality.distinct()
    );

    // Scalar full-table oracle checksum: the partitioned, cached,
    // message-passing runtime must resolve every packet to exactly what
    // one big DP trie says.
    let full = ForwardingTable::build(LpmAlgorithm::Dp, &table);
    let locality_oracle = oracle_checksum::<V4>(&full, &locality);
    drop(full);

    // The rows model the paper's deployment: each LC runs the flat
    // DIR-24-8 engine (whose batched lookup interleaves its table reads)
    // over its partition. Large batches amortize ring/epoch traffic per
    // admitted packet — on a time-sliced core, every cross-worker round
    // trip costs a scheduling quantum, so bigger batches matter most
    // there.
    let base_cfg = DataplaneConfig {
        algorithm: LpmAlgorithm::Dir24,
        cache: LrCacheConfig::paper(4096),
        batch: 256,
        ring_capacity: 8192,
        spot_check_every: 64,
        seed: opts.seed,
        ..Default::default()
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut latency_rows: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // Gates this host cannot run: reported, never counted as passed.
    let mut unmeasured = 0usize;

    // --- Worker sweep on the locality stream. ---
    let sweep = [1usize, 2, 4];
    let mut mpps_by_workers = std::collections::HashMap::new();
    for &workers in &sweep {
        let traces = locality.split(workers);
        let cfg = DataplaneConfig {
            workers,
            ..base_cfg.clone()
        };
        let report = measure::<V4>(&table, &traces, &cfg);
        let config = format!("w{workers}");
        let row = row_from(&config, "locality", &report, Some(locality_oracle));
        print_row(&row);
        check_row(&row, &mut failures);
        latency_rows.push(latency_row(&config, &report));
        mpps_by_workers.insert(workers, row.throughput_mpps);
        rows.push(row);
    }

    // Scaling gate, host-aware: positive scaling needs real cores.
    let scaling = mpps_by_workers[&4] / mpps_by_workers[&1];
    if cores >= 4 {
        let verdict = if scaling > 1.0 { "ok" } else { "FAIL" };
        println!("  scaling 1->4 workers: {scaling:.2}x (floor 1.0x, {cores} cores) {verdict}");
        if scaling <= 1.0 {
            failures.push(format!(
                "scaling 1->4: {scaling:.2}x <= 1.0x on {cores} cores"
            ));
        }
    } else {
        unmeasured += 1;
        println!("  scaling 1->4 workers: {scaling:.2}x — UNMEASURED ({cores} host cores < 4)");
    }

    // --- Churn row at the widest sweep point. ---
    let churn_workers = *sweep.last().expect("non-empty sweep");
    let traces = locality.split(churn_workers);
    let churn = ChurnConfig {
        updates: (opts.packets / 400).clamp(200, 20_000),
        updates_per_publication: 50,
        withdraw_fraction: 0.3,
        pace_us: 100,
    };
    let churn_cfg = DataplaneConfig {
        workers: churn_workers,
        churn: Some(churn.clone()),
        ..base_cfg.clone()
    };
    let churn_report = measure::<V4>(&table, &traces, &churn_cfg);
    let churn_config = format!("w{churn_workers}-churn");
    let row = row_from(&churn_config, "locality", &churn_report, None);
    let churn_stats = churn_report.churn.as_ref().expect("churn ran");
    print_row(&row);
    println!(
        "  {:22} {} updates in {} pubs | apply mean {:.1} us p99 {:.1} us max {:.1} us | \
         {} patched / {} rebuilt | reclaim mean {:.1} us",
        "",
        churn_stats.updates_applied,
        churn_stats.publications,
        churn_stats.apply_us.mean_us(),
        churn_stats.apply_us.p99_us(),
        churn_stats.apply_us.max_us,
        churn_stats.delta_applies,
        churn_stats.rebuild_applies,
        churn_stats.reclaim_us.mean_us(),
    );
    if row.spot_mismatches > 0 {
        failures.push(format!(
            "churn: {} spot-check mismatches",
            row.spot_mismatches
        ));
    }
    if churn_stats.final_mismatches > 0 {
        failures.push(format!(
            "churn: published table diverged from RIB in {} samples",
            churn_stats.final_mismatches
        ));
    }
    latency_rows.push(latency_row(&churn_config, &churn_report));
    let churn_mpps = row.throughput_mpps;
    rows.push(row);

    // Churn-degradation gate: incremental patching keeps publications
    // cheap, so the floor is tighter than the rebuild-era 0.5x / 0.35x.
    let degradation = churn_mpps / mpps_by_workers[&churn_workers];
    let churn_floor = if cores >= 4 { 0.55 } else { 0.4 };
    let verdict = if degradation >= churn_floor {
        "ok"
    } else {
        "FAIL"
    };
    println!(
        "  churn degradation: {degradation:.2}x of churn-free (floor {churn_floor}x) {verdict}"
    );
    if degradation < churn_floor {
        failures.push(format!(
            "churn degradation {degradation:.2}x < {churn_floor}x"
        ));
    }

    // --- Churn-apply gate: the same churn stream against a compressed
    // static engine (Lulea), patched vs force-rebuilt. The rebuild arm
    // is the control — both arms run on this host back to back, so the
    // ratio is immune to machine speed. Chunk-granular patching must
    // actually engage, must beat whole-fragment rebuilds on mean apply
    // latency by 2x, and the patched arm's p99 must stay under an
    // absolute ceiling that a rebuild-per-publication (or a grace wait
    // back on the apply path) would blow through. ---
    let lulea_cfg = DataplaneConfig {
        workers: churn_workers,
        algorithm: LpmAlgorithm::Lulea,
        churn: Some(churn.clone()),
        ..base_cfg.clone()
    };
    let patched_report = measure::<V4>(&table, &traces, &lulea_cfg);
    let patched_row = row_from(
        &format!("w{churn_workers}-churn-lulea"),
        "locality",
        &patched_report,
        None,
    );
    let rebuild_cfg = DataplaneConfig {
        delta_patching: false,
        ..lulea_cfg.clone()
    };
    let rebuild_report = measure::<V4>(&table, &traces, &rebuild_cfg);
    let rebuild_row = row_from(
        &format!("w{churn_workers}-churn-lulea-rebuild"),
        "locality",
        &rebuild_report,
        None,
    );
    for (arm, report, r) in [
        ("lulea-patched", &patched_report, &patched_row),
        ("lulea-rebuild", &rebuild_report, &rebuild_row),
    ] {
        let c = report.churn.as_ref().expect("churn ran");
        println!(
            "  {:22} apply mean {:>9.1} us p99 {:>9.1} us max {:>9.1} us | {} patched / \
             {} rebuilt | {} B touched",
            r.config,
            c.apply_us.mean_us(),
            c.apply_us.p99_us(),
            c.apply_us.max_us,
            c.delta_applies,
            c.rebuild_applies,
            c.delta_bytes_touched,
        );
        if r.spot_mismatches > 0 {
            failures.push(format!(
                "{arm}: {} spot-check mismatches",
                r.spot_mismatches
            ));
        }
        if c.final_mismatches > 0 {
            failures.push(format!(
                "{arm}: published table diverged from RIB in {} samples",
                c.final_mismatches
            ));
        }
    }
    let patched_churn = patched_report.churn.as_ref().expect("churn ran");
    let rebuild_churn = rebuild_report.churn.as_ref().expect("churn ran");
    if patched_churn.delta_applies == 0 {
        failures.push("lulea-patched: delta path never engaged (0 patched applies)".to_string());
    }
    if rebuild_churn.delta_applies != 0 {
        failures.push(format!(
            "lulea-rebuild: control arm took {} delta applies with patching disabled",
            rebuild_churn.delta_applies
        ));
    }
    let apply_speedup = rebuild_churn.apply_us.mean_us() / patched_churn.apply_us.mean_us();
    const APPLY_SPEEDUP_FLOOR: f64 = 2.0;
    const APPLY_P99_CEILING_US: f64 = 50_000.0;
    let patched_p99 = patched_churn.apply_us.p99_us();
    let verdict = if apply_speedup >= APPLY_SPEEDUP_FLOOR && patched_p99 <= APPLY_P99_CEILING_US {
        "ok"
    } else {
        "FAIL"
    };
    println!(
        "  churn apply: patched {apply_speedup:.1}x faster than rebuild \
         (floor {APPLY_SPEEDUP_FLOOR}x), p99 {patched_p99:.1} us \
         (ceiling {APPLY_P99_CEILING_US} us) {verdict}"
    );
    if apply_speedup < APPLY_SPEEDUP_FLOOR {
        failures.push(format!(
            "churn apply speedup {apply_speedup:.2}x < {APPLY_SPEEDUP_FLOOR}x vs rebuild arm"
        ));
    }
    if patched_p99 > APPLY_P99_CEILING_US {
        failures.push(format!(
            "churn apply p99 {patched_p99:.1} us > {APPLY_P99_CEILING_US} us ceiling"
        ));
    }
    rows.push(patched_row);
    rows.push(rebuild_row);

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dataplane.json");
    let out = opts.out.as_deref().unwrap_or(default_out);
    write_json(out, &rows, cores).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());

    let default_latency = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_latency.json");
    let out_latency = opts.out_latency.as_deref().unwrap_or(default_latency);
    write_latency_json(out_latency, &latency_rows).expect("writing latency JSON");
    println!("wrote {} rows to {out_latency}", latency_rows.len());

    if !failures.is_empty() {
        eprintln!("bench_dataplane FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    match unmeasured {
        0 => println!("bench_dataplane passed"),
        n => println!("bench_dataplane passed, {n} gate(s) unmeasured on this host"),
    }
}
