//! **Benchmark regression gate** for the simulator core.
//!
//! Runs the Spal / CacheOnly / Conventional routers at 10 and 40 Gbps
//! under both clock engines ([`EngineMode::Naive`] and the default
//! [`EngineMode::FastForward`]) and measures *simulated packets per
//! wallclock second*. Results go to `BENCH_sim.json` at the repo root,
//! one row per `(config, engine)` pair:
//!
//! ```json
//! {"benchmark": "sim_engine", "config": "spal-10g-fast",
//!  "packets_per_sec": 1.2e6, "cycles_per_sec": 4.8e7, "wall_ms": 41.3}
//! ```
//!
//! The gate then enforces the fast-forward engine's contract:
//!
//! * **≥ 2× packets/sec on the low-load 10 Gbps configs** (Spal and
//!   CacheOnly) — sparse arrivals (mean gap 40 cycles) against mostly
//!   cache-hit service are where event-horizon jumps pay off;
//! * **no regression (≥ 0.9×) everywhere else** — the 40 Gbps configs
//!   (dense arrivals leave little to skip) and the Conventional router
//!   at either speed, which its 40-cycle FE saturates even at 10 Gbps
//!   (ρ ≈ 1): with the FE busy nearly every cycle, wall time is bound
//!   by per-event work both engines share, so the scan must merely
//!   stay out of the way.
//!
//! After the engine gate it runs the **lookup-throughput gate** (a
//! compact version of `bench_lookup`): replay a stress trace through
//! the gated LPM engines — scalar `lookup`, `forward_batch`, and the
//! counted `lookup_batch` — and enforce the batch-speedup floors
//! (≥ 1.5× on DIR-24-8 and Lulea, ≥ 1.0× on the DP trie and Poptrie)
//! and the forward-vs-counted floor (`forward_batch` ≥ 1.0× the counted
//! `lookup_batch` on each, ≥ 1.2× on Poptrie, ≥ 0.9× on DIR-24-8: the
//! forwarding walk must shed the cost model's bookkeeping). Those rows are appended to
//! `BENCH_lookup.json` next to the sim output.
//!
//! Exits non-zero if any bound is violated, so CI can run it as a
//! smoke test: `bench_gate --quick`. Other flags: `--packets N`,
//! `--seed N`, `--out PATH`.

use spal_bench::lookup;
use spal_cache::LrCacheConfig;
use spal_rib::{synth, RoutingTable};
use spal_sim::{EngineMode, RouterKind, RouterSim, SimConfig, SimReport};
use spal_traffic::{LcSpeed, Trace};
use std::io::Write;
use std::time::Instant;

/// Repetitions per measurement; the best (minimum-wall) run is kept, the
/// standard trick for shaving scheduler noise off a throughput number.
const REPS: usize = 5;

struct Row {
    config: String,
    packets_per_sec: f64,
    cycles_per_sec: f64,
    wall_ms: f64,
}

struct Options {
    packets_per_lc: usize,
    seed: u64,
    out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        packets_per_lc: 60_000,
        seed: 1,
        out: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.packets_per_lc = 12_000,
            "--packets" => {
                i += 1;
                opts.packets_per_lc = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--packets needs a number");
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
            // Accepted for run_experiments.sh compatibility (the gate
            // synthesizes its own table, so the RT choice is moot).
            "--rt1" => {}
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    opts
}

fn kind_label(kind: RouterKind) -> &'static str {
    match kind {
        RouterKind::Spal => "spal",
        RouterKind::CacheOnly => "cache-only",
        RouterKind::Conventional => "conventional",
    }
}

fn speed_label(speed: LcSpeed) -> &'static str {
    match speed {
        LcSpeed::Gbps10 => "10g",
        LcSpeed::Gbps40 => "40g",
    }
}

/// Time one simulation run (construction excluded), best of [`REPS`].
fn measure(
    table: &RoutingTable,
    traces: &[Trace],
    config: &SimConfig,
    window: Option<u64>,
) -> (SimReport, f64) {
    let mut best: Option<(SimReport, f64)> = None;
    for _ in 0..REPS {
        let sim = RouterSim::new(table, traces, config.clone());
        let start = Instant::now();
        let report = match window {
            Some(cycles) => sim.run_for(cycles),
            None => sim.run(),
        };
        let wall = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, w)| wall < *w) {
            best = Some((report, wall));
        }
    }
    best.expect("at least one rep")
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(path: &str, rows: &[Row]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "  {{\"benchmark\": \"sim_engine\", \"config\": \"{}\", \
             \"packets_per_sec\": {:.1}, \"cycles_per_sec\": {:.1}, \"wall_ms\": {:.3}}}{}",
            json_escape(&r.config),
            r.packets_per_sec,
            r.cycles_per_sec,
            r.wall_ms,
            comma
        )?;
    }
    writeln!(f, "]")?;
    Ok(())
}

fn main() {
    let opts = parse_args();
    let psi = 4;
    // A small table keeps the per-packet trie walk cheap. That is
    // deliberate: the walk costs the same under both engines, so it
    // dilutes the very overhead difference the gate exists to measure —
    // engine relative performance is the target, not table fidelity.
    let table = synth::synthesize(&synth::SynthConfig::sized(4_000, 0xB0B));
    println!(
        "bench_gate: psi={psi}, {} packets/LC, table {} prefixes, best of {REPS}",
        opts.packets_per_lc,
        table.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for kind in [
        RouterKind::Spal,
        RouterKind::CacheOnly,
        RouterKind::Conventional,
    ] {
        for speed in [LcSpeed::Gbps10, LcSpeed::Gbps40] {
            let traces = spal_bench::trace_streams(
                spal_traffic::PresetName::D75,
                &table,
                psi,
                opts.packets_per_lc,
                opts.seed,
            );
            let base = SimConfig {
                kind,
                psi,
                speed,
                cache: LrCacheConfig {
                    blocks: 1024,
                    ..LrCacheConfig::default()
                },
                packets_per_lc: opts.packets_per_lc,
                seed: opts.seed,
                ..SimConfig::default()
            };
            // The conventional router cannot drain a saturated link
            // (its FE is slower than the mean arrival gap), so it gets
            // a fixed open-loop window instead of a run to completion.
            let window = match kind {
                RouterKind::Conventional => {
                    Some(opts.packets_per_lc as u64 * speed.mean_gap() as u64)
                }
                _ => None,
            };
            let mut pps = [0.0f64; 2];
            for (slot, engine) in [EngineMode::Naive, EngineMode::FastForward]
                .into_iter()
                .enumerate()
            {
                let config = SimConfig {
                    engine,
                    ..base.clone()
                };
                let (report, wall) = measure(&table, &traces, &config, window);
                let packets = report.latency.count() as f64;
                let row = Row {
                    config: format!(
                        "{}-{}-{}",
                        kind_label(kind),
                        speed_label(speed),
                        if engine == EngineMode::Naive {
                            "naive"
                        } else {
                            "fast"
                        }
                    ),
                    packets_per_sec: packets / wall,
                    cycles_per_sec: report.cycles as f64 / wall,
                    wall_ms: wall * 1e3,
                };
                println!(
                    "  {:28} {:>10.0} packets/s {:>12.0} cycles/s {:>9.2} ms",
                    row.config, row.packets_per_sec, row.cycles_per_sec, row.wall_ms
                );
                pps[slot] = row.packets_per_sec;
                rows.push(row);
            }
            let ratio = pps[1] / pps[0];
            // The 2× speedup contract applies to the low-load configs;
            // saturated ones (Conventional at any speed, anything at
            // 40 Gbps) are event-bound and only need to not regress.
            let low_load = speed == LcSpeed::Gbps10 && kind != RouterKind::Conventional;
            let floor = if low_load { 2.0 } else { 0.9 };
            let verdict = if ratio >= floor { "ok" } else { "FAIL" };
            println!(
                "  {:28} fast/naive {ratio:.2}x (floor {floor}x) {verdict}",
                format!("{}-{}", kind_label(kind), speed_label(speed))
            );
            if ratio < floor {
                failures.push(format!(
                    "{}-{}: {ratio:.2}x < {floor}x",
                    kind_label(kind),
                    speed_label(speed)
                ));
            }
        }
    }

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let out = opts.out.as_deref().unwrap_or(default_out);
    write_json(out, &rows).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());

    // Lookup-throughput gate: batch vs scalar on the gated engines, a
    // compact version of the full `bench_lookup` sweep (one thread,
    // gated engines only), appended to BENCH_lookup.json for tracking.
    // The workload must match bench_lookup's scale: on a smaller table
    // the engines turn cache-resident and the ratio measures ILP alone,
    // under-reporting the prefetch win the floor was set against.
    let lookup_packets = (opts.packets_per_lc * 2).max(100_000);
    let (lookup_table, lookup_trace) =
        lookup::stress_workload(lookup::STRESS_PREFIXES, lookup_packets, opts.seed);
    println!(
        "lookup gate: {} packets ({} distinct), table {} prefixes",
        lookup_trace.len(),
        lookup_trace.distinct(),
        lookup_table.len()
    );
    let engines = lookup::build_engines(&lookup_table, &lookup::GATED_ALGORITHMS);
    let (lookup_rows, lookup_failures) = lookup::run_gate(&engines, &lookup_trace, 1);
    failures.extend(lookup_failures);

    // Poptrie-vs-Lulea gate: the cache-line-packed engine must beat the
    // codeword-compressed one on raw throughput — scalar AND batch32 —
    // at equal or lower storage, on the same stress workload. This pins
    // the engine's reason to exist: fewer distinct cache lines per
    // lookup must show up as wall-clock, not just as a model number.
    let find = |engine: &str, mode: &str| {
        lookup_rows
            .iter()
            .find(|r| r.engine == engine && r.mode == mode)
            .unwrap_or_else(|| panic!("missing {engine}/{mode} row"))
    };
    for mode in ["scalar", "batch32"] {
        let pop = find("Poptrie", mode);
        let lulea = find("Lulea", mode);
        let ratio = pop.packets_per_sec / lulea.packets_per_sec;
        let verdict = if ratio >= 1.0 { "ok" } else { "FAIL" };
        println!("  Poptrie/Lulea {mode} throughput {ratio:.2}x (floor 1.0x) {verdict}");
        if ratio < 1.0 {
            failures.push(format!("Poptrie {mode} {ratio:.2}x slower than Lulea"));
        }
    }
    let (pop_bytes, lulea_bytes) = (
        find("Poptrie", "scalar").storage_bytes,
        find("Lulea", "scalar").storage_bytes,
    );
    println!(
        "  Poptrie storage {pop_bytes} vs Lulea {lulea_bytes} {}",
        if pop_bytes <= lulea_bytes {
            "ok"
        } else {
            "FAIL"
        }
    );
    if pop_bytes > lulea_bytes {
        failures.push(format!(
            "Poptrie storage {pop_bytes} exceeds Lulea {lulea_bytes}"
        ));
    }
    let lookup_out = if out.contains("BENCH_sim") {
        out.replace("BENCH_sim", "BENCH_lookup")
    } else {
        std::path::Path::new(out)
            .with_file_name("BENCH_lookup.json")
            .to_string_lossy()
            .into_owned()
    };
    lookup::write_rows(&lookup_out, &lookup_rows, true).expect("writing lookup JSON");
    println!("appended {} lookup rows to {lookup_out}", lookup_rows.len());

    if !failures.is_empty() {
        eprintln!("bench_gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("bench_gate passed");
}
