//! **Lookup-throughput benchmark and gate**: replay one destination
//! trace through every LPM engine, scalar vs batched, across a thread
//! sweep, and write `BENCH_lookup.json` at the repo root for
//! PR-over-PR tracking.
//!
//! For each engine the trace is sharded contiguously across scoped
//! worker threads sharing one `Arc<dyn Lpm + Send + Sync>`; each worker
//! replays its shard one `lookup` call per address (scalar — the
//! pre-batch hot path), through `forward_batch` in 32-address chunks
//! (batch — what the dataplane runs), and through the counted
//! `lookup_batch` in the same chunks (the cost-model path, which also
//! supplies the `mean_accesses` / `mean_lines` columns). The three
//! arms' next hops are asserted equal, so every benchmark run
//! re-verifies the batch contract on real traffic.
//!
//! The gate (enforced at one thread, where each ratio is a pure
//! comparison of two code paths): batch ≥ 1.5× scalar packets/sec on
//! DIR-24-8 and Lulea, ≥ 1.0× on the pointer-heavier DP trie and on
//! the already-line-economical Poptrie; and `forward_batch` ≥ 1.0× the
//! counted `lookup_batch` on every engine, ≥ 1.2× on Poptrie (and on
//! SHIP in the `--dfz` arm), ≥ 0.9× on DIR-24-8 (same loads in both
//! arms) — the forwarding walk must really shed the cost model's
//! bookkeeping. Exits
//! non-zero on a violation so CI can run `bench_lookup --quick`.
//! Flags: `--quick`, `--packets N`, `--seed N`, `--threads N`,
//! `--out PATH`.
//!
//! **DFZ-2026 arms** (`--dfz`, or `--dfz --quick` for the CI tier):
//! instead of the 600k calibration sweep, build every IPv4 engine at
//! the ~1M-prefix DFZ-2026 preset (150k quick) gating build time and
//! per-route storage, replay a stress stream through each (batch
//! checksums asserted equal to scalar), and run the full-table IPv6
//! SHIP-vs-binary gate: SHIP must win on batched throughput at
//! equal-or-lower storage. Rows go to `BENCH_dfz.json`.

use spal_bench::dfz;
use spal_bench::lookup::{
    all_engines, measure_speedup, run_gate, stress_workload, write_rows, DEFAULT_BATCH,
};

struct Options {
    packets: usize,
    prefixes: usize,
    seed: u64,
    threads: Option<usize>,
    out: Option<String>,
    dfz: bool,
    quick: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        packets: 400_000,
        prefixes: spal_bench::lookup::STRESS_PREFIXES,
        seed: 1,
        threads: None,
        out: None,
        dfz: false,
        quick: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts.packets = 100_000;
                opts.quick = true;
            }
            "--dfz" => opts.dfz = true,
            "--packets" => {
                i += 1;
                opts.packets = args
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
            "--prefixes" => {
                i += 1;
                opts.prefixes = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--prefixes needs a number");
            }
            "--threads" => {
                i += 1;
                opts.threads = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--threads needs a number"),
                );
            }
            "--out" => {
                i += 1;
                opts.out = Some(args.get(i).expect("--out needs a path").clone());
            }
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    opts
}

/// The `--dfz` arms: IPv4 build/storage gates + replay at DFZ-2026
/// scale, then the IPv6 SHIP-vs-binary acceptance gate.
fn run_dfz(opts: &Options) {
    let tier = if opts.quick { "quick" } else { "full" };
    let mut rows = Vec::new();
    let mut failures = Vec::new();

    let t0 = std::time::Instant::now();
    let table = dfz::dfz_v4_table(opts.quick);
    println!(
        "bench_lookup --dfz ({tier}): v4 table {} prefixes generated in {:.1} s",
        table.len(),
        t0.elapsed().as_secs_f64()
    );
    let (engines, _build_rows, mut build_failures) = dfz::run_v4_build_gate(&table, opts.quick);
    failures.append(&mut build_failures);

    let trace = dfz::dfz_v4_trace(&table, opts.packets, opts.seed);
    let shards = trace.shard_slices(1);
    for engine in &engines {
        let m = measure_speedup(engine.as_ref(), &shards, DEFAULT_BATCH);
        // Checksum equality is asserted inside measure_speedup; the
        // speedup floors stay pinned to the 600k calibration sweep, so
        // here the ratios are reported, not gated.
        println!(
            "  {:9} t=1 scalar {:>11.0} pps | batch {:>11.0} pps | {:.2}x | \
             counted {:>11.0} pps | fwd {:.2}x ({:.2} acc, {:.2} lines/lookup)",
            m.scalar.engine,
            m.scalar.packets_per_sec,
            m.batch.packets_per_sec,
            m.batch_vs_scalar,
            m.counted.packets_per_sec,
            m.forward_vs_counted,
            m.scalar.mean_accesses,
            m.scalar.mean_lines,
        );
        rows.extend([m.scalar, m.batch, m.counted]);
    }
    drop(engines);

    let t0 = std::time::Instant::now();
    let table6 = dfz::dfz_v6_table(opts.quick);
    println!(
        "  v6 table {} prefixes generated in {:.1} s",
        table6.len(),
        t0.elapsed().as_secs_f64()
    );
    let trace6 = dfz::dfz_v6_trace(&table6, opts.packets, opts.seed);
    let mut v6 = dfz::run_v6_gate(&table6, &trace6, 1);
    rows.append(&mut v6.rows);
    failures.append(&mut v6.failures);

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dfz.json");
    let out = opts.out.as_deref().unwrap_or(default_out);
    write_rows(out, &rows, false).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());

    if !failures.is_empty() {
        eprintln!("bench_lookup --dfz FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("bench_lookup --dfz passed");
}

fn main() {
    let opts = parse_args();
    if opts.dfz {
        run_dfz(&opts);
        return;
    }
    let (table, trace) = stress_workload(opts.prefixes, opts.packets, opts.seed);
    let threads_avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_sweep = vec![1usize];
    match opts.threads {
        Some(n) if n > 1 => thread_sweep.push(n),
        Some(_) => {}
        None if threads_avail > 1 => thread_sweep.push(threads_avail),
        None => {}
    }
    println!(
        "bench_lookup: {} packets ({} distinct), table {} prefixes, threads {:?}, batch {}",
        trace.len(),
        trace.distinct(),
        table.len(),
        thread_sweep,
        DEFAULT_BATCH
    );

    let engines = all_engines(&table);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for &threads in &thread_sweep {
        let (r, f) = run_gate(&engines, &trace, threads);
        rows.extend(r);
        failures.extend(f);
    }

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lookup.json");
    let out = opts.out.as_deref().unwrap_or(default_out);
    write_rows(out, &rows, false).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());

    if !failures.is_empty() {
        eprintln!("bench_lookup FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("bench_lookup passed");
}
