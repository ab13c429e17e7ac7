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
//! bookkeeping. This is the workspace's one lookup gate: verdicts go
//! through the [`Gates`] ledger (see `spal_bench::gate` for the
//! protocol), and a breach exits non-zero so CI can run
//! `bench_lookup --quick`. Flags: `--quick`, `--packets N`,
//! `--prefixes N`, `--seed N`, `--threads N`, `--out PATH`, `--dfz`;
//! any other flag is an error.
//!
//! **DFZ-2026 arms** (`--dfz`, or `--dfz --quick` for the CI tier):
//! instead of the 600k calibration sweep, build every IPv4 engine at
//! the ~1M-prefix DFZ-2026 preset (150k quick) gating build time and
//! recording storage, replay a stress stream through each (batch
//! checksums asserted equal to scalar), and run the full-table IPv6
//! SHIP-vs-binary gate: SHIP must win on batched throughput at
//! equal-or-lower storage. Rows go to `BENCH_dfz.json`.

use spal_bench::gate::{host_cores, stamp, write_array};
use spal_bench::lookup::{
    all_engines, measure_speedup, print_speedup, run_gate, stress_trace, stress_workload,
    LookupRow, DEFAULT_BATCH, STRESS_PREFIXES,
};
use spal_bench::{dfz, ArgError, Args, Gates};

/// Stamp and write the rows, then settle the ledger.
fn finish(gates: Gates, rows: &[LookupRow], out: &str) {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| stamp(&r.to_json(), r.threads))
        .collect();
    write_array(out, &rows).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());
    gates.finish();
}

/// The `--dfz` arms: IPv4 build-time gates + replay at DFZ-2026
/// scale, then the IPv6 SHIP-vs-binary acceptance gate.
fn run_dfz(quick: bool, packets: usize, seed: u64, out: &str) {
    let tier = if quick { "quick" } else { "full" };
    let mut gates = Gates::new("bench_lookup --dfz");
    let mut rows = Vec::new();

    let t0 = std::time::Instant::now();
    let table = dfz::dfz_v4_table(quick);
    println!(
        "bench_lookup --dfz ({tier}): v4 table {} prefixes generated in {:.1} s",
        table.len(),
        t0.elapsed().as_secs_f64()
    );
    let engines = dfz::run_v4_build_gate(&table, quick, &mut gates);

    let trace = stress_trace(&table, packets, seed);
    let shards = trace.shard_slices(1);
    for engine in &engines {
        // Checksum equality is asserted inside measure_speedup; the
        // speedup floors stay pinned to the 600k calibration sweep, so
        // here the ratios are reported, not gated.
        let m = measure_speedup(engine.as_ref(), &shards, DEFAULT_BATCH);
        print_speedup(&m, 1);
        rows.extend([m.scalar, m.batch, m.counted]);
    }
    drop(engines);

    let t0 = std::time::Instant::now();
    let table6 = dfz::dfz_v6_table(quick);
    println!(
        "  v6 table {} prefixes generated in {:.1} s",
        table6.len(),
        t0.elapsed().as_secs_f64()
    );
    let trace6 = dfz::dfz_v6_trace(&table6, packets, seed);
    rows.extend(dfz::run_v6_gate(&table6, &trace6, 1, &mut gates));
    finish(gates, &rows, out);
}

fn main() -> Result<(), ArgError> {
    let args = Args::parse(std::env::args().skip(1))?;
    args.expect_only(&[
        "quick", "dfz", "packets", "prefixes", "seed", "threads", "out",
    ])?;
    let quick = args.has("quick");
    let packets = args.get_or("packets", if quick { 100_000 } else { 400_000 })?;
    let seed = args.get_or("seed", 1u64)?;
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    if args.has("dfz") {
        let out = args.get_or("out", format!("{root}/BENCH_dfz.json"))?;
        run_dfz(quick, packets, seed, &out);
        return Ok(());
    }
    let out = args.get_or("out", format!("{root}/BENCH_lookup.json"))?;
    let prefixes = args.get_or("prefixes", STRESS_PREFIXES)?;
    let (table, trace) = stress_workload(prefixes, packets, seed);
    // One thread (where the floors bind), then every core — or
    // `--threads N`.
    let mut thread_sweep = vec![1usize];
    let wide = args.get_or("threads", host_cores())?;
    if wide > 1 {
        thread_sweep.push(wide);
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
    let mut gates = Gates::new("bench_lookup");
    let mut rows = Vec::new();
    for &threads in &thread_sweep {
        rows.extend(run_gate(&engines, &trace, threads, &mut gates));
    }
    finish(gates, &rows, &out);
    Ok(())
}
