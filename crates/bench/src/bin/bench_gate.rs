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
//!  "packets_per_sec": 1.2e6, "cycles_per_sec": 4.8e7, "wall_ms": 41.3,
//!  "host_cores": 2, "measured": true}
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
//! Verdicts go through the [`Gates`] ledger (see `spal_bench::gate`
//! for the protocol); every run here is single-threaded, so every gate
//! is measured on any host. Exits non-zero if any bound is violated, so
//! CI can run it as a smoke test: `bench_gate --quick`. Other flags:
//! `--packets N`, `--seed N`, `--out PATH`, and `--rt1` (accepted and
//! ignored: `run_experiments.sh` hands every binary the same flags, and
//! the gate synthesizes its own table). Any other flag is an error.

use spal_bench::gate::{stamp, write_array};
use spal_bench::{ArgError, Args, Gates};
use spal_cache::LrCacheConfig;
use spal_rib::{synth, RoutingTable};
use spal_sim::{EngineMode, RouterKind, RouterSim, SimConfig, SimReport};
use spal_traffic::{LcSpeed, Trace};
use std::time::Instant;

/// Repetitions per measurement; the best (minimum-wall) run is kept, the
/// standard trick for shaving scheduler noise off a throughput number.
const REPS: usize = 5;

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

fn main() -> Result<(), ArgError> {
    let args = Args::parse(std::env::args().skip(1))?;
    args.expect_only(&["quick", "packets", "seed", "out", "rt1"])?;
    let tier = if args.has("quick") { 12_000 } else { 60_000 };
    let packets_per_lc = args.get_or("packets", tier)?;
    let seed = args.get_or("seed", 1u64)?;
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let out = args.get_or("out", default_out.to_string())?;
    let psi = 4;
    // A small table keeps the per-packet trie walk cheap. That is
    // deliberate: the walk costs the same under both engines, so it
    // dilutes the very overhead difference the gate exists to measure —
    // engine relative performance is the target, not table fidelity.
    let table = synth::synthesize(&synth::SynthConfig::sized(4_000, 0xB0B));
    println!(
        "bench_gate: psi={psi}, {} packets/LC, table {} prefixes, best of {REPS}",
        packets_per_lc,
        table.len()
    );

    let mut rows: Vec<String> = Vec::new();
    let mut gates = Gates::new("bench_gate");

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
                packets_per_lc,
                seed,
            );
            let base = SimConfig {
                kind,
                psi,
                speed,
                cache: LrCacheConfig {
                    blocks: 1024,
                    ..LrCacheConfig::default()
                },
                packets_per_lc,
                seed,
                ..SimConfig::default()
            };
            // The conventional router cannot drain a saturated link
            // (its FE is slower than the mean arrival gap), so it gets
            // a fixed open-loop window instead of a run to completion.
            let window = match kind {
                RouterKind::Conventional => Some(packets_per_lc as u64 * speed.mean_gap() as u64),
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
                let name = format!(
                    "{}-{}-{}",
                    kind_label(kind),
                    speed_label(speed),
                    if engine == EngineMode::Naive {
                        "naive"
                    } else {
                        "fast"
                    }
                );
                pps[slot] = packets / wall;
                let cycles_per_sec = report.cycles as f64 / wall;
                let wall_ms = wall * 1e3;
                println!(
                    "  {name:28} {:>10.0} packets/s {cycles_per_sec:>12.0} cycles/s \
                     {wall_ms:>9.2} ms",
                    pps[slot]
                );
                let row = format!(
                    "{{\"benchmark\": \"sim_engine\", \"config\": \"{name}\", \
                     \"packets_per_sec\": {:.1}, \"cycles_per_sec\": {cycles_per_sec:.1}, \
                     \"wall_ms\": {wall_ms:.3}}}",
                    pps[slot]
                );
                rows.push(stamp(&row, 1));
            }
            // The 2× speedup contract applies to the low-load configs;
            // saturated ones (Conventional at any speed, anything at
            // 40 Gbps) are event-bound and only need to not regress.
            let low_load = speed == LcSpeed::Gbps10 && kind != RouterKind::Conventional;
            let floor = if low_load { 2.0 } else { 0.9 };
            let what = format!("{}-{} fast/naive", kind_label(kind), speed_label(speed));
            gates.floor(&what, pps[1] / pps[0], floor, 1);
        }
    }

    write_array(&out, &rows).expect("writing benchmark JSON");
    println!("wrote {} rows to {out}", rows.len());
    gates.finish();
    Ok(())
}
