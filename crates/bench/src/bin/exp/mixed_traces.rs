//! **E16 / §5.1 methodology** — Heterogeneous line cards. The paper
//! derives "one stream for each LC" from *various* traces; this
//! experiment gives each of five LCs a different preset (D_75, D_81,
//! L_92-0, L_92-1, B_L) and reports per-LC mean lookup times, showing
//! how SPAL couples LCs: a poor-locality LC leans on its neighbours'
//! home caches, and its misses load the FEs every LC shares.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- mixed_traces`

use spal_bench::setup::{rt2, ExpOptions};
use spal_bench::TablePrinter;
use spal_cache::LrCacheConfig;
use spal_sim::{RouterKind, RouterSim, SimConfig};
use spal_traffic::{preset, ALL_PRESETS};

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    let psi = ALL_PRESETS.len(); // one LC per preset
    println!(
        "E16: heterogeneous LCs — one preset per LC; psi={psi}, beta=4K, {} packets/LC",
        opts.packets_per_lc
    );
    // Each LC gets its own preset-generated stream (not a split).
    let traces: Vec<_> = ALL_PRESETS
        .iter()
        .map(|&name| {
            preset(name).generate(
                &table,
                opts.packets_per_lc,
                opts.seed ^ name.label().len() as u64,
            )
        })
        .collect();
    let report = RouterSim::new(
        &table,
        &traces,
        SimConfig {
            kind: RouterKind::Spal,
            psi,
            cache: LrCacheConfig::paper(4096),
            packets_per_lc: opts.packets_per_lc,
            seed: opts.seed,
            ..SimConfig::default()
        },
    )
    .run();

    let mut printer = TablePrinter::new(&["LC / trace", "hit rate", "FE lookups", "FE util"]);
    for (lc, name) in ALL_PRESETS.iter().enumerate() {
        let r = &report.per_lc[lc];
        printer.row(&[
            format!("LC{lc} ({})", name.label()),
            format!("{:.3}", r.cache.hit_rate()),
            r.fe_lookups.to_string(),
            format!("{:.3}", r.fe_busy_cycles as f64 / report.cycles as f64),
        ]);
    }
    printer.print();
    println!();
    println!("router-wide: {}", report.summary());
    println!();
    println!("Reading: per-LC hit rates follow each trace's locality, while FE load");
    println!("spreads across all LCs (home lookups are address-determined, not");
    println!("arrival-determined) — the load-sharing §3.3 promises.");
}
