//! **E6 / Fig. 5** — Mean lookup time (cycles) versus LR-cache size β
//! for ψ = 16, 40 Gbps, 40-cycle FE, five traces; γ = 50 % (25 % at
//! β = 1K, the paper's small-cache rule).
//!
//! Paper's shape: monotone improvement with β; at β = 4K every trace is
//! below 9.2 cycles (> 21 Mpps per LC, > 336 Mpps router-wide).
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- fig5_cache_size`

use spal_bench::setup::{rt2, sweep, ExpOptions};
use spal_cache::LrCacheConfig;
use spal_sim::{RouterKind, SimConfig};

const BETAS: [usize; 4] = [1024, 2048, 4096, 8192];

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    println!(
        "Fig. 5 reproduction: mean lookup time (cycles) vs LR-cache size; psi=16, {} packets/LC",
        opts.packets_per_lc
    );
    let printer = sweep(&table, opts, &["trace", "1K", "2K", "4K", "8K"], |column| {
        SimConfig {
            kind: RouterKind::Spal,
            psi: 16,
            cache: LrCacheConfig::paper(BETAS[column]),
            ..SimConfig::default()
        }
    });
    printer.print();
    printer.save_results_csv("fig5_cache_size");
    println!();
    println!("Paper's shape: larger beta => shorter lookups; at beta=4K all traces");
    println!("below 9.2 cycles, i.e. beyond 21 Mpps per LC (336 Mpps at psi=16).");
}
