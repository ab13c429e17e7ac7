//! **E5 / Fig. 4** — Mean lookup time (cycles) versus the mix value γ
//! (share of each set devoted to REM results) for ψ = 4, β = 4K,
//! 40 Gbps, 40-cycle FE, five traces.
//!
//! Paper's shape: γ = 50 % is best or near-best for every trace; γ = 0 %
//! (no blocks for remote results) is clearly worse because every
//! remote-homed packet must re-cross the fabric.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- fig4_mix`

use spal_bench::setup::{rt2, sweep, ExpOptions};
use spal_cache::LrCacheConfig;
use spal_fabric::FabricModel;
use spal_sim::{RouterKind, SimConfig};

const HEADERS: [&str; 5] = ["trace", "0%", "25%", "50%", "75%"];
const GAMMAS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    let config = |fabric: FabricModel| {
        move |column: usize| SimConfig {
            kind: RouterKind::Spal,
            psi: 4,
            fabric,
            cache: LrCacheConfig {
                blocks: 4096,
                mix_rem_fraction: GAMMAS[column],
                ..LrCacheConfig::default()
            },
            ..SimConfig::default()
        }
    };
    println!(
        "Fig. 4 reproduction: mean lookup time (cycles) vs mix value gamma; psi=4, beta=4K, {} packets/LC",
        opts.packets_per_lc
    );
    println!();
    println!("(a) Faithful 10 ns fabric (2 cycles):");
    let printer = sweep(&table, opts, &HEADERS, config(FabricModel::Crossbar));
    printer.print();
    printer.save_results_csv("fig4_mix_crossbar");
    println!();
    println!("(b) Sensitivity: 100 ns fabric (20 cycles) — remote misses as dear as");
    println!("    local ones, the regime in which the paper's interior optimum appears:");
    let slow = FabricModel::Fixed { cycles: 20 };
    let printer = sweep(&table, opts, &HEADERS, config(slow));
    printer.print();
    printer.save_results_csv("fig4_mix_slow_fabric");
    println!();
    println!("Paper's shape: gamma = 50% best (or nearly best) for every trace. With the");
    println!("2-cycle fabric, remote reloads are so cheap that protecting LOC blocks");
    println!("(gamma = 0) wins by a hair; sweep (b) shows gamma = 50% becoming optimal as");
    println!("the remote path cost approaches the 40-cycle FE cost.");
}
