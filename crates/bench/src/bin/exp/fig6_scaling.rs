//! **E7 / Fig. 6** — Mean lookup time (cycles) versus ψ (number of LCs)
//! under β = 4K blocks and γ = 50 %, 40 Gbps LCs, 40-cycle FE (Lulea),
//! for the five trace presets. The paper's headline scaling figure: a
//! larger ψ lowers the mean lookup time for every trace.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- fig6_scaling`
//! (`--quick` for a 30k-packet smoke run).

use spal_bench::setup::{sweep, ExpOptions};
use spal_cache::LrCacheConfig;
use spal_sim::{RouterKind, SimConfig};

const PSIS: [usize; 6] = [1, 2, 3, 4, 8, 16];

pub fn run(opts: &ExpOptions) {
    let table = opts.table();
    println!(
        "Fig. 6 reproduction: mean lookup time (cycles) vs psi; beta=4K, gamma=50%, 40 Gbps, 40-cycle FE, {} ({} prefixes), {} packets/LC",
        opts.table_label(),
        table.len(),
        opts.packets_per_lc
    );
    let headers = [
        "trace", "psi=1", "psi=2", "psi=3", "psi=4", "psi=8", "psi=16",
    ];
    let printer = sweep(&table, opts, &headers, |column| SimConfig {
        kind: RouterKind::Spal,
        psi: PSIS[column],
        cache: LrCacheConfig::paper(4096),
        ..SimConfig::default()
    });
    printer.print();
    // The RT_2 run owns `fig6_scaling.csv`; E7b's `--rt1` run writes
    // beside it instead of over it.
    printer.save_results_csv(if opts.use_rt1 {
        "fig6_scaling_rt1"
    } else {
        "fig6_scaling"
    });
    println!();
    println!("Paper's shape: monotone decrease with psi for every trace;");
    println!("e.g. L_92-0 drops from >6 cycles (psi=1) to <3 cycles (psi=16),");
    println!("a >2x speedup from finer fragmentation (Sec. 5.2).");
}
