//! **E10 / §5.2 robustness** — The four speed/lookup-cost cases the
//! paper simulated: {10, 40 Gbps} × {40-cycle (Lulea), 62-cycle (DP)}
//! at ψ = 4, β = 4K, γ = 50 %. The paper reports "a similar trend" in
//! all four and presents only 40 Gbps & 40 cycles; this experiment
//! prints all four so the claim can be checked.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- speed_cases`

use spal_bench::setup::{rt2, sweep, ExpOptions};
use spal_cache::LrCacheConfig;
use spal_core::LpmAlgorithm;
use spal_lpm::model::{DP_FE_CYCLES, LULEA_FE_CYCLES};
use spal_sim::{FeServiceModel, RouterKind, SimConfig};
use spal_traffic::LcSpeed;

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    let cases = [
        (LcSpeed::Gbps10, LULEA_FE_CYCLES, LpmAlgorithm::Lulea),
        (LcSpeed::Gbps10, DP_FE_CYCLES, LpmAlgorithm::Dp),
        (LcSpeed::Gbps40, LULEA_FE_CYCLES, LpmAlgorithm::Lulea),
        (LcSpeed::Gbps40, DP_FE_CYCLES, LpmAlgorithm::Dp),
    ];
    println!(
        "E10: mean lookup time (cycles) across the four speed/FE cases; psi=4, beta=4K, {} packets/LC",
        opts.packets_per_lc
    );
    let headers = ["trace", "10G/40cyc", "10G/62cyc", "40G/40cyc", "40G/62cyc"];
    sweep(&table, opts, &headers, |column| {
        let (speed, fe, algorithm) = cases[column];
        SimConfig {
            kind: RouterKind::Spal,
            psi: 4,
            speed,
            fe: FeServiceModel::Fixed(fe),
            algorithm,
            cache: LrCacheConfig::paper(4096),
            ..SimConfig::default()
        }
    })
    .print();
    println!();
    println!("Paper's claim: all four cases 'follow a similar trend'. Expect 62-cycle");
    println!("columns above their 40-cycle neighbours and 10 Gbps (lighter load) at or");
    println!("below 40 Gbps, with the same trace ordering everywhere.");
}
