//! **E13 / §1 claim** — "SPAL may possibly shorten the worst-case lookup
//! time (thanks to fewer memory accesses during longest-prefix matching
//! search)". Two measurements:
//!
//! 1. **Static**: the maximum memory accesses any lookup needs on the
//!    whole-table trie versus the largest ψ=16 partition, per algorithm.
//! 2. **Dynamic**: tail lookup latency (p99/p99.9/max, cycles) of the
//!    cycle simulation under the per-lookup FE cost model, SPAL vs the
//!    conventional router's flat 40-cycle floor.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- worst_case`

use spal_bench::setup::{rt2, sample_covered, sim, ExpOptions};
use spal_bench::TablePrinter;
use spal_cache::LrCacheConfig;
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::Partitioning;
use spal_core::{ForwardingTable, LpmAlgorithm};
use spal_lpm::Lpm;
use spal_rib::RoutingTable;
use spal_sim::{FeServiceModel, RouterKind, SimConfig};
use spal_traffic::PresetName;

fn max_accesses(fwd: &ForwardingTable, table: &RoutingTable, seed: u64) -> u32 {
    let mut worst = 0;
    for addr in sample_covered(table, 30_000, seed) {
        worst = worst.max(fwd.lookup_counted(addr).mem_accesses);
    }
    // Prefix boundaries are where deep searches live.
    for e in table.entries().iter().step_by(7) {
        worst = worst.max(fwd.lookup_counted(e.prefix.first_addr()).mem_accesses);
        worst = worst.max(fwd.lookup_counted(e.prefix.last_addr()).mem_accesses);
    }
    worst
}

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    println!("E13: worst-case lookup, whole table vs largest psi=16 partition (RT_2)");

    let bits = select_bits(&table, eta_for(16));
    let part = Partitioning::new(&table, bits, 16);
    let largest = part
        .forwarding_tables(&table)
        .into_iter()
        .max_by_key(|t| t.len())
        .expect("psi >= 1");

    let mut printer =
        TablePrinter::new(&["trie", "max accesses (whole)", "max accesses (partition)"]);
    for (name, algo) in [
        ("Lulea", LpmAlgorithm::Lulea),
        ("DP", LpmAlgorithm::Dp),
        ("LC(0.25)", LpmAlgorithm::Lc),
    ] {
        let whole = ForwardingTable::build(algo, &table);
        let partn = ForwardingTable::build(algo, &largest);
        printer.row(&[
            name.to_string(),
            max_accesses(&whole, &table, 3).to_string(),
            max_accesses(&partn, &largest, 3).to_string(),
        ]);
    }
    printer.print();

    println!();
    println!(
        "Dynamic tail latency at psi=16, beta=4K, per-lookup FE costs, {} packets/LC:",
        opts.packets_per_lc
    );
    let report = sim(
        &table,
        PresetName::BL,
        opts,
        SimConfig {
            kind: RouterKind::Spal,
            psi: 16,
            fe: FeServiceModel::PerLookup,
            cache: LrCacheConfig::paper(4096),
            ..SimConfig::default()
        },
    );
    println!(
        "SPAL (B_L, worst trace): mean {:.2}, p99 {}, p99.9 {}, max {} cycles",
        report.mean_lookup_cycles(),
        report.latency.quantile(0.99),
        report.latency.quantile(0.999),
        report.latency.max()
    );
    println!(
        "conventional router: every packet >= 40 cycles (plus unbounded queueing at 40 Gbps)."
    );
    println!();
    println!("Reading: the paper hedges ('MAY possibly shorten'). Path-length-bound");
    println!("structures respond to partitioning (DP shrinks); Lulea's worst case is its");
    println!("structural 12-access bound regardless of table size; the LC-trie's depends");
    println!("on how the fill factor plays out on the partition. The robust worst-case win");
    println!("is dynamic: most SPAL lookups never touch an FE at all.");
}
