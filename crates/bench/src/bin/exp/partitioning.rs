//! **E1 / §4 text** — Partitioning-bit positions and ROT-partition sizes
//! for RT_1 and RT_2 at ψ = 4 and ψ = 16.
//!
//! The paper reports bits {12, 14} (RT_1) / {8, 14} (RT_2) for ψ = 4 and
//! {12, 14, 15, 16} / {11, 13, 14, 16} for ψ = 16 on its exact table
//! snapshots; on the synthetic stand-ins the positions land in the same
//! mid-prefix band (≪ 24, per Criterion 1) and the partitions come out
//! near-equal (Criterion 2).
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- partitioning`

use spal_bench::setup::{rt1, rt2, ExpOptions};
use spal_bench::TablePrinter;
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::{rot_partitions, PartitionStats, Partitioning};

pub fn run(_: &ExpOptions) {
    let tables = [("RT_1", rt1()), ("RT_2", rt2())];
    let mut printer = TablePrinter::new(&[
        "table",
        "psi",
        "bits",
        "min",
        "max",
        "total",
        "overhead",
        "imbalance",
    ]);
    for (name, table) in &tables {
        for psi in [4usize, 16] {
            let eta = eta_for(psi);
            let bits = select_bits(table, eta);
            let part = Partitioning::new(table, bits.clone(), psi);
            let stats = part.stats(table);
            printer.row(&[
                name.to_string(),
                psi.to_string(),
                format!("{bits:?}"),
                stats.min_size.to_string(),
                stats.max_size.to_string(),
                stats.total_with_replication.to_string(),
                format!("{:.1}%", stats.replication_overhead() * 100.0),
                format!("{:.3}", stats.imbalance_ratio()),
            ]);
        }
    }
    println!("E1: partitioning bits and per-LC table sizes (paper Sec. 4)");
    println!(
        "RT_1 = {} prefixes, RT_2 = {} prefixes (synthetic stand-ins)",
        tables[0].1.len(),
        tables[1].1.len()
    );
    printer.print();

    // Raw ROT-partition sizes for the psi=4 cases, like the paper's text.
    for (name, table) in &tables {
        let bits = select_bits(table, 2);
        let parts = rot_partitions(table, &bits);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let stats = PartitionStats::of(table.len(), sizes.iter().copied());
        println!(
            "{name}: bits {bits:?} -> ROT-partition sizes {sizes:?} (max/min {:.3})",
            stats.imbalance_ratio()
        );
    }
    println!();
    println!("Paper (its snapshots): RT_1 bits {{12,14}} / RT_2 bits {{8,14}} at psi=4;");
    println!("RT_1 {{12,14,15,16}} / RT_2 {{11,13,14,16}} at psi=16. Expect the same");
    println!("mid-prefix band (all bits < 24) and near-equal partition sizes here.");
}
