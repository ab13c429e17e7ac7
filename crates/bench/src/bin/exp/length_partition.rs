//! **E9 / §2.3 contrast** — SPAL's bit partitioning versus ref \[1\]'s
//! partition-by-length: per-partition size spread at ψ ∈ {4, 8, 16} on
//! RT_1 and RT_2.
//!
//! The point the paper makes: length classes are wildly unequal (/24
//! alone is ≈ half the table), every FE must keep *all* partitions (so
//! per-LC memory does not shrink with ψ), and no lookup result is
//! shared. SPAL's bit partitions are near-equal and per-LC memory drops
//! as ψ grows.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- length_partition`

use spal_bench::setup::{rt1, rt2, ExpOptions};
use spal_bench::TablePrinter;
use spal_core::baseline::partition_by_length;
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::{PartitionStats, Partitioning};

pub fn run(_: &ExpOptions) {
    let tables = [("RT_1", rt1()), ("RT_2", rt2())];
    println!("E9: SPAL bit partitioning vs partition-by-length (ref [1])");
    let mut printer = TablePrinter::new(&[
        "table",
        "psi",
        "scheme",
        "min",
        "max",
        "max/min",
        "per-LC prefixes",
    ]);
    for (tname, table) in &tables {
        for psi in [4usize, 8, 16] {
            let bits = select_bits(table, eta_for(psi));
            let spal = Partitioning::new(table, bits, psi).stats(table);
            printer.row(&[
                tname.to_string(),
                psi.to_string(),
                "SPAL".to_string(),
                spal.min_size.to_string(),
                spal.max_size.to_string(),
                format!("{:.2}", spal.imbalance_ratio()),
                // Each LC holds ONE partition under SPAL.
                spal.max_size.to_string(),
            ]);
            let parts = partition_by_length(table, psi);
            let len_stats = PartitionStats::of(table.len(), parts.iter().map(|p| p.len()));
            printer.row(&[
                tname.to_string(),
                psi.to_string(),
                "by-length".to_string(),
                len_stats.min_size.to_string(),
                len_stats.max_size.to_string(),
                format!("{:.2}", len_stats.imbalance_ratio()),
                // Ref [1] keeps ALL partitions at each FE.
                table.len().to_string(),
            ]);
        }
    }
    printer.print();
    println!();
    println!("Shape: SPAL max/min stays near 1 and per-LC prefixes shrink ~1/psi;");
    println!("by-length partitions are dominated by the /24 class and each FE still");
    println!("stores the whole table, so per-LC prefixes never shrink.");
}
