//! **E2 / §4 text** — Per-partition trie storage for the three LPM
//! structures, RT_1 and RT_2, ψ ∈ {4, 16}, plus the per-LC SRAM savings
//! relative to an unpartitioned router.
//!
//! The paper's reference points (its snapshots): DP trie on RT_1 at
//! ψ = 4 → partitions of 209–220 KB vs 859 KB whole (≥ 638 KB saved per
//! LC); Lulea on RT_1 at ψ = 4 → 87–91 KB vs ≈260 KB whole. Shapes to
//! reproduce: per-LC size ≈ whole/ψ (+ replication), savings always far
//! exceed the 24 KB LR-cache.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- storage`

use spal_bench::fmt::kbytes;
use spal_bench::setup::{rt1, rt2, ExpOptions};
use spal_bench::TablePrinter;
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::Partitioning;
use spal_core::{ForwardingTable, LpmAlgorithm};
use spal_lpm::Lpm;

/// The LR-cache the savings must dominate: 4K blocks × 6 B (§6).
const LR_CACHE_BYTES: usize = 4096 * 6;

pub fn run(_: &ExpOptions) {
    let algorithms = [
        ("DP", LpmAlgorithm::Dp),
        ("Lulea", LpmAlgorithm::Lulea),
        ("LC(0.25)", LpmAlgorithm::Lc),
    ];
    let tables = [("RT_1", rt1()), ("RT_2", rt2())];
    println!("E2: per-LC trie storage after partitioning (paper Sec. 4)");
    let mut printer = TablePrinter::new(&[
        "table",
        "trie",
        "psi",
        "whole KB",
        "min KB",
        "max KB",
        "saving/LC KB",
        "covers LR-cache",
    ]);
    for (tname, table) in &tables {
        for (aname, algo) in algorithms {
            let whole = ForwardingTable::build(algo, table).storage_bytes();
            for psi in [4usize, 16] {
                let bits = select_bits(table, eta_for(psi));
                let part = Partitioning::new(table, bits, psi);
                let sizes: Vec<usize> = part
                    .forwarding_tables(table)
                    .iter()
                    .map(|t| ForwardingTable::build(algo, t).storage_bytes())
                    .collect();
                let min = *sizes.iter().min().expect("psi >= 1");
                let max = *sizes.iter().max().expect("psi >= 1");
                let saving = whole.saturating_sub(max);
                printer.row(&[
                    tname.to_string(),
                    aname.to_string(),
                    psi.to_string(),
                    kbytes(whole),
                    kbytes(min),
                    kbytes(max),
                    kbytes(saving),
                    (saving > LR_CACHE_BYTES).to_string(),
                ]);
            }
        }
    }
    printer.print();
    println!();
    println!(
        "'covers LR-cache' asserts the Sec. 4 conclusion: the per-LC SRAM saving always \
         dwarfs the {} KB LR-cache added by SPAL.",
        LR_CACHE_BYTES / 1024
    );
}
