//! **E3 / Fig. 3** — Total SRAM (KB) for the three tries, with (suffix
//! `_S`, SPAL-partitioned, summed over all ψ partitions) and without
//! (`_W`, one whole-table copy per LC × ψ) partitioning, for the four
//! cases {ψ=4, ψ=16} × {RT_1, RT_2}.
//!
//! Fig. 3 is a log-scale bar chart; the series to reproduce: `_W` bars
//! sit roughly ψ× above the corresponding whole-table size, `_S` bars
//! sit near the whole-table size (partitioning splits, replication adds
//! a little), so `_S` ≪ `_W` everywhere, and Lulea < LC < DP in size.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- fig3_sram`

use spal_bench::fmt::kbytes;
use spal_bench::setup::{rt1, rt2, ExpOptions};
use spal_bench::TablePrinter;
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::Partitioning;
use spal_core::{ForwardingTable, LpmAlgorithm};
use spal_lpm::Lpm;

pub fn run(_: &ExpOptions) {
    let algorithms = [
        ("DP", LpmAlgorithm::Dp),
        ("LL", LpmAlgorithm::Lulea),
        ("LC", LpmAlgorithm::Lc),
    ];
    let tables = [("RT_1", rt1()), ("RT_2", rt2())];
    println!(
        "E3 / Fig. 3: total SRAM (KB) across the router, partitioned (_S) vs whole-per-LC (_W)"
    );
    let mut printer = TablePrinter::new(&["case", "DP_S", "DP_W", "LL_S", "LL_W", "LC_S", "LC_W"]);
    for psi in [4usize, 16] {
        for (tname, table) in &tables {
            let bits = select_bits(table, eta_for(psi));
            let part = Partitioning::new(table, bits, psi);
            let partitions = part.forwarding_tables(table);
            let mut cells = vec![format!("psi={psi}, {tname}")];
            for (_, algo) in algorithms {
                let s: usize = partitions
                    .iter()
                    .map(|t| ForwardingTable::build(algo, t).storage_bytes())
                    .sum();
                let w = ForwardingTable::build(algo, table).storage_bytes() * psi;
                cells.push(kbytes(s));
                cells.push(kbytes(w));
            }
            printer.row(&cells);
        }
    }
    printer.print();
    println!();
    println!("Expected shape (paper's log-scale Fig. 3): every _S bar far below its _W bar;");
    println!("the gap grows with psi (the _W series scales with psi, the _S series does not);");
    println!("Lulea (LL) smallest, DP largest.");
}
