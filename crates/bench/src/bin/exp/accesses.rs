//! **E4 / §5.1 text** — Mean memory accesses per lookup for the three
//! tries over RT_1 and RT_2, and the FE cycle costs they imply under the
//! paper's timing model (12 ns SRAM access + 120 ns code on 5 ns
//! cycles).
//!
//! Paper's measurements on its snapshots: Lulea 6.2 (RT_1) / 6.6 (RT_2)
//! accesses, DP ≈16 accesses for either — hence the 40-cycle and
//! 62-cycle FE models. Shape to reproduce: Lulea ≈ 5–8, DP ≈ 2–3× Lulea,
//! implied cycles ≈ 40 vs ≈ 60.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- accesses`

use spal_bench::setup::{rt1, rt2, sample_covered, ExpOptions};
use spal_bench::TablePrinter;
use spal_core::{ForwardingTable, LpmAlgorithm};
use spal_lpm::model::lookup_cycles;
use spal_lpm::{mean_accesses, Lpm};

pub fn run(_: &ExpOptions) {
    let algorithms = [
        ("Lulea", LpmAlgorithm::Lulea),
        ("DP", LpmAlgorithm::Dp),
        ("LC(0.25)", LpmAlgorithm::Lc),
        ("Binary", LpmAlgorithm::Binary),
        ("DIR-24-8", LpmAlgorithm::Dir24),
    ];
    let tables = [("RT_1", rt1()), ("RT_2", rt2())];
    println!("E4: mean memory accesses per lookup and implied FE cycles (paper Sec. 5.1)");
    let mut printer = TablePrinter::new(&["trie", "table", "mean accesses", "implied FE cycles"]);
    for (tname, table) in &tables {
        let addrs = sample_covered(table, 20_000, 11);
        for (aname, algo) in algorithms {
            let fwd = ForwardingTable::build(algo, table);
            let mean = mean_accesses(&fwd, &addrs);
            printer.row(&[
                aname.to_string(),
                tname.to_string(),
                format!("{mean:.2}"),
                lookup_cycles(mean).to_string(),
            ]);
        }
    }
    printer.print();
    println!();
    println!("Paper: Lulea 6.2/6.6 accesses -> ~40 cycles; DP ~16 accesses -> ~62 cycles.");
    println!("DIR-24-8 [10] runs at memory speed (1-2 accesses) but needs >32 MB per");
    println!("instance (Sec. 2.1) — the memory/speed trade-off SPAL avoids:");
    let d = ForwardingTable::build(LpmAlgorithm::Dir24, &rt2());
    println!(
        "  DIR-24-8 storage for RT_2: {:.1} MB vs Lulea's {:.1} KB",
        d.storage_bytes() as f64 / (1 << 20) as f64,
        ForwardingTable::build(LpmAlgorithm::Lulea, &rt2()).storage_bytes() as f64 / 1024.0
    );
}
