//! **E14 / §2.1 & ref 15 context** — The stride trade-off behind every
//! multibit structure: "the number of bits inspected at each time (called
//! the stride) affects the search speed and the memory amount needed for
//! keeping the trie". Sweeps fixed-stride CPE tries over RT_2 and places
//! the paper's structures (Lulea = compressed 16/8/8, DIR-24-8 = 24/8 in
//! hardware, LC-trie = adaptive strides) on the same axes.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- strides`

use spal_bench::setup::{rt2, sample_covered, ExpOptions};
use spal_bench::TablePrinter;
use spal_core::{ForwardingTable, LpmAlgorithm};
use spal_lpm::model::lookup_cycles;
use spal_lpm::multibit::MultibitTrie;
use spal_lpm::{mean_accesses, Lpm};

pub fn run(_: &ExpOptions) {
    let table = rt2();
    let addrs = sample_covered(&table, 20_000, 5);
    println!(
        "E14: stride vs storage vs speed on RT_2 ({} prefixes)",
        table.len()
    );
    let mut printer = TablePrinter::new(&["structure", "storage KB", "mean accesses", "FE cycles"]);
    // NB: wide second levels (e.g. 16/16) are omitted: tens of thousands
    // of sparse 2^16-slot nodes cost tens of GB — the uncompressed
    // blow-up that motivates Lulea's bitmaps in the first place.
    let stride_sets: [&[u8]; 6] = [
        &[4, 4, 4, 4, 4, 4, 4, 4],
        &[8, 8, 8, 8],
        &[12, 12, 8],
        &[16, 8, 8],
        &[16, 8, 4, 4],
        &[24, 8],
    ];
    for strides in stride_sets {
        let t = MultibitTrie::build(&table, strides);
        let mean = mean_accesses(&t, &addrs);
        printer.row(&[
            format!("CPE {strides:?}"),
            format!("{:.0}", t.storage_bytes() as f64 / 1024.0),
            format!("{mean:.2}"),
            lookup_cycles(mean).to_string(),
        ]);
    }
    for (label, algo) in [
        ("Lulea (compressed 16/8/8)", LpmAlgorithm::Lulea),
        ("LC-trie (adaptive, fill 0.25)", LpmAlgorithm::Lc),
        ("DIR-24-8 (hardware 24/8)", LpmAlgorithm::Dir24),
        ("DP trie (uni-bit, compressed)", LpmAlgorithm::Dp),
    ] {
        let t = ForwardingTable::build(algo, &table);
        let mean = mean_accesses(&t, &addrs);
        printer.row(&[
            label.to_string(),
            format!("{:.0}", t.storage_bytes() as f64 / 1024.0),
            format!("{mean:.2}"),
            lookup_cycles(mean).to_string(),
        ]);
    }
    printer.print();
    println!();
    println!("The ref-[15] trade-off: wider strides buy accesses with memory. Lulea's");
    println!("compression gets 16/8/8 speed at a fraction of the CPE 16/8/8 footprint —");
    println!("why the paper adopts it for the FEs — and partitioning (Sec. 4) shrinks");
    println!("whichever point on this curve you pick by another ~1/psi.");
}
