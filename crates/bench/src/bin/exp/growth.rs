//! **E15 / §1 scalability claim** — "It takes no specific traffic into
//! consideration when selecting the partitioning bits, promising good
//! scalability". Concretely: bits chosen for today's table should keep
//! the partitions balanced as the BGP table grows (the paper opens with
//! the table-growth problem). We select bits on a table, grow it through
//! announce-heavy update churn in steps, and track partition balance
//! with the *frozen* bits versus freshly reselected ones.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- growth`

use spal_bench::{ExpOptions, TablePrinter};
use spal_core::bits::{eta_for, select_bits};
use spal_core::partition::Partitioning;
use spal_rib::updates::{apply, update_stream, UpdateStreamConfig};
use spal_rib::{synth, RoutingTable};

pub fn run(_: &ExpOptions) {
    let psi = 16;
    let start = synth::synthesize(&synth::SynthConfig::sized(80_000, 0xBEEF));
    let frozen_bits = select_bits(&start, eta_for(psi));
    println!(
        "E15: partition balance under table growth; psi={psi}, bits frozen at 80k prefixes: {frozen_bits:?}"
    );

    let mut printer = TablePrinter::new(&[
        "prefixes",
        "frozen bits max/min",
        "frozen overhead",
        "fresh bits",
        "fresh max/min",
    ]);
    let mut table: RoutingTable = start;
    let mut seed = 1u64;
    for step in 0..=4 {
        if step > 0 {
            // ~20k net new announcements per step (announce-heavy churn).
            let (updates, _) = update_stream(
                &table,
                &UpdateStreamConfig {
                    count: 45_000,
                    withdraw_fraction: 0.25,
                    seed,
                },
            );
            seed += 1;
            for u in updates {
                apply(&mut table, u);
            }
        }
        let frozen = Partitioning::new(&table, frozen_bits.clone(), psi).stats(&table);
        let fresh_bits = select_bits(&table, eta_for(psi));
        let fresh = Partitioning::new(&table, fresh_bits.clone(), psi).stats(&table);
        printer.row(&[
            table.len().to_string(),
            format!("{:.3}", frozen.imbalance_ratio()),
            format!("{:.2}%", frozen.replication_overhead() * 100.0),
            format!("{fresh_bits:?}"),
            format!("{:.3}", fresh.imbalance_ratio()),
        ]);
    }
    printer.print();
    println!();
    println!("The claim holds if the frozen bits' max/min ratio stays near the freshly");
    println!("reselected one as the table grows — bit selection keys on structural");
    println!("prefix statistics that churn moves slowly.");
}
