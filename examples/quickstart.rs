//! Quickstart: run a 4-LC SPAL dataplane over a synthetic BGP table on
//! its deterministic schedule, send one address from every LC, and read
//! the §3.3 lookup flows off each LC's counters.
//!
//! Run: `cargo run --release --example quickstart`

use spal::cache::LrCacheConfig;
use spal::core::bits::{eta_for, select_bits};
use spal::core::Partitioning;
use spal::dataplane::{run, DataplaneConfig};
use spal::rib::prefix::format_addr;
use spal::rib::synth;
use spal::traffic::Trace;

fn main() {
    // A 10,000-prefix routing table (deterministic; seed 42).
    let table = synth::synthesize(&synth::SynthConfig::sized(10_000, 42));
    println!("routing table: {} prefixes", table.len());

    // The dataplane partitions the table on the bits the Sec. 3.1
    // criteria choose for ψ LCs; the same call here tells us which LC
    // is an address's home.
    let psi = 4;
    let part = Partitioning::new(&table, select_bits(&table, eta_for(psi)), psi);
    println!("partitioning bits: {:?}", part.bits());

    let home = 2;
    let addr = table
        .entries()
        .iter()
        .map(|e| e.prefix.first_addr())
        .find(|&a| part.home_of(a) == home)
        .expect("some address homes at LC 2");
    println!("address {} homes at LC {home}", format_addr(addr));

    // Every LC receives the same address 64 times: two admit batches of
    // 32 packets each.
    let traces: Vec<Trace> = (0..psi)
        .map(|lc| Trace::new(format!("lc{lc}"), vec![addr; 64]))
        .collect();
    let report = run(
        &table,
        &traces,
        &DataplaneConfig {
            workers: psi,
            deterministic: true,
            cache: LrCacheConfig::paper(4096),
            ..Default::default()
        },
    );

    // Per LC: probes of its LR-cache (its own packets' and, at the home
    // LC, the requests it serves) that hit a LOC block (a result its own
    // FE computed), a REM block (a reply from the home LC) or a W-bit
    // waiting block (a lookup already in flight); FE lookups it ran;
    // requests it sent over the fabric; and requests it served as home.
    // Here the home LC's first packet is a local FE lookup, its second
    // batch hits locally, LCs 0 and 1 wait on that one FE lookup, LC 3's
    // request hits the home LC's cache, and each requester's second
    // batch hits the REM block the reply filled.
    println!(
        "\n{:>3} {:>8} {:>8} {:>12} {:>10} {:>15} {:>13}",
        "LC",
        "hits_loc",
        "hits_rem",
        "hits_waiting",
        "fe_lookups",
        "remote_requests",
        "remote_served"
    );
    for w in &report.workers {
        println!(
            "{:>3} {:>8} {:>8} {:>12} {:>10} {:>15} {:>13}",
            w.lc,
            w.cache.hits_loc,
            w.cache.hits_rem,
            w.cache.hits_waiting,
            w.fe_lookups,
            w.remote_requests,
            w.remote_served
        );
    }
    let fe: u64 = report.workers.iter().map(|w| w.fe_lookups).sum();
    println!(
        "\n{} packets across {psi} LCs, {fe} FE lookup(s) in all",
        report.total_packets()
    );
}
