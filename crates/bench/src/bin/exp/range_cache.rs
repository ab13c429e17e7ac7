//! **E12 / §2.2 contrast** — Exact-address LR-caching versus the
//! address-range caching of ref \[6\], and the effect of prefix
//! exceptions.
//!
//! The paper's §2.2 argument: range merging improves coverage only while
//! ranges stay large; backbone tables carry /32 host routes and a growing
//! number of prefix exceptions, which drive the minimum range granularity
//! to 1 and erode the advantage. Traffic here is spatially dense (many
//! hosts per active subnet — the case range caching is built for), and we
//! compare three tables: exception-free (≤ /24 only), RT_2 as-is, and
//! RT_2 with extra host-route exceptions injected into the active
//! subnets.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- range_cache`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spal_bench::setup::{rt2, ExpOptions};
use spal_bench::TablePrinter;
use spal_cache::range::{RangeCache, RangeEntry};
use spal_cache::{LrCache, LrCacheConfig, Origin, ProbeResult};
use spal_core::baseline::{interval_map, interval_of, interval_stats};
use spal_rib::{NextHop, RouteEntry, RoutingTable};
use spal_traffic::locality::LocalityModel;
use spal_traffic::{AddressPool, Trace};

const ENTRIES: usize = 1024;

fn run_case(name: &str, table: &RoutingTable, trace: &Trace, printer: &mut TablePrinter) {
    let map = interval_map(table);
    let stats = interval_stats(&map);

    let mut range: RangeCache<Option<u16>> = RangeCache::new(ENTRIES);
    for &addr in trace.destinations() {
        if range.probe(addr).is_none() {
            let iv = interval_of(&map, addr);
            range.insert(RangeEntry {
                start: iv.start,
                end: iv.end,
                value: iv.next_hop.map(|h| h.0),
            });
        }
    }

    let mut exact: LrCache<Option<NextHop>> = LrCache::new(LrCacheConfig::paper(ENTRIES));
    for &addr in trace.destinations() {
        if matches!(exact.probe(addr), ProbeResult::Miss) {
            let nh = table.longest_match(addr).map(|e| e.next_hop);
            let _ = exact.fill(addr, nh, Origin::Loc);
        }
    }

    printer.row(&[
        name.to_string(),
        stats.count.to_string(),
        stats.min_size.to_string(),
        format!("{:.3}", range.stats().hit_rate()),
        format!("{:.3}", exact.stats().hit_rate()),
    ]);
}

pub fn run(opts: &ExpOptions) {
    let packets = opts.packets_per_lc;
    let full = rt2();
    let clean = RoutingTable::from_entries(
        full.entries()
            .iter()
            .copied()
            .filter(|e| e.prefix.len() <= 24),
    );

    // Spatially dense traffic: 16 hosts per active subnet, 16k distinct.
    let pool = AddressPool::covered_clustered(&clean, 16_384, 16, 41);
    let trace = Trace::generate(
        "dense",
        &pool,
        LocalityModel::ZipfBursty {
            alpha: 1.1,
            burst_prob: 0.35,
        },
        packets,
        42,
    );

    // Exception-heavy variant: a /32 injected next to a share of the
    // active hosts (the "growing number of prefix exceptions" of §2.2).
    let mut rng = StdRng::seed_from_u64(43);
    let mut spiked = full.entries().to_vec();
    for &addr in pool.addresses().iter().step_by(4) {
        spiked.push(RouteEntry {
            prefix: spal_rib::Prefix::new(addr ^ 1, 32).expect("len 32"),
            next_hop: NextHop(rng.gen_range(0..32)),
        });
    }
    let spiked = RoutingTable::from_entries(spiked);

    println!(
        "E12: range caching [6] vs exact LR-caching; {} cache entries, {} packets, dense traffic",
        ENTRIES, packets
    );
    let mut printer = TablePrinter::new(&[
        "table",
        "intervals",
        "min range",
        "range-cache hit",
        "exact-cache hit",
    ]);
    run_case("no exceptions (<=/24)", &clean, &trace, &mut printer);
    run_case("RT_2 as-is", &full, &trace, &mut printer);
    run_case("RT_2 + injected /32s", &spiked, &trace, &mut printer);
    printer.print();
    println!();
    println!("Sec. 2.2's shape: with large ranges (row 1) the range cache's per-entry");
    println!("coverage beats exact caching; exceptions shrink the minimum range to 1 and");
    println!("fragment the hot subnets (row 3), eroding the advantage while the exact");
    println!("LR-cache is unaffected — SPAL's reason for caching single results.");
}
