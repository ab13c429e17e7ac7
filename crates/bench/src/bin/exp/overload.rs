//! **E17 / §5.2 baseline assumptions** — Overload behaviour. The paper
//! compares against a conventional router whose mean lookup time is
//! "200 ns … if the queuing time of the FE is ignored optimistically":
//! at 40 Gbps (a packet every ~10 cycles) an FE that needs 40 cycles per
//! lookup is hopelessly oversubscribed and its queue diverges. This
//! experiment runs both routers open-loop for a fixed horizon and shows
//! the divergence directly — what "ignored optimistically" hides.
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- overload`

use spal_bench::setup::{parallel_map, rt2, trace_streams, ExpOptions};
use spal_bench::TablePrinter;
use spal_cache::LrCacheConfig;
use spal_sim::{RouterKind, RouterSim, SimConfig, SimReport};
use spal_traffic::PresetName;

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    let psi = 4usize;
    let horizon: u64 = 1_500_000; // 7.5 ms of 5 ns cycles
    println!("E17: open-loop behaviour over {horizon} cycles at 40 Gbps, psi={psi}, trace D_75");
    let kinds = [
        ("SPAL", RouterKind::Spal),
        ("cache-only [6]", RouterKind::CacheOnly),
        ("conventional", RouterKind::Conventional),
    ];
    let jobs: Vec<_> = kinds
        .iter()
        .map(|&(_, kind)| {
            let table = &table;
            move || -> SimReport {
                let traces =
                    trace_streams(PresetName::D75, table, psi, opts.packets_per_lc, opts.seed);
                RouterSim::new(
                    table,
                    &traces,
                    SimConfig {
                        kind,
                        psi,
                        cache: LrCacheConfig::paper(4096),
                        packets_per_lc: opts.packets_per_lc,
                        seed: opts.seed,
                        ..SimConfig::default()
                    },
                )
                .run_for(horizon)
            }
        })
        .collect();
    let reports = parallel_map(jobs);

    let offered = (horizon as f64 / 10.0) as u64 * psi as u64; // ~1 packet/10 cycles/LC
    let mut printer = TablePrinter::new(&[
        "router",
        "completed",
        "completion %",
        "mean cycles",
        "max FE queue",
    ]);
    for ((name, _), report) in kinds.iter().zip(&reports) {
        let done = report.latency.count();
        let peak_queue = report
            .per_lc
            .iter()
            .map(|l| l.fe_queue_high_water)
            .max()
            .unwrap_or(0);
        printer.row(&[
            name.to_string(),
            done.to_string(),
            format!(
                "{:.1}%",
                100.0 * done as f64 / offered.min((opts.packets_per_lc * psi) as u64) as f64
            ),
            format!("{:.2}", report.mean_lookup_cycles()),
            peak_queue.to_string(),
        ]);
    }
    printer.print();
    println!();
    println!("Offered load: ~{offered} packets over the horizon (line rate).");
    println!("Expected: SPAL completes essentially everything with a short FE queue;");
    println!("the conventional router's FE (capacity 1 lookup / 40 cycles = 1/4 of the");
    println!("offered rate) completes ~25% and its queue grows without bound — the");
    println!("divergence the paper's 'queuing time ignored optimistically' sidesteps.");
}
