//! **Ablations** — the §3.2 design choices DESIGN.md calls out, each
//! toggled independently at ψ = 4, β = 4K, trace D_75:
//!
//! * victim cache (8 blocks vs none),
//! * early cache-block recording (W-bit reservation vs none),
//! * mix-aware replacement (M-bit rule vs plain LRU),
//! * set associativity (1 / 2 / 4 / 8; the paper picks 4),
//! * replacement policy (LRU / FIFO / random).
//!
//! Run: `cargo run --release -p spal-bench --bin exp -- ablations`

use spal_bench::setup::{parallel_map, rt2, sim, ExpOptions};
use spal_bench::TablePrinter;
use spal_cache::{LrCacheConfig, MixMode, ReplacementPolicy};
use spal_sim::{RouterKind, SimConfig};
use spal_traffic::PresetName;

pub fn run(opts: &ExpOptions) {
    let table = rt2();
    let base = LrCacheConfig::paper(4096);
    println!(
        "Ablations at psi=4, beta=4K, trace D_75, {} packets/LC",
        opts.packets_per_lc
    );

    let cases: Vec<(&str, LrCacheConfig, bool)> = vec![
        ("baseline (paper)", base.clone(), true),
        (
            "no victim cache",
            LrCacheConfig {
                victim_blocks: 0,
                ..base.clone()
            },
            true,
        ),
        ("no early recording", base.clone(), false),
        (
            "mix rule off (plain LRU)",
            LrCacheConfig {
                mix_mode: MixMode::Ignore,
                ..base.clone()
            },
            true,
        ),
        (
            "assoc 1",
            LrCacheConfig {
                assoc: 1,
                mix_rem_fraction: 0.0,
                ..base.clone()
            },
            true,
        ),
        // Where the victim cache earns its 8 blocks: conflict misses of a
        // direct-mapped array (at 4-way it is nearly idle, see row 2).
        (
            "assoc 1, no victim",
            LrCacheConfig {
                assoc: 1,
                mix_rem_fraction: 0.0,
                victim_blocks: 0,
                ..base.clone()
            },
            true,
        ),
        (
            "assoc 2",
            LrCacheConfig {
                assoc: 2,
                ..base.clone()
            },
            true,
        ),
        (
            "assoc 8",
            LrCacheConfig {
                assoc: 8,
                ..base.clone()
            },
            true,
        ),
        (
            "FIFO replacement",
            LrCacheConfig {
                policy: ReplacementPolicy::Fifo,
                ..base.clone()
            },
            true,
        ),
        (
            "random replacement",
            LrCacheConfig {
                policy: ReplacementPolicy::Random,
                ..base.clone()
            },
            true,
        ),
    ];

    let jobs: Vec<_> = cases
        .into_iter()
        .map(|(label, cache, early_recording)| {
            let table = &table;
            move || {
                let cfg = SimConfig {
                    kind: RouterKind::Spal,
                    psi: 4,
                    cache,
                    early_recording,
                    ..SimConfig::default()
                };
                (label, sim(table, PresetName::D75, opts, cfg))
            }
        })
        .collect();
    let results = parallel_map(jobs);

    let mut printer = TablePrinter::new(&[
        "variant",
        "mean cycles",
        "hit rate",
        "fabric msgs",
        "FE lookups",
    ]);
    for (label, report) in &results {
        printer.row(&[
            label.to_string(),
            format!("{:.2}", report.mean_lookup_cycles()),
            format!("{:.3}", report.hit_rate()),
            report.fabric.sent.to_string(),
            report
                .per_lc
                .iter()
                .map(|l| l.fe_lookups)
                .sum::<u64>()
                .to_string(),
        ]);
    }
    printer.print();
    println!();
    println!("Expected: the paper's configuration at or near the best mean; assoc 4 ~ assoc 8");
    println!("(diminishing returns, Sec. 3.2); no-early-recording inflates fabric/FE work.");
}
