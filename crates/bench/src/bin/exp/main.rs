//! **The reproduction driver**: every paper table and figure is one
//! entry of [`EXPERIMENTS`], one sibling module, one `run`.
//!
//! ```text
//! exp <name> [--quick] [--packets N] [--seed N] [--rt1]
//! exp list        the names, one per line, in registry order
//! exp all [...]   every experiment in that order, each under the
//!                 `=== exp_<name> ===` header run_experiments.sh prints
//! ```
//!
//! The flags are [`ExpOptions`]'s and are parsed once, here; an unknown
//! flag or an unknown name exits 1 (the latter printing the registry).
//! `run_experiments.sh` takes its list from `exp list` and is the only
//! author of `results/exp_<name>.txt`.

mod ablations;
mod accesses;
mod fig3_sram;
mod fig4_mix;
mod fig5_cache_size;
mod fig6_scaling;
mod growth;
mod headline;
mod length_partition;
mod mixed_traces;
mod overload;
mod partitioning;
mod range_cache;
mod speed_cases;
mod storage;
mod strides;
mod update_rate;
mod worst_case;

use spal_bench::ExpOptions;

/// Name, paper anchor, entry point.
type Experiment = (&'static str, &'static str, fn(&ExpOptions));

/// The one list of experiments, in the order `exp all` and
/// `run_experiments.sh` run them.
const EXPERIMENTS: &[Experiment] = &[
    ("partitioning", "E1 / §4", partitioning::run),
    ("storage", "E2 / §4", storage::run),
    ("fig3_sram", "E3 / Fig. 3", fig3_sram::run),
    ("accesses", "E4 / §5.1", accesses::run),
    ("fig4_mix", "E5 / Fig. 4", fig4_mix::run),
    ("fig5_cache_size", "E6 / Fig. 5", fig5_cache_size::run),
    ("fig6_scaling", "E7 / Fig. 6", fig6_scaling::run),
    ("headline", "E8 / §1, §5.2", headline::run),
    ("length_partition", "E9 / §2.3", length_partition::run),
    ("speed_cases", "E10 / §5.2", speed_cases::run),
    ("ablations", "§3.2 ablations", ablations::run),
    ("update_rate", "E11 / §3.2, §5.1", update_rate::run),
    ("range_cache", "E12 / §2.2", range_cache::run),
    ("worst_case", "E13 / §1", worst_case::run),
    ("strides", "E14 / §2.1", strides::run),
    ("growth", "E15 / §1", growth::run),
    ("mixed_traces", "E16 / §5.1", mixed_traces::run),
    ("overload", "E17 / §5.2", overload::run),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let opts = ExpOptions::parse(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });
    match name.as_str() {
        "list" => {
            for (name, ..) in EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => {
            for (name, _, run) in EXPERIMENTS {
                println!("=== exp_{name} ===");
                run(&opts);
            }
        }
        _ => match EXPERIMENTS.iter().find(|(known, ..)| *known == name) {
            Some((.., run)) => run(&opts),
            None => {
                eprintln!("error: unknown experiment {name:?}; the experiments are:");
                for (name, anchor, _) in EXPERIMENTS {
                    eprintln!("  {name:18} {anchor}");
                }
                std::process::exit(1)
            }
        },
    }
}
