//! Common experiment setup: the two routing tables, per-LC trace
//! streams, the simulate-and-sweep helpers, and the command-line
//! options shared by every experiment of the `exp` driver.

use crate::args::{ArgError, Args};
use crate::fmt::TablePrinter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spal_rib::{synth, RoutingTable};
use spal_sim::{RouterSim, SimConfig, SimReport};
use spal_traffic::{preset, PresetName, Trace, ALL_PRESETS};

/// Seed fixing the RT_1 stand-in across every experiment.
pub const RT1_SEED: u64 = 0xA11CE;
/// Seed fixing the RT_2 stand-in across every experiment.
pub const RT2_SEED: u64 = 0xB0B;

/// The RT_1 stand-in (41,709 prefixes, §4).
pub fn rt1() -> RoutingTable {
    synth::rt1(RT1_SEED)
}

/// The RT_2 stand-in (140,838 prefixes, §4). All §5.2 simulations use
/// this table, as the paper does.
pub fn rt2() -> RoutingTable {
    synth::rt2(RT2_SEED)
}

/// Generate `psi` per-LC streams of a preset trace: one backbone trace
/// split round-robin, `packets_per_lc` destinations each.
pub fn trace_streams(
    name: PresetName,
    table: &RoutingTable,
    psi: usize,
    packets_per_lc: usize,
    seed: u64,
) -> Vec<Trace> {
    preset(name)
        .generate(table, packets_per_lc * psi, seed)
        .split(psi)
}

/// A traffic-like sample of `n` addresses: uniform over routes, uniform
/// within the matched route (covered traffic, as FEs see after the
/// LR-cache).
pub fn sample_covered(table: &RoutingTable, n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let e = table.entries()[rng.gen_range(0..table.len())];
            e.prefix.first_addr() + (rng.gen::<u64>() % e.prefix.size()) as u32
        })
        .collect()
}

/// One simulation of `preset` over `table`, run to completion: the
/// `cfg.psi` per-LC streams are generated here, and `opts` supplies
/// `packets_per_lc` and `seed` (whatever `cfg` holds for them).
pub fn sim(
    table: &RoutingTable,
    preset: PresetName,
    opts: &ExpOptions,
    cfg: SimConfig,
) -> SimReport {
    let traces = trace_streams(preset, table, cfg.psi, opts.packets_per_lc, opts.seed);
    let cfg = SimConfig {
        packets_per_lc: opts.packets_per_lc,
        seed: opts.seed,
        ..cfg
    };
    RouterSim::new(table, &traces, cfg).run()
}

/// The preset-by-column sweep: one row per trace preset, one column per
/// entry of `headers` after the first (which labels the trace), each
/// cell the mean lookup time in cycles of [`sim`] under `config(column)`
/// (columns count from 0). A row's simulations run concurrently.
pub fn sweep(
    table: &RoutingTable,
    opts: &ExpOptions,
    headers: &[&str],
    config: impl Fn(usize) -> SimConfig + Sync,
) -> TablePrinter {
    let mut printer = TablePrinter::new(headers);
    for name in ALL_PRESETS {
        let jobs = (0..headers.len() - 1)
            .map(|column| {
                let config = &config;
                move || sim(table, name, opts, config(column)).mean_lookup_cycles()
            })
            .collect();
        let mut cells = vec![name.label().to_string()];
        cells.extend(
            parallel_map(jobs)
                .iter()
                .map(|cycles| format!("{cycles:.2}")),
        );
        printer.row(&cells);
    }
    printer
}

/// Options every experiment accepts, and the only ones: `--quick` (30k
/// packets/LC instead of 300k, for smoke runs), `--packets N` (explicit
/// override), `--seed N`, and `--rt1` (simulate over the RT_1 stand-in
/// instead of RT_2 — the paper reports "a similar trend" for both and
/// shows only RT_2). The `exp` driver parses them once, before it
/// dispatches, so an experiment that simulates nothing still rejects a
/// misspelled flag instead of silently running the default tier.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Packets per LC per simulation.
    pub packets_per_lc: usize,
    /// Base seed.
    pub seed: u64,
    /// Use RT_1 instead of RT_2 for simulations.
    pub use_rt1: bool,
}

impl ExpOptions {
    /// Parse the flags of a command line (everything after the
    /// experiment's name); an unknown flag, a malformed value or a
    /// stray positional argument is an error.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let args = Args::parse(raw)?;
        args.expect_only(&["quick", "rt1", "packets", "seed"])?;
        if let Some(stray) = args.positional().first() {
            return Err(ArgError(format!("unexpected argument {stray:?}")));
        }
        let packets_per_lc = if args.has("quick") { 30_000 } else { 300_000 };
        Ok(ExpOptions {
            packets_per_lc: args.get_or("packets", packets_per_lc)?,
            seed: args.get_or("seed", 1)?,
            use_rt1: args.has("rt1"),
        })
    }

    /// The routing table this run simulates over (RT_2 unless `--rt1`).
    pub fn table(&self) -> RoutingTable {
        if self.use_rt1 {
            rt1()
        } else {
            rt2()
        }
    }

    /// Label for the chosen table.
    pub fn table_label(&self) -> &'static str {
        if self.use_rt1 {
            "RT_1"
        } else {
            "RT_2"
        }
    }
}

/// Run `jobs` closures on separate threads (one per job) and collect
/// results in order. Simulations are independent, so this is the one
/// place the harness parallelises.
pub fn parallel_map<T: Send, F: FnOnce() -> T + Send>(jobs: Vec<F>) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|f| scope.spawn(f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_stable() {
        // Small smoke check: generation is deterministic (the full sizes
        // are covered by spal-rib's tests).
        let a = spal_rib::synth::synthesize(&spal_rib::synth::SynthConfig::sized(1000, RT1_SEED));
        let b = spal_rib::synth::synthesize(&spal_rib::synth::SynthConfig::sized(1000, RT1_SEED));
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn options_parse_and_reject_unknown_flags() {
        let parse = |s: &[&str]| ExpOptions::parse(s.iter().map(|x| x.to_string()));
        let o = parse(&["--quick", "--rt1", "--seed", "9"]).unwrap();
        assert_eq!((o.packets_per_lc, o.seed, o.use_rt1), (30_000, 9, true));
        let o = parse(&["--quick", "--packets", "500"]).unwrap();
        assert_eq!(o.packets_per_lc, 500);
        assert_eq!(parse(&[]).unwrap().packets_per_lc, 300_000);
        let err = parse(&["--quik"]).unwrap_err();
        assert!(err.0.contains("--quik"), "{err}");
        assert!(parse(&["--packets", "many"]).is_err());
        assert!(parse(&["headline", "--quick"]).is_err(), "a second name");
    }

    #[test]
    fn sweep_cells_are_the_hand_built_simulations() {
        use spal_cache::LrCacheConfig;
        let table = spal_rib::synth::synthesize(&spal_rib::synth::SynthConfig::sized(1000, 7));
        let opts = ExpOptions {
            packets_per_lc: 2_000,
            seed: 5,
            use_rt1: false,
        };
        let config = |column: usize| SimConfig {
            psi: [2, 4][column],
            cache: LrCacheConfig::paper(1024),
            ..SimConfig::default()
        };
        let csv = sweep(&table, &opts, &["trace", "psi=2", "psi=4"], config).to_csv();
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 1 + ALL_PRESETS.len());
        // Two presets by two columns, each cell rebuilt with nothing
        // shared with the helpers but the inputs.
        for (row, name) in ALL_PRESETS.iter().enumerate().take(2) {
            let cells: Vec<String> = [2usize, 4]
                .iter()
                .map(|&psi| {
                    let traces = preset(*name).generate(&table, 2_000 * psi, 5).split(psi);
                    let report = RouterSim::new(
                        &table,
                        &traces,
                        SimConfig {
                            psi,
                            cache: LrCacheConfig::paper(1024),
                            packets_per_lc: 2_000,
                            seed: 5,
                            ..SimConfig::default()
                        },
                    )
                    .run();
                    format!("{:.2}", report.mean_lookup_cycles())
                })
                .collect();
            assert_eq!(
                rows[1 + row],
                format!("{},{}", name.label(), cells.join(","))
            );
        }
    }

    #[test]
    fn streams_cover_psi() {
        let rt = spal_rib::synth::small(5);
        let streams = trace_streams(PresetName::D75, &rt, 4, 100, 9);
        assert_eq!(streams.len(), 4);
        for s in &streams {
            assert_eq!(s.len(), 100);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = parallel_map(jobs);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }
}
