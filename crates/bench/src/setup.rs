//! Common experiment setup: the two routing tables, per-LC trace
//! streams, and command-line options shared by every experiment binary.

use crate::args::{ArgError, Args};
use spal_rib::{synth, RoutingTable};
use spal_traffic::{preset, PresetName, Trace};

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

/// Options every experiment binary accepts, and the only ones:
/// `--quick` (30k packets/LC instead of 300k, for smoke runs),
/// `--packets N` (explicit override), `--seed N`, and `--rt1`
/// (simulate over the RT_1 stand-in instead of RT_2 — the paper reports
/// "a similar trend" for both and shows only RT_2). The binaries that
/// simulate nothing parse them too: `run_experiments.sh` hands every
/// binary the same flags, and a misspelled one must not run the
/// default tier silently.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Packets per LC per simulation.
    pub packets_per_lc: usize,
    /// Base seed.
    pub seed: u64,
    /// Use RT_1 instead of RT_2 for simulations.
    pub use_rt1: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            packets_per_lc: 300_000,
            seed: 1,
            use_rt1: false,
        }
    }
}

impl ExpOptions {
    /// Parse this process's command line; an unknown flag or a
    /// malformed value is reported and exits 1.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let args = Args::parse(raw)?;
        args.expect_only(&["quick", "rt1", "packets", "seed"])?;
        let default = ExpOptions::default();
        let packets_per_lc = if args.has("quick") {
            30_000
        } else {
            default.packets_per_lc
        };
        Ok(ExpOptions {
            packets_per_lc: args.get_or("packets", packets_per_lc)?,
            seed: args.get_or("seed", default.seed)?,
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
