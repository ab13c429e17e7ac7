//! Simulation configuration.

use spal_cache::LrCacheConfig;
use spal_core::LpmAlgorithm;
use spal_fabric::FabricModel;
use spal_lpm::model::{lookup_cycles, LULEA_FE_CYCLES};
use spal_traffic::LcSpeed;

/// Which router design the simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The full SPAL design: partitioned tables, LR-caches, home-LC
    /// result sharing over the fabric.
    Spal,
    /// Ref \[6\]-style: whole table + LR-cache at every LC, no
    /// partitioning, no sharing — the paper's "ψ-independent" comparison
    /// point in Fig. 6.
    CacheOnly,
    /// A conventional router: whole table at every LC, no caches.
    Conventional,
}

/// How the simulator's clock advances.
///
/// Both modes produce bit-identical reports: the fast-forward engine
/// only skips cycles in which, by construction, no line card, forwarding
/// engine, fabric port or cache-flush timer has anything to do. The
/// naive mode is kept as the executable specification the equivalence
/// suite pins the fast path against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Event-horizon fast-forward: whenever the router is globally
    /// quiescent, jump the clock straight to the earliest next event
    /// (packet arrival, FE completion, fabric delivery, or cache-flush
    /// boundary).
    #[default]
    FastForward,
    /// Advance one cycle at a time, evaluating every phase every cycle.
    Naive,
}

/// How long a forwarding-engine lookup takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeServiceModel {
    /// Fixed cost in cycles (§5.1 uses 40 for the Lulea trie and 62 for
    /// the DP trie).
    Fixed(u32),
    /// Charge the actual per-lookup memory accesses through the paper's
    /// timing model (12 ns/access + 120 ns code on 5 ns cycles) — an
    /// ablation that removes the fixed-cost approximation.
    PerLookup,
}

impl FeServiceModel {
    /// Cost in cycles of a lookup that performed `accesses` memory
    /// accesses.
    pub fn cycles(self, accesses: u32) -> u32 {
        match self {
            FeServiceModel::Fixed(c) => c,
            FeServiceModel::PerLookup => lookup_cycles(accesses as f64).max(1),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Router design under test.
    pub kind: RouterKind,
    /// Number of line cards ψ.
    pub psi: usize,
    /// LC link speed (sets the §5.1 arrival process).
    pub speed: LcSpeed,
    /// FE lookup-cost model.
    pub fe: FeServiceModel,
    /// LPM algorithm each FE runs (results are always exact; `fe` decides
    /// the charged time).
    pub algorithm: LpmAlgorithm,
    /// LR-cache configuration (ignored for [`RouterKind::Conventional`]).
    pub cache: LrCacheConfig,
    /// Fabric topology (ignored unless [`RouterKind::Spal`]).
    pub fabric: FabricModel,
    /// Packets generated per LC (§5.1 uses 300,000).
    pub packets_per_lc: usize,
    /// Early cache-block recording (§3.2): reserve a W-bit entry at miss
    /// time so same-address followers wait instead of re-issuing work.
    /// Disabling it is an ablation: duplicate requests then reach the FE
    /// and the fabric.
    pub early_recording: bool,
    /// Simulate routing-table updates: flush every LR-cache each
    /// interval (§3.2: "all entries in every LR-cache are flushed after
    /// each table update"; §5.1 cites 20–100 updates/s, i.e. one per
    /// 10–50 ms = 2M–10M cycles). `None` = no updates during the run,
    /// the paper's default of one 300k-packet window per update.
    pub flush_interval_cycles: Option<u64>,
    /// RNG seed for arrivals and random replacement.
    pub seed: u64,
    /// Clock-advance strategy. [`EngineMode::FastForward`] (the default)
    /// and [`EngineMode::Naive`] are report-identical; the switch exists
    /// so the equivalence suite and `bench_gate`'s simulator gate can run
    /// the naive engine as their reference.
    pub engine: EngineMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            kind: RouterKind::Spal,
            psi: 16,
            speed: LcSpeed::Gbps40,
            fe: FeServiceModel::Fixed(LULEA_FE_CYCLES),
            algorithm: LpmAlgorithm::Lulea,
            cache: LrCacheConfig::paper(4096),
            fabric: FabricModel::Crossbar,
            packets_per_lc: 300_000,
            early_recording: true,
            flush_interval_cycles: None,
            seed: 1,
            engine: EngineMode::FastForward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_service_model() {
        let lulea = FeServiceModel::Fixed(LULEA_FE_CYCLES);
        assert_eq!(lulea.cycles(999), LULEA_FE_CYCLES);
        assert_eq!(lulea.cycles(1), LULEA_FE_CYCLES);
    }

    #[test]
    fn per_lookup_service_model() {
        // 6.6 accesses → ≈40 cycles; 16 accesses → ≈62 cycles.
        assert_eq!(FeServiceModel::PerLookup.cycles(7), 41);
        assert_eq!(FeServiceModel::PerLookup.cycles(16), 62);
        // Never zero.
        assert!(FeServiceModel::PerLookup.cycles(0) >= 1);
    }

    #[test]
    fn default_matches_paper_headline_case() {
        let c = SimConfig::default();
        assert_eq!(c.psi, 16);
        assert_eq!(c.cache.blocks, 4096);
        assert_eq!(c.fe, FeServiceModel::Fixed(LULEA_FE_CYCLES));
        assert_eq!(c.packets_per_lc, 300_000);
        assert_eq!(c.engine, EngineMode::FastForward);
    }
}
