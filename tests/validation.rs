//! Cross-model validation: independent components must agree with each
//! other — the reuse-distance analysis predicts what the simulated
//! LR-cache measures. (The dataplane's agreement with the cycle
//! simulator is `crates/dataplane/tests/sim_parity.rs`.)

use spal::cache::LrCacheConfig;
use spal::rib::synth;
use spal::sim::{RouterKind, RouterSim, SimConfig};
use spal::traffic::analysis::ReuseProfile;
use spal::traffic::{preset, PresetName, TracePreset};

/// The ψ=1 SPAL simulation's cache hit rate must sit a little below the
/// fully-associative LRU bound the reuse profile predicts (set conflicts
/// cost something; the victim cache recovers most of it).
#[test]
fn simulated_hit_rate_tracks_reuse_distance_prediction() {
    let table = synth::synthesize(&synth::SynthConfig::sized(10_000, 77));
    let p = TracePreset {
        distinct: 6_000,
        ..preset(PresetName::D75)
    };
    let packets = 60_000;
    let trace = p.generate(&table, packets, 5);
    let beta = 2048usize;

    let predicted = ReuseProfile::of(&trace, beta + 1).lru_hit_rate(beta);

    let report = RouterSim::new(
        &table,
        &[trace],
        SimConfig {
            kind: RouterKind::Spal,
            psi: 1,
            cache: LrCacheConfig {
                blocks: beta,
                ..LrCacheConfig::default()
            },
            packets_per_lc: packets,
            seed: 5,
            ..SimConfig::default()
        },
    )
    .run();
    let measured = report.hit_rate();

    assert!(
        measured <= predicted + 0.01,
        "set-associative cache cannot beat the fully-associative LRU bound: \
         measured {measured:.4} vs predicted {predicted:.4}"
    );
    assert!(
        measured >= predicted - 0.05,
        "4-way + victim should stay within a few points of the bound: \
         measured {measured:.4} vs predicted {predicted:.4}"
    );
}
