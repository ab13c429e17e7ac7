//! Parity between the concurrent dataplane and the discrete-event
//! simulator on the metrics that do not depend on timing.
//!
//! The two execution models schedule work differently — the simulator
//! interleaves packets at cycle granularity with a 40-cycle FE service
//! time, while the dataplane admits fixed-size batches — so waiting-hit
//! counts and LOC/REM splits drift slightly. What must agree:
//!
//! * every packet resolves to the same next hop (checksums equal);
//! * the aggregate cache hit rate, and the REM share of complete hits,
//!   land within a small tolerance (batching changes *when* duplicate
//!   addresses coalesce, not *whether* the cache works);
//! * the FE work — lookups run, summed over the LCs — is within 2× either
//!   way (in-flight coalescing differs, the sharing does not).
//!
//! Measured divergence (ψ ∈ {1, 4, 8}, several seeds): hit rate agrees
//! to < 0.001 absolute, REM share to < 0.005. The bounds below leave
//! ~10× headroom over that for future cache/engine tweaks.

use spal_cache::LrCacheConfig;
use spal_dataplane::{run, DataplaneConfig};
use spal_rib::synth;
use spal_sim::{RouterSim, SimConfig};
use spal_traffic::{preset, PresetName, TracePreset};

const HIT_RATE_TOL: f64 = 0.01;
const REM_SHARE_TOL: f64 = 0.03;

fn parity_case(psi: usize, seed: u64) -> (f64, f64, f64, f64) {
    let table = synth::small(17);
    let packets_per_lc = 4_000;
    let p = TracePreset {
        distinct: 500,
        ..preset(PresetName::D75)
    };
    let traces = p.generate(&table, psi * packets_per_lc, seed).split(psi);
    let cache = LrCacheConfig::paper(1024);

    let sim = RouterSim::new(
        &table,
        &traces,
        SimConfig {
            psi,
            packets_per_lc,
            cache: cache.clone(),
            seed,
            ..Default::default()
        },
    )
    .run();

    let dp = run(
        &table,
        &traces,
        &DataplaneConfig {
            workers: psi,
            deterministic: true,
            cache,
            batch: 8, // ≈ packets arriving during one 40-cycle FE service
            seed,
            ..Default::default()
        },
    );

    let sim_fe: u64 = sim.per_lc.iter().map(|l| l.fe_lookups).sum();
    let dp_fe: u64 = dp.workers.iter().map(|w| w.fe_lookups).sum();
    let fe_ratio = dp_fe as f64 / sim_fe as f64;
    assert!(
        (0.5..2.0).contains(&fe_ratio),
        "psi={psi} FE work diverged: sim {sim_fe} vs dataplane {dp_fe}"
    );

    let sim_rem_share = {
        let loc: u64 = sim.per_lc.iter().map(|l| l.cache.hits_loc).sum();
        let rem: u64 = sim.per_lc.iter().map(|l| l.cache.hits_rem).sum();
        if loc + rem == 0 {
            0.0
        } else {
            rem as f64 / (loc + rem) as f64
        }
    };
    (sim.hit_rate(), dp.hit_rate(), sim_rem_share, dp.rem_share())
}

#[test]
fn single_worker_hit_rate_matches_sim() {
    let (sim_hr, dp_hr, _, _) = parity_case(1, 2);
    eprintln!("psi=1: sim hit rate {sim_hr:.4}, dataplane {dp_hr:.4}");
    assert!(
        (sim_hr - dp_hr).abs() < HIT_RATE_TOL,
        "hit-rate divergence: sim {sim_hr:.4} vs dataplane {dp_hr:.4}"
    );
}

#[test]
fn multi_worker_hit_rate_and_rem_share_match_sim() {
    for (psi, seed) in [(4usize, 3u64), (8, 4)] {
        let (sim_hr, dp_hr, sim_rem, dp_rem) = parity_case(psi, seed);
        eprintln!(
            "psi={psi}: hit rate sim {sim_hr:.4} dp {dp_hr:.4} | REM share sim {sim_rem:.4} dp {dp_rem:.4}"
        );
        assert!(
            (sim_hr - dp_hr).abs() < HIT_RATE_TOL,
            "psi={psi} hit-rate divergence: sim {sim_hr:.4} vs dataplane {dp_hr:.4}"
        );
        assert!(
            (sim_rem - dp_rem).abs() < REM_SHARE_TOL,
            "psi={psi} REM-share divergence: sim {sim_rem:.4} vs dataplane {dp_rem:.4}"
        );
    }
}
