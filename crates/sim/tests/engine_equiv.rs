//! Pins the event-horizon fast-forward engine against the naive
//! one-cycle-at-a-time loop: for the same configuration and traces the
//! two must produce **identical** [`SimReport`]s — same latency
//! histogram, same per-LC counters, same fabric statistics, same final
//! cycle — because the fast path only skips cycles in which every phase
//! is provably a no-op.

use spal_cache::LrCacheConfig;
use spal_fabric::FabricModel;
use spal_rib::{synth, RoutingTable};
use spal_sim::{EngineMode, FeServiceModel, RouterKind, RouterSim, SimConfig};
use spal_traffic::{preset, LcSpeed, PresetName, Trace, TracePreset};

fn traces(table: &RoutingTable, n: usize, packets: usize) -> Vec<Trace> {
    let p = TracePreset {
        distinct: 1_200,
        ..preset(PresetName::D75)
    };
    p.generate(table, packets * n, 5).split(n)
}

fn base(kind: RouterKind, psi: usize, speed: LcSpeed) -> SimConfig {
    SimConfig {
        kind,
        psi,
        speed,
        cache: LrCacheConfig {
            blocks: 512,
            ..LrCacheConfig::default()
        },
        packets_per_lc: 2_000,
        seed: 11,
        ..SimConfig::default()
    }
}

/// Run `cfg` to completion under both engines and demand identical
/// reports.
fn assert_run_equiv(table: &RoutingTable, streams: &[Trace], cfg: SimConfig) {
    let fast = RouterSim::new(
        table,
        streams,
        SimConfig {
            engine: EngineMode::FastForward,
            ..cfg.clone()
        },
    )
    .run();
    let naive = RouterSim::new(
        table,
        streams,
        SimConfig {
            engine: EngineMode::Naive,
            ..cfg
        },
    )
    .run();
    assert_eq!(fast, naive);
}

/// Same, but truncated at `cycles` — the jump cap must land the clock on
/// exactly the cycle the naive loop stops at.
fn assert_run_for_equiv(table: &RoutingTable, streams: &[Trace], cfg: SimConfig, cycles: u64) {
    let fast = RouterSim::new(
        table,
        streams,
        SimConfig {
            engine: EngineMode::FastForward,
            ..cfg.clone()
        },
    )
    .run_for(cycles);
    let naive = RouterSim::new(
        table,
        streams,
        SimConfig {
            engine: EngineMode::Naive,
            ..cfg
        },
    )
    .run_for(cycles);
    assert_eq!(fast, naive, "diverged at run_for({cycles})");
}

#[test]
fn spal_crossbar_40g() {
    let rt = synth::small(41);
    let cfg = base(RouterKind::Spal, 4, LcSpeed::Gbps40);
    assert_run_equiv(&rt, &traces(&rt, 4, 2_000), cfg);
}

#[test]
fn spal_crossbar_10g() {
    // 10 Gbps gaps (6–74 cycles) are where fast-forward actually jumps;
    // equivalence here exercises the arrival/FE/fabric event horizon.
    let rt = synth::small(43);
    let cfg = base(RouterKind::Spal, 4, LcSpeed::Gbps10);
    assert_run_equiv(&rt, &traces(&rt, 4, 2_000), cfg);
}

#[test]
fn spal_fixed_fabric_both_speeds() {
    // `exp fig4_mix`'s slow fabric: a 20-cycle transit keeps messages in
    // flight across many fast-forward jumps.
    let rt = synth::small(47);
    for speed in [LcSpeed::Gbps10, LcSpeed::Gbps40] {
        let cfg = SimConfig {
            fabric: FabricModel::Fixed { cycles: 20 },
            ..base(RouterKind::Spal, 4, speed)
        };
        assert_run_equiv(&rt, &traces(&rt, 4, 2_000), cfg);
    }
}

#[test]
fn cache_only_both_speeds() {
    let rt = synth::small(53);
    for speed in [LcSpeed::Gbps10, LcSpeed::Gbps40] {
        let cfg = base(RouterKind::CacheOnly, 2, speed);
        assert_run_equiv(&rt, &traces(&rt, 2, 2_000), cfg);
    }
}

#[test]
fn conventional_10g_completes_identically() {
    // Stable only with an FE faster than the 40-cycle mean gap.
    let rt = synth::small(59);
    let cfg = SimConfig {
        fe: FeServiceModel::Fixed(20),
        ..base(RouterKind::Conventional, 2, LcSpeed::Gbps10)
    };
    assert_run_equiv(&rt, &traces(&rt, 2, 2_000), cfg);
}

#[test]
fn conventional_40g_truncated() {
    // The overloaded conventional router never drains at 40 Gbps; the
    // truncated window must still be cycle-identical.
    let rt = synth::small(61);
    let cfg = base(RouterKind::Conventional, 2, LcSpeed::Gbps40);
    assert_run_for_equiv(&rt, &traces(&rt, 2, 2_000), cfg, 20_000);
}

#[test]
fn flush_boundaries_are_jump_stops() {
    let rt = synth::small(67);
    let streams = traces(&rt, 2, 2_000);
    // Intervals below, at, and far above the typical event spacing —
    // including one that divides nothing evenly.
    for interval in [500u64, 2_048, 7_777, 50_000] {
        let cfg = SimConfig {
            flush_interval_cycles: Some(interval),
            ..base(RouterKind::Spal, 2, LcSpeed::Gbps10)
        };
        assert_run_equiv(&rt, &streams, cfg);
    }
}

#[test]
fn run_for_truncation_matches_at_any_cutoff() {
    let rt = synth::small(71);
    let streams = traces(&rt, 2, 2_000);
    let cfg = base(RouterKind::Spal, 2, LcSpeed::Gbps10);
    // Cutoffs landing mid-lookup, mid-transit, and long past drain.
    for cycles in [1u64, 37, 500, 4_001, 1_000_000] {
        assert_run_for_equiv(&rt, &streams, cfg.clone(), cycles);
    }
}

#[test]
fn per_lookup_fe_model() {
    let rt = synth::small(73);
    let cfg = SimConfig {
        fe: FeServiceModel::PerLookup,
        ..base(RouterKind::Spal, 4, LcSpeed::Gbps10)
    };
    assert_run_equiv(&rt, &traces(&rt, 4, 2_000), cfg);
}

#[test]
fn deep_fe_backlog() {
    // 40 Gbps with a per-lookup-cost FE overloads the engines, so the
    // FE queues stay deep for the whole run; both engines must still
    // agree cycle for cycle.
    let rt = synth::small(89);
    let streams = traces(&rt, 2, 2_000);
    let cfg = SimConfig {
        fe: FeServiceModel::PerLookup,
        ..base(RouterKind::Conventional, 2, LcSpeed::Gbps40)
    };
    assert_run_for_equiv(&rt, &streams, cfg, 30_000);
}

#[test]
fn early_recording_off() {
    let rt = synth::small(79);
    let cfg = SimConfig {
        early_recording: false,
        ..base(RouterKind::Spal, 4, LcSpeed::Gbps10)
    };
    assert_run_equiv(&rt, &traces(&rt, 4, 2_000), cfg);
}

#[test]
fn single_lc() {
    let rt = synth::small(83);
    let cfg = base(RouterKind::Spal, 1, LcSpeed::Gbps10);
    assert_run_equiv(&rt, &traces(&rt, 1, 2_000), cfg);
}
