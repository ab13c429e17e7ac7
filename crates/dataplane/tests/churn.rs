//! Dataplane correctness under BGP churn: RCU publication, incremental
//! apply with its rebuild fallback, and targeted vs full-flush cache
//! invalidation.

use spal_cache::LrCacheConfig;
use spal_core::LpmAlgorithm;
use spal_dataplane::{run, run6, ChurnConfig, Dataplane6Config, DataplaneConfig, InvalidationMode};
use spal_rib::v6::synthesize6_dfz;
use spal_rib::{synth, RoutingTable};
use spal_traffic::{generate6, preset, PresetName, Trace, TracePreset};

fn setup(psi: usize, packets_per_worker: usize) -> (RoutingTable, Vec<Trace>) {
    let table = synth::small(21);
    let p = TracePreset {
        distinct: 600,
        ..preset(PresetName::D75)
    };
    let traces = p.generate(&table, psi * packets_per_worker, 9).split(psi);
    (table, traces)
}

fn churn_cfg(psi: usize, deterministic: bool) -> DataplaneConfig {
    DataplaneConfig {
        workers: psi,
        deterministic,
        cache: LrCacheConfig::paper(512),
        churn: Some(ChurnConfig {
            updates: 600,
            updates_per_publication: 30,
            withdraw_fraction: 0.3,
            pace_us: 50,
        }),
        seed: 3,
        ..Default::default()
    }
}

#[test]
fn deterministic_churn_stays_consistent() {
    let (table, traces) = setup(4, 3_000);
    let report = run(&table, &traces, &churn_cfg(4, true));
    let churn = report.churn.as_ref().expect("churn ran");
    assert_eq!(churn.updates_applied, 600);
    assert!(
        churn.publications >= 20,
        "publications: {}",
        churn.publications
    );
    assert_eq!(
        churn.final_mismatches, 0,
        "published table diverged from RIB"
    );
    assert!(churn.final_checks >= 1_000);
    assert_eq!(report.spot_check_mismatches(), 0);
    assert_eq!(report.total_packets(), 4 * 3_000);
    // Targeted mode actually evicted covered entries somewhere.
    let invalidations: u64 = report.workers.iter().map(|w| w.cache.invalidations).sum();
    assert!(invalidations > 0, "no targeted invalidations happened");
}

#[test]
fn deterministic_churn_is_reproducible() {
    let (table, traces) = setup(2, 1_500);
    let a = run(&table, &traces, &churn_cfg(2, true));
    let b = run(&table, &traces, &churn_cfg(2, true));
    assert_eq!(a.checksum(), b.checksum());
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.cache, wb.cache, "lc {} cache stats differ", wa.lc);
        assert_eq!(wa.stale_replies, wb.stale_replies);
    }
}

#[test]
fn full_flush_and_targeted_invalidation_both_stay_consistent() {
    let (table, traces) = setup(4, 3_000);
    let mut flush_cfg = churn_cfg(4, true);
    flush_cfg.invalidation = InvalidationMode::FullFlush;
    let flush = run(&table, &traces, &flush_cfg);
    let targeted = run(&table, &traces, &churn_cfg(4, true));

    for r in [&flush, &targeted] {
        let churn = r.churn.as_ref().expect("churn ran");
        assert_eq!(churn.final_mismatches, 0);
        assert_eq!(r.spot_check_mismatches(), 0);
    }
    let flushes: u64 = flush.workers.iter().map(|w| w.cache.flushes).sum();
    assert!(flushes > 0, "full-flush mode never flushed");
    assert_eq!(
        targeted
            .workers
            .iter()
            .map(|w| w.cache.flushes)
            .sum::<u64>(),
        0,
        "targeted mode must not whole-cache flush"
    );
    // Keeping uncovered entries across publications can only help.
    assert!(
        targeted.hit_rate() >= flush.hit_rate(),
        "targeted {} < full-flush {}",
        targeted.hit_rate(),
        flush.hit_rate()
    );
}

#[test]
fn compressed_engine_churn_is_patched_or_rebuilt() {
    // Poptrie patches the touched stems through `apply_delta`, so no
    // publication of this stream needs a whole-fragment rebuild. Lulea
    // has no patch path: the trait default declines every apply and
    // the control plane rebuilds the LC's fragment instead, once per
    // publication that touches the LC — both snapshot copies then share
    // the rebuilt engine, so the lagging copy never rebuilds it again.
    let (table, traces) = setup(2, 1_500);
    for (algorithm, patches) in [(LpmAlgorithm::Poptrie, true), (LpmAlgorithm::Lulea, false)] {
        let mut cfg = churn_cfg(2, true);
        cfg.algorithm = algorithm;
        cfg.churn = Some(ChurnConfig {
            updates: 120,
            updates_per_publication: 30,
            withdraw_fraction: 0.3,
            pace_us: 0,
        });
        let report = run(&table, &traces, &cfg);
        let churn = report.churn.as_ref().expect("churn ran");
        let label = algorithm.label();
        assert_eq!(churn.updates_applied, 120, "{label}");
        if patches {
            assert!(churn.delta_applies > 0, "{label} never patched");
            assert_eq!(churn.rebuild_applies, 0, "{label} rebuilt");
        } else {
            assert_eq!(churn.delta_applies, 0, "{label} patched");
            assert!(churn.rebuild_applies > 0, "{label} never rebuilt");
        }
        assert_eq!(churn.final_mismatches, 0, "{label}");
        assert_eq!(report.spot_check_mismatches(), 0, "{label}");
    }
}

#[test]
fn declined_patch_falls_back_to_a_fragment_rebuild() {
    // SHIP declines a patch once orphaned arena space passes a third of
    // the arena; the control plane then rebuilds that LC's fragment
    // from its RIB. Three publications is the shortest stream on which
    // the rule fires (two end with every apply patched).
    let table = synthesize6_dfz(3_000, 21);
    let traces = generate6(&table, 600, 2 * 1_500, 9).split(2);
    let cfg = Dataplane6Config {
        workers: 2,
        deterministic: true,
        cache: LrCacheConfig::paper(512),
        churn: Some(ChurnConfig {
            updates: 90,
            updates_per_publication: 30,
            withdraw_fraction: 0.3,
            pace_us: 0,
        }),
        seed: 3,
        ..Default::default()
    };
    let report = run6(&table, &traces, &cfg);
    let churn = report.churn.as_ref().expect("churn ran");
    assert_eq!(churn.updates_applied, 90);
    assert!(churn.rebuild_applies > 0, "SHIP never declined a patch");
    assert!(churn.delta_applies > 0);
    assert_eq!(churn.final_mismatches, 0);
    assert_eq!(report.spot_check_mismatches(), 0);
}

#[test]
fn threaded_churn_stays_consistent() {
    let (table, traces) = setup(4, 4_000);
    let report = run(&table, &traces, &churn_cfg(4, false));
    let churn = report.churn.as_ref().expect("churn ran");
    assert_eq!(churn.final_mismatches, 0);
    assert_eq!(report.spot_check_mismatches(), 0);
    assert_eq!(report.total_packets(), 4 * 4_000);
    assert!(churn.publications > 0);
    assert!(churn.apply_us.mean_us() > 0.0);
}
