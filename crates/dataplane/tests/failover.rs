//! LC failure with online re-partitioning: the remap protocol's edge
//! cases. An LC dies mid-traffic; the control plane re-homes its
//! ROT-partition groups across the survivors and publishes the new map
//! through the RCU snapshot while packets keep flowing. These tests
//! drive the remap under concurrent churn, verify the targeted
//! invalidation of the remapped range, and inject duplicated/stale
//! replies around the remap — zero oracle divergence in every case.
//!
//! The helpers take the address family as one more input: the remap
//! was written against IPv4 only and reaches IPv6 through the generic
//! runtime, so the `_v6` arms are what prove it works there.

mod common;

use common::Fixture;
use spal_cache::LrCacheConfig;
use spal_dataplane::{
    run, run_family, AddrFamily, ChurnConfig, DataplaneConfig, FailoverPlan, FaultPlan,
    InvalidationMode, V4, V6,
};
use spal_rib::RoutingTable;
use spal_traffic::Trace;

fn setup(psi: usize, packets_per_worker: usize) -> (RoutingTable, Vec<Trace>) {
    setup_family::<V4>(psi, packets_per_worker)
}

fn setup_family<F: Fixture>(
    psi: usize,
    packets_per_worker: usize,
) -> (RoutingTable<F::Addr>, Vec<Trace<F::Addr>>) {
    F::setup(31, 13, 600, psi, packets_per_worker)
}

fn concurrent_churn() -> Option<ChurnConfig> {
    Some(ChurnConfig {
        updates: 600,
        updates_per_publication: 30,
        withdraw_fraction: 0.3,
        pace_us: 0,
    })
}

fn failover_cfg<F: AddrFamily>(
    psi: usize,
    packets: usize,
    deterministic: bool,
) -> DataplaneConfig<F> {
    DataplaneConfig {
        workers: psi,
        deterministic,
        cache: LrCacheConfig::paper(512),
        failover: Some(FailoverPlan {
            lc: 1,
            after_packets: (packets as u64) * 2 / 5,
        }),
        seed: 17,
        ..Default::default()
    }
}

fn assert_no_divergence(report: &spal_dataplane::DataplaneReport) {
    assert_eq!(
        report.oracle_divergence(),
        0,
        "oracle divergence after remap"
    );
    if let Some(churn) = &report.churn {
        assert_eq!(churn.final_mismatches, 0);
    }
}

/// Completion accounting under a failure: every admitted packet either
/// completed or was lost with the victim, and the victim's in-flight
/// work was re-homed rather than leaked.
fn assert_failure_accounting(report: &spal_dataplane::DataplaneReport, psi: usize, packets: usize) {
    let f = report.failover.as_ref().expect("remap ran");
    assert_eq!(f.dead_lc, 1);
    assert!(f.moved_prefixes > 0, "remap moved nothing");
    let lost: u64 = report.workers.iter().map(|w| w.lost_packets).sum();
    assert!(lost > 0, "the victim lost nothing (died after its trace?)");
    assert_eq!(
        report.total_packets(),
        (psi * packets) as u64 - lost,
        "packets leaked or double-counted across the failure"
    );
}

fn deterministic_failover_case<F: Fixture>() {
    let psi = 4;
    let packets = 3_000;
    let (table, traces) = setup_family::<F>(psi, packets);
    let report = run_family::<F>(&table, &traces, &failover_cfg(psi, packets, true));
    assert_no_divergence(&report);
    assert_failure_accounting(&report, psi, packets);
    // Survivors re-routed their in-flight requests to the new homes.
    let rehomed: u64 = report.workers.iter().map(|w| w.rehomed_requests).sum();
    let dead_letters: u64 = report.workers.iter().map(|w| w.dead_letters).sum();
    assert!(
        rehomed + dead_letters > 0,
        "failure at 40% left no in-flight state to migrate"
    );
}

#[test]
fn deterministic_failover_stays_consistent() {
    deterministic_failover_case::<V4>()
}

#[test]
fn deterministic_failover_stays_consistent_v6() {
    deterministic_failover_case::<V6>()
}

#[test]
fn deterministic_failover_is_reproducible() {
    let psi = 3;
    let packets = 2_000;
    let (table, traces) = setup(psi, packets);
    let a = run(&table, &traces, &failover_cfg(psi, packets, true));
    let b = run(&table, &traces, &failover_cfg(psi, packets, true));
    assert_eq!(a.checksum(), b.checksum());
    assert_eq!(a.total_packets(), b.total_packets());
    let fa = a.failover.as_ref().expect("remap ran");
    let fb = b.failover.as_ref().expect("remap ran");
    assert_eq!(fa.moved_prefixes, fb.moved_prefixes);
    assert_eq!(fa.invalidations_per_lc, fb.invalidations_per_lc);
}

/// The hard interleaving: route updates flowing through the log while
/// the remap rewrites the partition map out-of-band. The log must be
/// rebased (remapped prefixes can't be replayed under the old map) and
/// the post-churn oracle must still agree everywhere.
fn remap_under_concurrent_churn_case<F: Fixture>() {
    let psi = 4;
    let packets = 3_000;
    let (table, traces) = setup_family::<F>(psi, packets);
    let mut cfg = failover_cfg(psi, packets, true);
    cfg.churn = concurrent_churn();
    let report = run_family::<F>(&table, &traces, &cfg);
    let churn = report.churn.as_ref().expect("churn ran");
    assert_eq!(churn.updates_applied, 600, "remap stalled the churn feed");
    assert_no_divergence(&report);
    assert_failure_accounting(&report, psi, packets);
}

#[test]
fn remap_under_concurrent_churn_stays_consistent() {
    remap_under_concurrent_churn_case::<V4>()
}

#[test]
fn remap_under_concurrent_churn_stays_consistent_v6() {
    remap_under_concurrent_churn_case::<V6>()
}

/// Targeted mode: survivors evict exactly the remapped prefixes.
fn remap_invalidation_case<F: Fixture>() {
    let psi = 4;
    let packets = 3_000;
    let (table, traces) = setup_family::<F>(psi, packets);
    let targeted = run_family::<F>(&table, &traces, &failover_cfg(psi, packets, true));
    let ft = targeted.failover.as_ref().expect("remap ran");
    assert!(ft.targeted, "remap fell back to full flush");
    assert_eq!(
        ft.invalidations_per_lc, ft.moved_prefixes,
        "targeted remap must invalidate exactly the moved prefixes"
    );
    // No whole-cache flush happened anywhere.
    assert_eq!(
        targeted
            .workers
            .iter()
            .map(|w| w.cache.flushes)
            .sum::<u64>(),
        0
    );
    assert_no_divergence(&targeted);

    // Full-flush mode survives the same failure via one flush instead.
    let mut flush_cfg = failover_cfg(psi, packets, true);
    flush_cfg.invalidation = InvalidationMode::FullFlush;
    let flush = run_family::<F>(&table, &traces, &flush_cfg);
    let ff = flush.failover.as_ref().expect("remap ran");
    assert!(!ff.targeted);
    assert!(
        flush.workers.iter().map(|w| w.cache.flushes).sum::<u64>() > 0,
        "full-flush remap never flushed"
    );
    assert_no_divergence(&flush);
}

#[test]
fn remap_invalidates_only_the_moved_range() {
    remap_invalidation_case::<V4>()
}

#[test]
fn remap_invalidates_only_the_moved_range_v6() {
    remap_invalidation_case::<V6>()
}

/// Everything at once at 128 bits — the standard adversary (seeds 11,
/// 42, 1337), an LC death mid-trace, churn flowing through the remap,
/// and a coherence sweep every 16 rounds. None of fault injection,
/// failover or sweeps was ever written for IPv6.
#[test]
fn faulted_failover_with_sweeps_stays_coherent_v6() {
    let psi = 4;
    let packets = 3_000;
    let (table, traces) = setup_family::<V6>(psi, packets);
    for seed in [11, 42, 1337] {
        let mut cfg = failover_cfg::<V6>(psi, packets, true);
        cfg.churn = concurrent_churn();
        cfg.faults = Some(FaultPlan::standard(seed));
        cfg.sweep_every = 16;
        let report = run_family::<V6>(&table, &traces, &cfg);
        assert_no_divergence(&report);
        assert_failure_accounting(&report, psi, packets);
        let victim = &report.workers[1];
        assert!(victim.lost_packets > 0, "seed {seed}: victim lost nothing");
        let sweeps = report.sweeps.as_ref().expect("sweep_every was set");
        assert!(
            sweeps.sweeps > 0 && sweeps.entries_checked > 0,
            "seed {seed}"
        );
        assert_eq!(sweeps.mismatches, 0, "seed {seed}: mid-run sweep diverged");
        let f = report.faults.as_ref().expect("fault plan ran");
        assert!(f.delayed + f.duplicated + f.dropped_retransmitted > 100);
    }
}

#[test]
fn duplicate_and_stale_replies_after_remap_do_not_diverge() {
    // Fault injection around the failure: duplicated replies (a remote
    // fill that raced the remap arrives twice), delayed messages
    // released after the victim's purge, and stalled rings. Version
    // gating plus the dead-letter drop at the outbox must keep every
    // completion correct.
    let psi = 4;
    let packets = 3_000;
    let (table, traces) = setup(psi, packets);
    let mut cfg = failover_cfg(psi, packets, true);
    cfg.faults = Some(FaultPlan {
        seed: 0xDEAD_BEEF,
        delay_per_mille: 60,
        drop_per_mille: 15,
        dup_per_mille: 40,
        stall_per_mille: 10,
        forced_publication_per_mille: 5,
        max_delay_iters: 4,
        retransmit_delay_iters: 6,
    });
    cfg.churn = Some(ChurnConfig {
        updates: 400,
        updates_per_publication: 20,
        withdraw_fraction: 0.3,
        pace_us: 0,
    });
    let report = run(&table, &traces, &cfg);
    assert_no_divergence(&report);
    assert_failure_accounting(&report, psi, packets);
    let dups: u64 = report.workers.iter().map(|w| w.duplicate_replies).sum();
    assert!(dups > 0, "fault plan injected no duplicate replies");
}

/// Threaded, with and without an update stream: the control loop must
/// remap whether the victim dies mid-stream or while it only watches.
#[test]
fn threaded_failover_stays_consistent() {
    let psi = 4;
    let packets = 20_000;
    let (table, traces) = setup(psi, packets);
    let churn = ChurnConfig {
        updates: 400,
        updates_per_publication: 20,
        withdraw_fraction: 0.3,
        pace_us: 50,
    };
    for churn in [None, Some(churn)] {
        let mut cfg = failover_cfg(psi, packets, false);
        cfg.churn = churn;
        let report = run(&table, &traces, &cfg);
        assert_no_divergence(&report);
        report.failover.as_ref().expect("remap ran");
        let lost: u64 = report.workers.iter().map(|w| w.lost_packets).sum();
        assert_eq!(report.total_packets(), (psi * packets) as u64 - lost);
    }
}
