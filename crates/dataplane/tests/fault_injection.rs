//! The fault suite: the dataplane under a deterministic, seed-driven
//! adversary that drops (retransmits), delays and duplicates fabric
//! messages, stalls workers mid-batch, and forces snapshot swaps at
//! adversarial schedule points — all while the oracle machinery checks
//! every delivered lookup against the scalar full-table lookup.
//!
//! CI runs this suite with three fixed seeds (11, 42, 1337). A failure
//! replays exactly: the whole run is a function of the config and the
//! plan seed.
//!
//! The helpers take the address family as one more input; the two
//! oracle tests run at both widths, the rest (mode and window
//! mechanics, which never look at an address) at IPv4.

mod common;

use common::Fixture;
use spal_cache::LrCacheConfig;
use spal_dataplane::{
    run, run_family, AddrFamily, ChurnConfig, DataplaneConfig, FaultPlan, IN_FLIGHT_WINDOW_BATCHES,
    V4, V6,
};
use spal_rib::RoutingTable;
use spal_traffic::Trace;

const SEEDS: [u64; 3] = [11, 42, 1337];

fn setup(psi: usize, packets_per_worker: usize) -> (RoutingTable, Vec<Trace>) {
    setup_distinct(psi, packets_per_worker, 600)
}

fn setup_distinct(
    psi: usize,
    packets_per_worker: usize,
    distinct: usize,
) -> (RoutingTable, Vec<Trace>) {
    V4::setup(21, 9, distinct, psi, packets_per_worker)
}

fn fault_cfg<F: AddrFamily>(psi: usize, seed: u64, churn: bool) -> DataplaneConfig<F> {
    DataplaneConfig {
        workers: psi,
        deterministic: true,
        cache: LrCacheConfig::paper(512),
        churn: churn.then_some(ChurnConfig {
            updates: 400,
            updates_per_publication: 25,
            withdraw_fraction: 0.3,
            pace_us: 0,
        }),
        seed: 3,
        faults: Some(FaultPlan::standard(seed)),
        ..Default::default()
    }
}

fn oracle_checksum<F: AddrFamily>(
    table: &RoutingTable<F::Addr>,
    traces: &[Trace<F::Addr>],
) -> (u64, u64) {
    let mut packets = 0u64;
    let mut sum = 0u64;
    for t in traces {
        for &addr in t.destinations() {
            packets += 1;
            sum = sum.wrapping_add(
                table
                    .longest_match(addr)
                    .map(|e| e.next_hop.0 as u64 + 1)
                    .unwrap_or(0),
            );
        }
    }
    (packets, sum)
}

/// Every fault class must actually have fired, or the run proved
/// nothing.
fn assert_adversary_fired(report: &spal_dataplane::DataplaneReport, seed: u64) {
    let f = report.faults.as_ref().expect("fault plan ran");
    assert_eq!(f.seed, seed);
    assert!(f.delayed > 0, "seed {seed}: no message was delayed");
    assert!(
        f.dropped_retransmitted > 0,
        "seed {seed}: no message was dropped"
    );
    assert!(f.duplicated > 0, "seed {seed}: no message was duplicated");
    assert!(f.stalls > 0, "seed {seed}: no worker ever stalled");
    assert!(
        f.forced_publications > 0,
        "seed {seed}: no forced snapshot swap"
    );
    assert!(
        f.duplicate_replies > 0,
        "seed {seed}: duplicates never reached a receiver as replies"
    );
}

/// Static table: faults reorder and duplicate work but the per-packet
/// results are a pure function of the table, so the checksum must equal
/// the scalar oracle exactly — nothing lost, nothing double-counted.
fn static_table_case<F: Fixture>() {
    let (table, traces) = F::setup(21, 9, 600, 4, 3_000);
    let (packets, sum) = oracle_checksum::<F>(&table, &traces);
    for seed in SEEDS {
        let report = run_family::<F>(&table, &traces, &fault_cfg(4, seed, false));
        assert_eq!(report.total_packets(), packets, "seed {seed}");
        assert_eq!(report.checksum(), sum, "seed {seed}: checksum diverged");
        assert_eq!(report.oracle_divergence(), 0, "seed {seed}");
        assert_adversary_fired(&report, seed);
    }
}

/// Churn + faults: delayed/duplicated replies race real invalidations
/// and forced epoch bumps. Spot checks, the control plane's final table
/// samples, and the post-quiesce coherence sweep must all stay clean.
fn churn_case<F: Fixture>() {
    let (table, traces) = F::setup(21, 9, 600, 4, 3_000);
    for seed in SEEDS {
        let report = run_family::<F>(&table, &traces, &fault_cfg(4, seed, true));
        assert_eq!(report.total_packets(), 4 * 3_000, "seed {seed}");
        assert_eq!(
            report.oracle_divergence(),
            0,
            "seed {seed}: {}",
            report.fault_summary()
        );
        let churn = report.churn.as_ref().expect("churn ran");
        assert_eq!(churn.updates_applied, 400, "seed {seed}");
        let coh = report.coherence.expect("deterministic run sweeps");
        assert!(coh.entries_checked > 0, "seed {seed}: empty sweep");
        assert_eq!(coh.mismatches, 0, "seed {seed}: stale cache entries");
        assert_adversary_fired(&report, seed);
        // The adversary actually exercised the stale-reply gate or the
        // duplicate filter on top of plain delivery.
        let f = report.faults.as_ref().expect("plan ran");
        assert!(f.delayed + f.duplicated + f.dropped_retransmitted > 100);
    }
}

#[test]
fn static_table_fault_runs_match_oracle_exactly() {
    static_table_case::<V4>()
}

#[test]
fn static_table_fault_runs_match_oracle_exactly_v6() {
    static_table_case::<V6>()
}

#[test]
fn churn_with_faults_has_zero_oracle_divergence() {
    churn_case::<V4>()
}

#[test]
fn churn_with_faults_has_zero_oracle_divergence_v6() {
    churn_case::<V6>()
}

/// A fault run is a pure function of its seeds: re-running renders a
/// byte-identical canonical report, which is what makes any failure of
/// the two tests above replayable.
#[test]
fn fault_runs_replay_deterministically() {
    let (table, traces) = setup(2, 1_500);
    let a = run(&table, &traces, &fault_cfg(2, 42, true));
    let b = run(&table, &traces, &fault_cfg(2, 42, true));
    assert_eq!(a.canonical_json(), b.canonical_json());
    // And a different adversary seed gives a genuinely different run.
    let c = run(&table, &traces, &fault_cfg(2, 43, true));
    let (fa, fc) = (a.faults.as_ref().unwrap(), c.faults.as_ref().unwrap());
    assert_ne!(
        (fa.delayed, fa.duplicated, fa.stalls),
        (fc.delayed, fc.duplicated, fc.stalls),
        "seeds 42 and 43 produced the same fault trace"
    );
}

/// Batch-message faults: the configs above already run the adversary
/// against coalesced messages, but this test makes the coverage
/// explicit — the runs must actually put `BatchRequest`/`BatchReply`
/// messages on the wire, the injector must
/// drop/delay/duplicate them as whole units (a dropped batch reply
/// stalls up to 32 addresses until the retransmit lands; a duplicated
/// one must be recognized per address), and the oracle and coherence
/// sweeps must stay clean through all of it.
#[test]
fn batch_messages_face_the_adversary_with_zero_divergence() {
    let (table, traces) = setup(4, 3_000);
    for seed in SEEDS {
        let report = run(&table, &traces, &fault_cfg(4, seed, true));
        let batch_requests: u64 = report.workers.iter().map(|w| w.batch_requests_sent).sum();
        let batch_replies: u64 = report.workers.iter().map(|w| w.batch_replies_sent).sum();
        assert!(
            batch_requests > 0,
            "seed {seed}: no coalesced request ever sent — batch faults untested"
        );
        assert!(
            batch_replies > 0,
            "seed {seed}: no coalesced reply ever sent — batch faults untested"
        );
        assert_eq!(
            report.oracle_divergence(),
            0,
            "seed {seed}: {}",
            report.fault_summary()
        );
        let coh = report.coherence.expect("deterministic run sweeps");
        assert_eq!(coh.mismatches, 0, "seed {seed}: stale cache entries");
        assert_adversary_fired(&report, seed);
    }
}

/// A stall freezes a worker mid-vector: events already coalesced but
/// not yet flushed must survive the pause and go out (in order) on the
/// next unstalled iteration. With stalls cranked up an order of
/// magnitude beyond the standard plan, every packet must still
/// complete exactly once.
#[test]
fn stall_heavy_plan_holds_vectors_across_iterations() {
    let (table, traces) = setup(4, 2_000);
    let (packets, sum) = oracle_checksum::<V4>(&table, &traces);
    let mut plan = FaultPlan::standard(77);
    plan.stall_per_mille = 500; // every other iteration pauses
    let mut cfg = fault_cfg(4, 77, false);
    cfg.faults = Some(plan);
    let report = run(&table, &traces, &cfg);
    let f = report.faults.as_ref().expect("plan ran");
    assert!(f.stalls > 100, "stall knob had no effect: {}", f.stalls);
    assert_eq!(report.total_packets(), packets);
    assert_eq!(report.checksum(), sum, "a held vector was lost or replayed");
    assert_eq!(report.oracle_divergence(), 0);
}

/// Full-flush invalidation mode survives the same adversary.
#[test]
fn full_flush_mode_survives_faults() {
    use spal_dataplane::InvalidationMode;
    let (table, traces) = setup(2, 2_000);
    let mut cfg = fault_cfg(2, 1337, true);
    cfg.invalidation = InvalidationMode::FullFlush;
    let report = run(&table, &traces, &cfg);
    assert_eq!(report.oracle_divergence(), 0, "{}", report.fault_summary());
    let flushes: u64 = report.workers.iter().map(|w| w.cache.flushes).sum();
    assert!(flushes > 0, "full-flush mode never flushed");
}

// ---------------------------------------------------------------------
// The in-flight window: a worker stops admitting its own packets while
// its unanswered remote requests could pass
// `IN_FLIGHT_WINDOW_BATCHES × batch`. A peer that stalls on almost
// every iteration answers nothing, so requests pile up and the window
// binds; an unstalled schedule must never feel it.
// ---------------------------------------------------------------------

const WINDOW_BATCH: usize = 8;

/// Two workers, far more distinct destinations than cache blocks (so
/// nearly every packet misses and half the misses are homed on the
/// peer), stalling on 49 iterations in 50: a stalled iteration still
/// drains and admits but flushes neither its FE queue nor its outbox,
/// so nothing it owes the peer goes out. No other fault class is on.
fn stalled_cfg(deterministic: bool) -> DataplaneConfig {
    DataplaneConfig {
        workers: 2,
        deterministic,
        batch: WINDOW_BATCH,
        cache: LrCacheConfig::paper(64),
        faults: Some(FaultPlan {
            seed: 7,
            delay_per_mille: 0,
            drop_per_mille: 0,
            dup_per_mille: 0,
            stall_per_mille: 980,
            forced_publication_per_mille: 0,
            max_delay_iters: 1,
            retransmit_delay_iters: 1,
        }),
        ..Default::default()
    }
}

fn assert_window_held(report: &spal_dataplane::DataplaneReport, what: &str) {
    let window = (IN_FLIGHT_WINDOW_BATCHES * WINDOW_BATCH) as u64;
    for w in &report.workers {
        assert!(
            w.max_in_flight <= window,
            "{what}: lc {} had {} requests in flight, window {window}",
            w.lc,
            w.max_in_flight
        );
    }
    let throttled: u64 = report.workers.iter().map(|w| w.admit_throttled).sum();
    assert!(
        throttled > 0,
        "{what}: the window never bound, so the run proved nothing about it"
    );
}

#[test]
fn threaded_stalls_fill_the_window_and_the_run_still_matches_the_oracle() {
    let (table, traces) = setup_distinct(2, 6_000, 20_000);
    let (packets, sum) = oracle_checksum::<V4>(&table, &traces);
    let report = run(&table, &traces, &stalled_cfg(false));
    assert_eq!(report.total_packets(), packets);
    assert_eq!(report.checksum(), sum, "checksum diverged");
    assert_eq!(report.oracle_divergence(), 0);
    assert!(report.faults.as_ref().expect("plan ran").stalls > 0);
    assert_window_held(&report, "threaded");
}

#[test]
fn deterministic_stalls_fill_the_window_reproducibly() {
    let (table, traces) = setup_distinct(2, 6_000, 20_000);
    let (packets, sum) = oracle_checksum::<V4>(&table, &traces);
    let a = run(&table, &traces, &stalled_cfg(true));
    assert_eq!(a.total_packets(), packets);
    assert_eq!(a.checksum(), sum, "checksum diverged");
    assert_eq!(a.oracle_divergence(), 0);
    assert_window_held(&a, "deterministic");
    // The window is part of the schedule, so it replays exactly.
    let b = run(&table, &traces, &stalled_cfg(true));
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        assert_eq!(wa.max_in_flight, wb.max_in_flight);
        assert_eq!(wa.admit_throttled, wb.admit_throttled);
    }
    assert_eq!(a.canonical_json(), b.canonical_json());
}

/// On the fault-free round-robin schedule every request is served in
/// the peer's next turn, so a worker never has more than a couple of
/// batches outstanding: the window must be invisible — which is what
/// keeps every deterministic report bit-identical to the unwindowed
/// runtime's.
#[test]
fn window_never_binds_on_the_fault_free_round_robin_schedule() {
    for (psi, batch) in [(2, WINDOW_BATCH), (4, WINDOW_BATCH), (3, 32), (4, 256)] {
        let (table, traces) = setup_distinct(psi, 4_000, 20_000);
        let report = run(
            &table,
            &traces,
            &DataplaneConfig {
                workers: psi,
                deterministic: true,
                batch,
                cache: LrCacheConfig::paper(64),
                ..Default::default()
            },
        );
        assert_eq!(report.oracle_divergence(), 0);
        for w in &report.workers {
            assert_eq!(
                w.admit_throttled, 0,
                "ψ={psi} batch={batch}: lc {} was throttled",
                w.lc
            );
            assert!(
                w.max_in_flight <= 2 * batch as u64,
                "ψ={psi} batch={batch}: lc {} had {} in flight",
                w.lc,
                w.max_in_flight
            );
            assert!(w.max_in_flight > 0, "no remote request was ever in flight");
        }
    }
}
