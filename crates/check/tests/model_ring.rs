//! Model-checked harnesses for the fabric's SPSC ring.
//!
//! Compiled only under `RUSTFLAGS="--cfg spal_check"` (the CI `check`
//! job); in a plain build this file is empty and `cargo test -q` stays
//! fast. The harnesses assert the ring's core contract — no item is
//! lost, duplicated, or reordered, under every explored schedule — and
//! that the checker *demonstrably* catches a dropped release fence on
//! either index store.
#![cfg(spal_check)]

use spal_check::{sync, thread, Checker};
use spal_fabric::spsc_ring;

/// Push `0..n_items` through a `capacity`-slot ring from a producer
/// thread while a consumer pops; both spin (scheduler-parked) when the
/// ring is full/empty. The consumer must see exactly `0..n_items` in
/// order.
fn ring_harness(n_items: u64, capacity: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let (mut tx, mut rx) = spsc_ring::<u64>(capacity);
        let producer = thread::spawn(move || {
            for i in 0..n_items {
                let mut item = i;
                loop {
                    match tx.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            sync::spin_loop();
                        }
                    }
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while (got.len() as u64) < n_items {
                match rx.try_pop() {
                    Some(v) => got.push(v),
                    None => sync::spin_loop(),
                }
            }
            assert_eq!(rx.try_pop(), None, "ring held an extra (duplicated) item");
            got
        });
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        let expected: Vec<u64> = (0..n_items).collect();
        assert_eq!(got, expected, "items lost, duplicated, or reordered");
    }
}

/// Bounded-exhaustive sweep. Items > capacity forces wraparound, so
/// slot reuse (the subtle half of the protocol) is inside the explored
/// space.
#[test]
fn exhaustive_ring_preserves_fifo() {
    let report = Checker::exhaustive()
        .preemption_bound(Some(3))
        .max_schedules(20_000)
        .check(ring_harness(4, 2));
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 4_000,
        "expected >= 4000 distinct interleavings, got {}",
        report.distinct_interleavings
    );
}

/// Seeded random walk over a deeper run than DFS can afford; failures
/// would replay from the printed seed.
#[test]
fn random_walk_ring_preserves_fifo() {
    let report = Checker::random(0x5A11, 7_000).check(ring_harness(6, 2));
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 6_000,
        "random walk collapsed to {} distinct schedules",
        report.distinct_interleavings
    );
}

/// Deliberately seeded bug: the producer publishes `head` with a
/// Relaxed store. The consumer's slot read is then unordered after the
/// producer's slot write, and the vector-clock race detector must say
/// so — and the failure must replay from its token.
#[test]
fn dropped_head_release_fence_is_caught() {
    let report = Checker::exhaustive()
        .bug("spsc-head-store-relaxed")
        .check(ring_harness(2, 2));
    let failure = report
        .failure
        .expect("checker missed the dropped release fence on the head store");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure kind: {}",
        failure.message
    );
    let replay = Checker::replay(&failure.token)
        .bug("spsc-head-store-relaxed")
        .check(ring_harness(2, 2));
    let refailure = replay.failure.expect("failure did not replay from token");
    assert_eq!(refailure.message, failure.message);
}

/// Deliberately seeded bug: the consumer retires a slot with a Relaxed
/// `tail` store. The producer's eventual *reuse* of that slot is then
/// unordered after the consumer's read — only observable once the ring
/// wraps, which is why the harness pushes more items than capacity.
#[test]
fn dropped_tail_release_fence_is_caught() {
    let report = Checker::exhaustive()
        .bug("spsc-tail-store-relaxed")
        .check(ring_harness(4, 2));
    let failure = report
        .failure
        .expect("checker missed the dropped release fence on the tail store");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure kind: {}",
        failure.message
    );
}

/// The same weakened orderings must NOT fail when the racy slot is
/// never reused: with capacity >= items the tail store's ordering is
/// never load-bearing, so the checker staying quiet here shows the bug
/// reports above are precise, not noise.
#[test]
fn relaxed_tail_without_wraparound_is_benign() {
    let report = Checker::exhaustive()
        .bug("spsc-tail-store-relaxed")
        .check(ring_harness(2, 4));
    report.assert_ok();
}

/// Burst-mode harness: the producer moves `0..n_items` through the ring
/// with `push_slice` (varying burst widths, partial pushes retried) and
/// the consumer drains with `pop_slice`. One head/tail store per burst
/// means one *release point* per burst — the checker explores whether
/// every slot write in the burst is really ordered before that single
/// publication, and whether the consumer's batched reads all happen
/// before its single tail retirement.
fn burst_harness(n_items: u64, capacity: usize, burst: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let (mut tx, mut rx) = spsc_ring::<u64>(capacity);
        let producer = thread::spawn(move || {
            let items: Vec<u64> = (0..n_items).collect();
            let mut sent = 0;
            while sent < items.len() {
                let end = (sent + burst).min(items.len());
                let pushed = tx.push_slice(&items[sent..end]);
                if pushed == 0 {
                    sync::spin_loop();
                }
                sent += pushed;
            }
        });
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while (got.len() as u64) < n_items {
                if rx.pop_slice(&mut got, burst) == 0 {
                    sync::spin_loop();
                }
            }
            let mut extra = Vec::new();
            assert_eq!(
                rx.pop_slice(&mut extra, 1),
                0,
                "ring held an extra (duplicated) item"
            );
            got
        });
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        let expected: Vec<u64> = (0..n_items).collect();
        assert_eq!(got, expected, "items lost, duplicated, or reordered");
    }
}

/// Bounded-exhaustive sweep of the burst path. Burst width 2 over a
/// 2-slot ring with 4 items forces wraparound *and* partial pushes
/// (a burst arriving at a ring with one free slot must split).
#[test]
fn exhaustive_burst_ring_preserves_fifo() {
    let report = Checker::exhaustive()
        .preemption_bound(Some(3))
        .max_schedules(20_000)
        .check(burst_harness(4, 2, 2));
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 100,
        "expected >= 100 distinct interleavings, got {}",
        report.distinct_interleavings
    );
}

/// Mixed scalar/burst traffic: producer bursts, consumer pops one at a
/// time. The two paths share the same indices, so interleaving them is
/// what any caller mixing `push_slice` with `try_pop` does.
#[test]
fn burst_producer_scalar_consumer_preserves_fifo() {
    let harness = move || {
        let (mut tx, mut rx) = spsc_ring::<u64>(2);
        let producer = thread::spawn(move || {
            let items: Vec<u64> = (0..4).collect();
            let mut sent = 0;
            while sent < items.len() {
                let pushed = tx.push_slice(&items[sent..(sent + 2).min(items.len())]);
                if pushed == 0 {
                    sync::spin_loop();
                }
                sent += pushed;
            }
        });
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < 4 {
                match rx.try_pop() {
                    Some(v) => got.push(v),
                    None => sync::spin_loop(),
                }
            }
            got
        });
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3]);
    };
    let report = Checker::exhaustive()
        .preemption_bound(Some(3))
        .max_schedules(20_000)
        .check(harness);
    report.assert_ok();
}

/// The seeded Relaxed-head bug must be caught *through the burst path*
/// too: `push_slice` publishes a whole burst with one head store, so a
/// dropped release fence there un-orders every slot write in the burst
/// at once. The vector-clock detector must flag it and the failure must
/// replay from its token.
#[test]
fn burst_dropped_head_release_fence_is_caught() {
    let report = Checker::exhaustive()
        .bug("spsc-head-store-relaxed")
        .check(burst_harness(2, 2, 2));
    let failure = report
        .failure
        .expect("checker missed the dropped release fence on the burst head store");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure kind: {}",
        failure.message
    );
    let replay = Checker::replay(&failure.token)
        .bug("spsc-head-store-relaxed")
        .check(burst_harness(2, 2, 2));
    let refailure = replay.failure.expect("failure did not replay from token");
    assert_eq!(refailure.message, failure.message);
}

/// And the Relaxed-tail bug through `pop_slice`: the single tail store
/// retires the whole burst, so slot reuse after wraparound races the
/// consumer's batched reads.
#[test]
fn burst_dropped_tail_release_fence_is_caught() {
    let report = Checker::exhaustive()
        .bug("spsc-tail-store-relaxed")
        .check(burst_harness(4, 2, 2));
    let failure = report
        .failure
        .expect("checker missed the dropped release fence on the burst tail store");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure kind: {}",
        failure.message
    );
}

/// Sanity under instrumentation: shim-built ring still behaves outside
/// a checker run (instrumented ops fall back to plain atomics).
#[test]
fn instrumented_ring_works_without_checker() {
    let (mut tx, mut rx) = spsc_ring::<u64>(4);
    for i in 0..4 {
        assert!(tx.try_push(i).is_ok());
    }
    assert_eq!(tx.try_push(99), Err(99));
    for i in 0..4 {
        assert_eq!(rx.try_pop(), Some(i));
    }
    assert_eq!(rx.try_pop(), None);
    // Cross-schedule state leakage guard: distinct schedule counts from
    // two identical checkers must agree (determinism smoke test).
    let a = Checker::exhaustive()
        .max_schedules(500)
        .check(ring_harness(2, 2));
    let b = Checker::exhaustive()
        .max_schedules(500)
        .check(ring_harness(2, 2));
    a.assert_ok();
    b.assert_ok();
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.distinct_interleavings, b.distinct_interleavings);
}
