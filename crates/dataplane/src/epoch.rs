//! Epoch-based RCU-style table publication.
//!
//! The control plane publishes immutable forwarding-table snapshots;
//! LC workers read them without ever blocking the lookup path. The
//! scheme is quiescent-state-based reclamation (QSBR) with an explicit
//! grace period on the writer side:
//!
//! * a single `AtomicPtr` holds the current snapshot; readers
//!   [`pin`](EpochReader::pin) it for the duration of one processing iteration and drop the pin
//!   between iterations (their quiescent state);
//! * a global epoch counter is bumped on every publication; each reader
//!   owns one announcement slot that either holds `IDLE` (not
//!   reading) or the epoch it observed when it pinned;
//! * [`EpochWriter::publish`] swaps the pointer, bumps the epoch to
//!   `target`, then spins until every slot is `IDLE` or `>= target` —
//!   at which point no reader can still hold the old pointer — and
//!   returns the old snapshot **by value**, so the caller can recycle
//!   it as the next shadow copy (the ping-pong scheme the dataplane
//!   control plane uses; no `Clone` bound on the snapshot needed).
//!
//! Memory ordering: both the reader's `slot.store(epoch)` →
//! `current.load()` sequence and the writer's `current.swap()` →
//! `slot.load()` scan need store→load ordering (a Dekker-style
//! handshake), which `Release`/`Acquire` alone does not give. All four
//! accesses are therefore `SeqCst`. The two safe interleavings:
//!
//! * the writer's scan observes the reader's slot — the slot holds an
//!   epoch `< target`, so the writer waits until the reader unpins;
//! * the scan misses the slot store — then, by the `SeqCst` total
//!   order, the reader's subsequent pointer load observes the writer's
//!   swap and returns the *new* snapshot, which is not being reclaimed
//!   (and the reader's stale slot epoch only makes the *next*
//!   publication conservatively wait for it).

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

use spal_check::sync::{AtomicPtr, AtomicU64, Ordering};

/// Slot value meaning "this reader is between pins".
const IDLE: u64 = u64::MAX;

struct Shared<T> {
    current: AtomicPtr<T>,
    epoch: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // The writer owns every snapshot it ever swapped out; the one
        // still published is freed here, when the last handle goes.
        let p = *self.current.get_mut();
        if !p.is_null() {
            // SAFETY: `p` came from `Box::into_raw` (in `epoch_table` or
            // `publish_deferred`) and is still published, so no
            // `Deferred` owns it; `Shared` drops with the last `Arc`, so
            // no reader, writer or `Deferred` is left to pin or peek it.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// Writer half: publishes snapshots and reclaims the previous one.
pub struct EpochWriter<T> {
    shared: Arc<Shared<T>>,
}

/// Reader half: pins the current snapshot for one processing iteration.
pub struct EpochReader<T> {
    shared: Arc<Shared<T>>,
    slot: usize,
}

/// A pinned snapshot. Dropping it marks the reader quiescent again;
/// hold it no longer than one processing iteration, or publication
/// stalls.
pub struct Pinned<'a, T> {
    ptr: *const T,
    slot: &'a AtomicU64,
    _not_sync: PhantomData<*const ()>,
}

impl<T> Deref for Pinned<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the slot announcement below (see `pin`) keeps the
        // writer from reclaiming this snapshot while the pin lives.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for Pinned<'_, T> {
    fn drop(&mut self) {
        self.slot.store(IDLE, Ordering::SeqCst);
    }
}

/// Create an epoch-published table with `readers` reader handles.
pub fn epoch_table<T: Send + Sync>(
    initial: Box<T>,
    readers: usize,
) -> (EpochWriter<T>, Vec<EpochReader<T>>) {
    let shared = Arc::new(Shared {
        current: AtomicPtr::new(Box::into_raw(initial)),
        epoch: AtomicU64::new(0),
        slots: (0..readers).map(|_| AtomicU64::new(IDLE)).collect(),
    });
    let readers = (0..readers)
        .map(|slot| EpochReader {
            shared: Arc::clone(&shared),
            slot,
        })
        .collect();
    (EpochWriter { shared }, readers)
}

/// Wait until every reader slot is `IDLE` or has observed `target`.
fn grace<T>(shared: &Shared<T>, target: u64) {
    // Seeded-bug hook: skipping the grace period reclaims the old
    // snapshot while a reader may still hold it pinned — the
    // model-checked harness must observe the violation.
    if spal_check::bug_enabled("epoch-skip-grace") {
        return;
    }
    for slot in shared.slots.iter() {
        let mut spins = 0u32;
        loop {
            let s = slot.load(Ordering::SeqCst);
            if s == IDLE || s >= target {
                break;
            }
            spins += 1;
            if spins < 128 {
                spal_check::sync::spin_loop();
            } else {
                // Single-core machines need the reader scheduled
                // to reach its quiescent state.
                spal_check::sync::yield_now();
            }
        }
    }
}

/// A snapshot swapped out by [`EpochWriter::publish_deferred`] whose
/// grace period has not been waited out yet. Call
/// [`Deferred::into_inner`] to wait and take the snapshot back for
/// recycling; merely dropping it also waits (so it can never free a
/// still-pinned snapshot), but discards the allocation.
pub struct Deferred<T> {
    shared: Arc<Shared<T>>,
    old: *mut T,
    target: u64,
}

// SAFETY: `old` is owned (no reader will touch it after the grace
// period this type enforces), so the token may migrate threads whenever
// the snapshot itself may.
unsafe impl<T: Send> Send for Deferred<T> {}

impl<T> Deferred<T> {
    /// Wait out the grace period (if still running) and return the
    /// now-unreferenced snapshot for recycling. The wait typically
    /// costs nothing by the time the control plane comes back with its
    /// next batch — readers repin every iteration — which is the point:
    /// the wait moves off the publication's critical path.
    pub fn into_inner(mut self) -> Box<T> {
        grace(&self.shared, self.target);
        let old = std::mem::replace(&mut self.old, std::ptr::null_mut());
        // SAFETY: every reader has been idle or re-pinned since the
        // swap, so no reference into `old` survives; nulling the field
        // keeps `Drop` from double-freeing.
        unsafe { Box::from_raw(old) }
    }
}

impl<T> Drop for Deferred<T> {
    fn drop(&mut self) {
        if !self.old.is_null() {
            grace(&self.shared, self.target);
            // SAFETY: grace period over, see `into_inner`.
            drop(unsafe { Box::from_raw(self.old) });
        }
    }
}

impl<T> EpochWriter<T> {
    /// Swap in `next`, wait out the grace period, and return the
    /// now-unreferenced previous snapshot for recycling.
    pub fn publish(&mut self, next: Box<T>) -> Box<T> {
        self.publish_deferred(next).into_inner()
    }

    /// Swap in `next` and return immediately, deferring the grace-period
    /// wait to the returned token. Readers see the new snapshot from the
    /// swap onward; the caller resolves the token (usually right before
    /// it next needs the shadow copy) to reclaim the old snapshot. This
    /// takes the reader-scheduling wait out of the publication latency —
    /// on an oversubscribed host the grace period costs milliseconds,
    /// none of which the route-update path needs to absorb.
    pub fn publish_deferred(&mut self, next: Box<T>) -> Deferred<T> {
        let old = self
            .shared
            .current
            .swap(Box::into_raw(next), Ordering::SeqCst);
        let target = self.shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        Deferred {
            shared: Arc::clone(&self.shared),
            old,
            target,
        }
    }

    /// The currently published snapshot. `&mut self` on
    /// [`publish`](EpochWriter::publish) means it cannot be reclaimed
    /// while this borrow lives.
    pub fn peek(&self) -> &T {
        // SAFETY: the pointer is never null (`epoch_table` publishes
        // `initial`, every swap installs a `Box`), and only this writer
        // swaps it, through `&mut self` — so the snapshot stays published,
        // and is not reclaimed, for as long as the returned borrow lives.
        unsafe { &*self.shared.current.load(Ordering::SeqCst) }
    }

    /// Number of publications so far.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }
}

impl<T> EpochReader<T> {
    /// Pin the current snapshot. `&mut self` forbids nested pins, which
    /// would overwrite this reader's announcement slot and could let
    /// the writer reclaim the outer snapshot early.
    pub fn pin(&mut self) -> Pinned<'_, T> {
        let slot = &self.shared.slots[self.slot];
        slot.store(self.shared.epoch.load(Ordering::SeqCst), Ordering::SeqCst);
        let ptr = self.shared.current.load(Ordering::SeqCst);
        Pinned {
            ptr,
            slot,
            _not_sync: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_returns_previous_snapshot() {
        let (mut w, mut readers) = epoch_table(Box::new(1u64), 2);
        assert_eq!(*w.peek(), 1);
        let old = w.publish(Box::new(2));
        assert_eq!(*old, 1);
        assert_eq!(*w.peek(), 2);
        assert_eq!(w.epoch(), 1);
        let r = &mut readers[0];
        assert_eq!(*r.pin(), 2);
    }

    #[test]
    fn recycled_snapshot_ping_pongs() {
        let (mut w, _readers) = epoch_table::<Vec<u32>>(Box::new(vec![0]), 1);
        let mut shadow = Box::new(vec![0]);
        for i in 1..5u32 {
            shadow.push(i);
            shadow = w.publish(shadow);
            shadow.push(i); // catch the lagging copy up
        }
        assert_eq!(w.peek().len(), 5);
        assert_eq!(shadow.len(), 5);
    }

    #[test]
    fn readers_never_observe_torn_snapshots() {
        // The snapshot invariant: both halves sum to the generation.
        // A use-after-free or torn read would break it (and Miri-style
        // reasoning aside, this exercises the grace period hard).
        const GENERATIONS: u64 = 2_000;
        let (mut w, readers) = epoch_table(Box::new((0u64, 0u64)), 3);
        let handles: Vec<_> = readers
            .into_iter()
            .map(|mut r| {
                std::thread::spawn(move || loop {
                    let pin = r.pin();
                    let (a, b) = *pin;
                    assert_eq!(a, b, "torn snapshot: {a} vs {b}");
                    if a == GENERATIONS {
                        return;
                    }
                    drop(pin);
                    std::thread::yield_now();
                })
            })
            .collect();
        let mut shadow = Box::new((0u64, 0u64));
        for gen in 1..=GENERATIONS {
            *shadow = (gen, gen);
            shadow = w.publish(shadow);
        }
        // Readers lag by design; publish the final value into both
        // copies so every reader terminates.
        *shadow = (GENERATIONS, GENERATIONS);
        w.publish(shadow);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn drop_frees_current_without_readers() {
        let (w, readers) = epoch_table(Box::new(vec![1u8; 64]), 4);
        drop(readers);
        drop(w); // Shared::drop reclaims the published snapshot
    }

    #[test]
    fn deferred_publication_reclaims_after_wait() {
        let (mut w, mut readers) = epoch_table(Box::new(10u64), 1);
        let pending = w.publish_deferred(Box::new(20));
        // Readers already see the new snapshot before the wait resolves.
        assert_eq!(*readers[0].pin(), 20);
        assert_eq!(*pending.into_inner(), 10);
        // Dropping a token (without taking the snapshot back) must also
        // be safe: grace has clearly elapsed here.
        let pending = w.publish_deferred(Box::new(30));
        drop(pending);
        assert_eq!(*w.peek(), 30);
    }

    #[test]
    fn deferred_wait_blocks_until_reader_unpins() {
        let (mut w, readers) = epoch_table(Box::new(0u64), 1);
        let mut r = readers.into_iter().next().unwrap();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let b2 = std::sync::Arc::clone(&barrier);
        let h = std::thread::spawn(move || {
            let pin = r.pin();
            b2.wait(); // writer may now publish
            let v = *pin;
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(pin);
            v
        });
        barrier.wait();
        let pending = w.publish_deferred(Box::new(1));
        // The swap itself never blocked; the reclaim must, until the
        // reader drops its pin.
        let old = pending.into_inner();
        assert_eq!(*old, 0);
        assert_eq!(h.join().unwrap(), 0);
    }
}
