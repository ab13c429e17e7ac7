//! Bounded lock-free single-producer/single-consumer rings — the
//! dataplane's stand-in for the fabric's point-to-point links.
//!
//! The discrete-event simulator models the fabric's *timing*
//! ([`crate::SwitchingFabric`]); the multi-threaded dataplane runtime
//! needs its *mechanism*: a wait-free channel one LC worker can push
//! [`crate::FabricMsg`]s into while the destination worker pops them,
//! with no locks on either side. This is the classic Lamport ring:
//!
//! * a power-of-two slot array, a producer-owned `head` and a
//!   consumer-owned `tail`, both monotonically increasing indices taken
//!   modulo the capacity;
//! * the producer writes the slot *before* publishing it with a
//!   `Release` store of `head`; the consumer `Acquire`-loads `head`, so
//!   the slot write happens-before the slot read (and symmetrically for
//!   `tail` on the consume side, so a slot is never overwritten before
//!   its previous occupant has been read out);
//! * items are `Copy`, so slots need no drop handling and a ring can be
//!   torn down regardless of occupancy.
//!
//! Each half is `Send` (it moves to its worker thread) but deliberately
//! neither `Clone` nor `Sync`: exactly one producer and one consumer
//! exist per ring, which is what makes plain loads/stores on the indices
//! sufficient.

use std::mem::MaybeUninit;
use std::sync::Arc;

use spal_check::sync::{AtomicUsize, CheckCell, Ordering};

struct RingInner<T> {
    slots: Box<[CheckCell<MaybeUninit<T>>]>,
    /// Next index the producer will write (only the producer stores it).
    head: AtomicUsize,
    /// Next index the consumer will read (only the consumer stores it).
    tail: AtomicUsize,
}

// RingInner is Sync via CheckCell's `T: Send` bound: the
// producer/consumer split guarantees each slot is accessed by at most
// one thread at a time, with the head/tail Release/Acquire pairs
// ordering the accesses — exactly the discipline the model checker
// verifies when this crate is built with `--cfg spal_check`.

/// Producer half of a bounded SPSC ring (see [`spsc_ring`]).
pub struct SpscProducer<T> {
    inner: Arc<RingInner<T>>,
    mask: usize,
}

/// Consumer half of a bounded SPSC ring (see [`spsc_ring`]).
pub struct SpscConsumer<T> {
    inner: Arc<RingInner<T>>,
    mask: usize,
}

/// Create a bounded SPSC ring holding at most `capacity` items
/// (rounded up to a power of two, minimum 2).
pub fn spsc_ring<T: Copy + Send>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[CheckCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| CheckCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(RingInner {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        SpscProducer {
            inner: Arc::clone(&inner),
            mask: cap - 1,
        },
        SpscConsumer {
            inner,
            mask: cap - 1,
        },
    )
}

impl<T: Copy + Send> SpscProducer<T> {
    /// Capacity of the ring (a power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Try to append `item`; returns it back if the ring is full.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) > self.mask {
            return Err(item);
        }
        // SAFETY: the slot at `head` is past the consumer's tail (checked
        // above), so only this producer touches it until the Release
        // store below publishes it.
        self.inner.slots[head & self.mask].with_mut(|p| unsafe {
            (*p).write(item);
        });
        // Seeded-bug hook: weakening this publish to Relaxed severs the
        // happens-before edge to the consumer's slot read — the model
        // checker must flag it (crates/check/tests assert that it does).
        let publish = if spal_check::bug_enabled("spsc-head-store-relaxed") {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.inner.head.store(head.wrapping_add(1), publish);
        Ok(())
    }

    /// Burst push: append as many of `items` as fit, in order, with ONE
    /// `Release` store of `head` for the whole burst — the amortization
    /// dataplane workers rely on (a per-item `try_push` loop pays a
    /// published store, and the consumer an `Acquire` reload, per
    /// message). Returns how many items were pushed; a full ring takes a
    /// capacity-aware partial prefix and leaves the rest to the caller.
    pub fn push_slice(&mut self, items: &[T]) -> usize {
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        let free = self.capacity() - head.wrapping_sub(tail);
        let n = free.min(items.len());
        if n == 0 {
            return 0;
        }
        for (i, item) in items[..n].iter().enumerate() {
            // SAFETY: slots head..head+n are past the consumer's tail
            // (free-space check above), so only this producer touches
            // them until the single Release store below publishes all n.
            self.inner.slots[head.wrapping_add(i) & self.mask].with_mut(|p| unsafe {
                (*p).write(*item);
            });
        }
        // Same seeded-bug hook as `try_push`: the burst publish is one
        // store, so weakening it severs the happens-before edge for
        // every slot in the burst at once.
        let publish = if spal_check::bug_enabled("spsc-head-store-relaxed") {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.inner.head.store(head.wrapping_add(n), publish);
        n
    }

    /// Number of items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner
            .head
            .load(Ordering::Relaxed)
            .wrapping_sub(self.inner.tail.load(Ordering::Acquire))
    }

    /// Whether the ring currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Copy + Send> SpscConsumer<T> {
    /// Capacity of the ring (a power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Try to remove the oldest item.
    pub fn try_pop(&mut self) -> Option<T> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: head > tail, so the producer published this slot (the
        // Acquire load of `head` ordered its write before this read) and
        // will not rewrite it until `tail` advances past it.
        let item = self.inner.slots[tail & self.mask].with(|p| unsafe { (*p).assume_init_read() });
        // Seeded-bug hook: a Relaxed tail store lets the producer reuse
        // the slot without ordering after this read (caught once the
        // ring wraps around).
        let release = if spal_check::bug_enabled("spsc-tail-store-relaxed") {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.inner.tail.store(tail.wrapping_add(1), release);
        Some(item)
    }

    /// Burst pop: append up to `max` queued items onto `out`, in FIFO
    /// order, with ONE `Release` store of `tail` for the whole burst.
    /// Returns how many items were popped (0 on an empty ring).
    pub fn pop_slice(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        let n = head.wrapping_sub(tail).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            // SAFETY: indices tail..tail+n are below `head`, so the
            // producer published them (ordered by the Acquire load
            // above) and will not rewrite them until the single tail
            // store below frees the whole burst.
            let item = self.inner.slots[tail.wrapping_add(i) & self.mask]
                .with(|p| unsafe { (*p).assume_init_read() });
            out.push(item);
        }
        // Same seeded-bug hook as `try_pop`: the burst free is one
        // store, so weakening it lets the producer reuse all n slots
        // without ordering after the reads.
        let release = if spal_check::bug_enabled("spsc-tail-store-relaxed") {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.inner.tail.store(tail.wrapping_add(n), release);
        n
    }

    /// Number of items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner
            .head
            .load(Ordering::Acquire)
            .wrapping_sub(self.inner.tail.load(Ordering::Relaxed))
    }

    /// Whether the ring currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = spsc_ring::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            assert!(tx.try_push(i).is_ok());
        }
        assert_eq!(tx.try_push(99), Err(99));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc_ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = spsc_ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc_ring::<u64>(4);
        for round in 0..10u64 {
            for i in 0..3 {
                assert!(tx.try_push(round * 10 + i).is_ok());
            }
            for i in 0..3 {
                assert_eq!(rx.try_pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn cross_thread_stress_no_loss_no_reorder() {
        // Push a long sequence through a tiny ring from another thread;
        // every item must come out exactly once, in order.
        const N: u64 = 200_000;
        let (mut tx, mut rx) = spsc_ring::<u64>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut item = i;
                loop {
                    match tx.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            match rx.try_pop() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn push_slice_wraps_and_preserves_order() {
        // Force head/tail well past the array boundary, then burst
        // across the wrap: items must come out in push order.
        let (mut tx, mut rx) = spsc_ring::<u64>(8);
        let mut sink = Vec::new();
        for _ in 0..3 {
            assert_eq!(tx.push_slice(&[0, 0, 0]), 3);
            assert_eq!(rx.pop_slice(&mut sink, 3), 3);
        }
        sink.clear();
        let burst: Vec<u64> = (100..108).collect();
        assert_eq!(tx.push_slice(&burst), 8); // spans the wraparound
        assert_eq!(rx.pop_slice(&mut sink, usize::MAX), 8);
        assert_eq!(sink, burst);
    }

    #[test]
    fn push_slice_partial_into_nearly_full_ring() {
        let (mut tx, mut rx) = spsc_ring::<u32>(8);
        assert_eq!(tx.push_slice(&[1, 2, 3, 4, 5, 6]), 6);
        // Only 2 slots free: burst of 5 takes a partial prefix.
        assert_eq!(tx.push_slice(&[7, 8, 9, 10, 11]), 2);
        // Completely full: nothing fits.
        assert_eq!(tx.push_slice(&[99]), 0);
        let mut sink = Vec::new();
        assert_eq!(rx.pop_slice(&mut sink, usize::MAX), 8);
        assert_eq!(sink, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn pop_slice_on_empty_returns_zero() {
        let (mut tx, mut rx) = spsc_ring::<u8>(4);
        let mut sink = Vec::new();
        assert_eq!(rx.pop_slice(&mut sink, usize::MAX), 0);
        assert!(sink.is_empty());
        tx.push_slice(&[5]);
        assert_eq!(rx.pop_slice(&mut sink, usize::MAX), 1);
        assert_eq!(rx.pop_slice(&mut sink, usize::MAX), 0);
        assert_eq!(sink, vec![5]);
    }

    #[test]
    fn pop_slice_respects_max() {
        let (mut tx, mut rx) = spsc_ring::<u32>(16);
        assert_eq!(tx.push_slice(&[1, 2, 3, 4, 5]), 5);
        let mut sink = Vec::new();
        assert_eq!(rx.pop_slice(&mut sink, 2), 2);
        assert_eq!(sink, vec![1, 2]);
        assert_eq!(rx.pop_slice(&mut sink, 2), 2);
        assert_eq!(rx.pop_slice(&mut sink, 2), 1);
        assert_eq!(sink, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn burst_and_scalar_ops_interleave() {
        // try_push/try_pop and push_slice/pop_slice share the same
        // indices; mixing them must preserve FIFO order.
        let (mut tx, mut rx) = spsc_ring::<u32>(8);
        assert!(tx.try_push(1).is_ok());
        assert_eq!(tx.push_slice(&[2, 3]), 2);
        assert!(tx.try_push(4).is_ok());
        assert_eq!(rx.try_pop(), Some(1));
        let mut sink = Vec::new();
        assert_eq!(rx.pop_slice(&mut sink, usize::MAX), 3);
        assert_eq!(sink, vec![2, 3, 4]);
    }

    #[test]
    fn cross_thread_burst_stress_no_loss_no_reorder() {
        // Same invariant as the scalar stress test, but both sides use
        // burst operations with varying burst sizes through a tiny ring.
        const N: u64 = 200_000;
        let (mut tx, mut rx) = spsc_ring::<u64>(8);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut burst = Vec::with_capacity(16);
            while next < N {
                burst.clear();
                let want = (1 + next % 13).min(N - next);
                burst.extend(next..next + want);
                let mut off = 0;
                while off < burst.len() {
                    let pushed = tx.push_slice(&burst[off..]);
                    if pushed == 0 {
                        std::thread::yield_now();
                    }
                    off += pushed;
                }
                next += want;
            }
        });
        let mut expected = 0u64;
        let mut sink = Vec::with_capacity(16);
        while expected < N {
            sink.clear();
            if rx.pop_slice(&mut sink, 1 + (expected as usize % 7)) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &sink {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn carries_fabric_messages() {
        use crate::{FabricMsg, MsgKind};
        let (mut tx, mut rx) = spsc_ring::<FabricMsg>(16);
        let msg = FabricMsg {
            kind: MsgKind::Reply { next_hop: Some(7) },
            src: 1,
            dst: 2,
            addr: 0x0A000001,
            packet_id: 42,
            sent_at: 0,
        };
        tx.try_push(msg).unwrap();
        assert_eq!(rx.try_pop(), Some(msg));
    }
}
