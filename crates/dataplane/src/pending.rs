//! The worker's in-flight table: one entry per distinct address whose
//! lookup is outstanding (the W-bit discipline of §3.2 — never issue
//! the same lookup twice), each carrying the FIFO list of waiters to
//! complete when the result arrives.
//!
//! A miss parks here and is taken out again a few hundred nanoseconds
//! later, so the table is built to make that round trip cost what its
//! memory traffic costs and nothing else:
//!
//! * **open addressing, linear probing, Fibonacci hashing** — no
//!   SipHash, and an entry is one compare away from its home slot at
//!   the load factors kept (≤ ½). The hash is unkeyed ([`Key`]): it
//!   spreads every address pattern traffic produces by itself, but
//!   someone who picks destinations to collide can stretch a probe
//!   sequence to the number of entries in flight, which the admission
//!   window keeps in the low thousands;
//! * **backward-shift deletion** — removing an entry closes the gap it
//!   leaves, so the table carries no tombstones, never needs a cleanup
//!   rehash, and its probe lengths depend only on what is in it now;
//! * **waiters in a slab** threaded as intrusive singly-linked FIFO
//!   lists (`head`/`tail` in the entry, `next` in the node), freed
//!   nodes recycled through a free list — parking a waiter allocates
//!   nothing once the slab has grown to the run's high-water mark;
//! * **`awaiting_reply` is a flag in the entry**, not a second hash
//!   set, with the count of flagged entries kept beside it: that count
//!   is what the admission window ([`crate::runtime`]) bounds.
//!
//! Invariants (checked by the model test below against
//! `HashMap<A, Vec<Waiter>>`): every live entry is reachable from its
//! home slot without crossing a dead one; `len` and `in_flight` equal
//! the live and the flagged entry counts; every slab node is on
//! exactly one entry's list or on the free list; a list yields its
//! waiters in the order they were parked.
//!
//! The table starts small (it is L1-resident when one worker's misses
//! are all local) and doubles when half full; it never shrinks.

use spal_cache::CacheAddr;
use std::time::Instant;

/// Someone waiting for an address to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waiter {
    /// One of this worker's own packets; `admitted` stamps when its
    /// admit burst started, for the miss-path latency histogram.
    Local { admitted: Instant },
    /// A remote request to answer once the address resolves.
    Remote { src: u16 },
}

const NIL: u32 = u32::MAX;

/// An address the table can hash. Every bit of the address must reach
/// the top bits of the hash (the table keeps those), and halves of a
/// wide address must not cancel: a fold like `hi ^ lo` sends every
/// address with equal halves to one slot.
pub trait Key: CacheAddr + Ord {
    fn hash64(self) -> u64;
}

/// 2^64 / φ: the Fibonacci-hashing multiplier.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Key for u32 {
    #[inline]
    fn hash64(self) -> u64 {
        (self as u64).wrapping_mul(PHI)
    }
}

impl Key for u128 {
    #[inline]
    fn hash64(self) -> u64 {
        // Each half under its own odd multiplier before they meet.
        (self as u64).wrapping_mul(PHI) ^ ((self >> 64) as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry<A> {
    key: A,
    /// First and last slab node of the waiter list (`NIL` = empty).
    head: u32,
    tail: u32,
    /// A remote request for this address is unanswered.
    awaiting: bool,
    live: bool,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    waiter: Waiter,
    next: u32,
}

/// Handle to the entry [`PendingTable::park`] just created, valid
/// until the table is next modified.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewEntry(usize);

#[derive(Debug)]
pub(crate) struct PendingTable<A> {
    /// Power-of-two slot array.
    slots: Vec<Entry<A>>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    len: usize,
    in_flight: usize,
    nodes: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
}

impl<A: Key> PendingTable<A> {
    const DEAD: Entry<A> = Entry {
        key: A::ZERO,
        head: NIL,
        tail: NIL,
        awaiting: false,
        live: false,
    };

    /// A table with room for `entries` addresses before it first grows.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let slots = (2 * entries).next_power_of_two().max(8);
        PendingTable {
            slots: vec![Self::DEAD; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            in_flight: 0,
            nodes: Vec::with_capacity(entries),
            free: NIL,
        }
    }

    /// Distinct addresses in flight.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Addresses with an unanswered remote request.
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    #[inline]
    fn home(&self, key: A) -> usize {
        (key.hash64() >> self.shift) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)` — the dead slot that
    /// ends its probe sequence, where it would be inserted.
    #[inline]
    fn find(&self, key: A) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let e = &self.slots[i];
            if !e.live {
                return Err(i);
            }
            if e.key == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Park `waiter` on `key`, behind any already waiting. The first
    /// waiter creates the entry and gets its handle back, so the caller
    /// can route the new job.
    #[inline]
    pub(crate) fn park(&mut self, key: A, waiter: Waiter) -> Option<NewEntry> {
        let node = self.alloc(waiter);
        match self.find(key) {
            Ok(i) => {
                let e = &mut self.slots[i];
                match e.tail {
                    NIL => e.head = node,
                    tail => self.nodes[tail as usize].next = node,
                }
                e.tail = node;
                None
            }
            Err(mut i) => {
                if 2 * (self.len + 1) > self.slots.len() {
                    self.grow();
                    i = self.find(key).expect_err("key was absent before growing");
                }
                self.slots[i] = Entry {
                    key,
                    head: node,
                    tail: node,
                    awaiting: false,
                    live: true,
                };
                self.len += 1;
                Some(NewEntry(i))
            }
        }
    }

    /// Flag the entry just created as awaiting a remote reply.
    #[inline]
    pub(crate) fn mark_awaiting(&mut self, entry: NewEntry) {
        let e = &mut self.slots[entry.0];
        debug_assert!(e.live && !e.awaiting, "handle outlived its entry");
        e.awaiting = true;
        self.in_flight += 1;
    }

    /// The request for `key` no longer needs a reply (its home moved
    /// here). Returns whether the flag was set.
    pub(crate) fn clear_awaiting(&mut self, key: A) -> bool {
        match self.find(key) {
            Ok(i) if self.slots[i].awaiting => {
                self.slots[i].awaiting = false;
                self.in_flight -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove `key`'s entry, moving its waiters — in the order they
    /// parked — into `out` (cleared first). `false`, and an empty
    /// `out`, if there is no entry.
    #[inline]
    pub(crate) fn take(&mut self, key: A, out: &mut Vec<Waiter>) -> bool {
        out.clear();
        let found = self.find(key);
        if let Ok(i) = found {
            self.remove(i, out);
        }
        found.is_ok()
    }

    /// [`Self::take`], but only if the entry is awaiting a reply — a
    /// reply for anything else is a duplicate and must change nothing.
    #[inline]
    pub(crate) fn take_awaiting(&mut self, key: A, out: &mut Vec<Waiter>) -> bool {
        out.clear();
        match self.find(key) {
            Ok(i) if self.slots[i].awaiting => {
                self.remove(i, out);
                true
            }
            _ => false,
        }
    }

    fn remove(&mut self, i: usize, out: &mut Vec<Waiter>) {
        let e = self.slots[i];
        // Hand the waiters over and the whole list back to the slab.
        let mut cur = e.head;
        while cur != NIL {
            let node = self.nodes[cur as usize];
            out.push(node.waiter);
            cur = node.next;
        }
        if e.tail != NIL {
            self.nodes[e.tail as usize].next = self.free;
            self.free = e.head;
        }
        self.len -= 1;
        self.in_flight -= e.awaiting as usize;
        // Close the gap: pull back every follower of the cluster whose
        // home slot is not strictly inside (hole, follower].
        let mask = self.slots.len() - 1;
        let (mut hole, mut j) = (i, i);
        loop {
            j = (j + 1) & mask;
            if !self.slots[j].live {
                break;
            }
            let home = self.home(self.slots[j].key);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = Self::DEAD;
    }

    /// Drop every parked waiter `keep` rejects; entries stay (an entry
    /// whose waiters all went still has a lookup outstanding).
    pub(crate) fn retain_waiters(&mut self, mut keep: impl FnMut(&Waiter) -> bool) {
        for i in 0..self.slots.len() {
            if !self.slots[i].live {
                continue;
            }
            let (mut head, mut tail) = (NIL, NIL);
            let mut cur = self.slots[i].head;
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                if keep(&self.nodes[cur as usize].waiter) {
                    match tail {
                        NIL => head = cur,
                        t => self.nodes[t as usize].next = cur,
                    }
                    tail = cur;
                    self.nodes[cur as usize].next = NIL;
                } else {
                    self.nodes[cur as usize].next = self.free;
                    self.free = cur;
                }
                cur = next;
            }
            self.slots[i].head = head;
            self.slots[i].tail = tail;
        }
    }

    /// Every address awaiting a reply, ascending — the deterministic
    /// order the re-homing sweep walks them in.
    pub(crate) fn awaiting_sorted(&self) -> Vec<A> {
        let mut keys: Vec<A> = self
            .slots
            .iter()
            .filter(|e| e.live && e.awaiting)
            .map(|e| e.key)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Forget everything (the worker died).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(Self::DEAD);
        self.len = 0;
        self.in_flight = 0;
        self.nodes.clear();
        self.free = NIL;
    }

    #[inline]
    fn alloc(&mut self, waiter: Waiter) -> u32 {
        let node = Node { waiter, next: NIL };
        match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "waiter slab overflow");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            i => {
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            }
        }
    }

    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Self::DEAD; old.len() * 2];
        self.shift -= 1;
        for e in old.into_iter().filter(|e| e.live) {
            let i = self.find(e.key).expect_err("keys are distinct");
            self.slots[i] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A waiter tagged `n` (its `src`): every test tags fewer than
    /// 2^16 waiters, so tags stay distinct.
    fn remote(n: u64) -> Waiter {
        Waiter::Remote {
            src: u16::try_from(n).expect("tag fits a u16"),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Park(u32),
        ParkAwaiting(u32),
        Take(u32),
        TakeAwaiting(u32),
        ClearAwaiting(u32),
        DropOdd,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        // Few keys, so entries are removed and re-inserted through
        // shifted clusters all the time.
        const KEYS: u32 = 48;
        proptest::collection::vec(
            prop_oneof![
                6 => (0..KEYS).prop_map(Op::Park),
                3 => (0..KEYS).prop_map(Op::ParkAwaiting),
                4 => (0..KEYS).prop_map(Op::Take),
                3 => (0..KEYS).prop_map(Op::TakeAwaiting),
                1 => (0..KEYS).prop_map(Op::ClearAwaiting),
                1 => Just(Op::DropOdd),
            ],
            0..400,
        )
    }

    /// The table against the structures it replaced:
    /// `HashMap<A, Vec<Waiter>>` + the awaiting set.
    fn model_check<A: Key>(ops: &[Op], widen: fn(u32) -> A) {
        // Capacity 2 → 8 slots: the run grows the table several times.
        let mut table: PendingTable<A> = PendingTable::with_capacity(2);
        let mut model: HashMap<A, (Vec<Waiter>, bool)> = HashMap::new();
        let mut out = Vec::new();
        for (n, op) in ops.iter().enumerate() {
            let w = remote(n as u64);
            match *op {
                Op::Park(k) | Op::ParkAwaiting(k) => {
                    let key = widen(k);
                    let new = table.park(key, w);
                    assert_eq!(new.is_some(), !model.contains_key(&key));
                    let entry = model.entry(key).or_default();
                    entry.0.push(w);
                    if let (Some(new), Op::ParkAwaiting(_)) = (new, op) {
                        table.mark_awaiting(new);
                        entry.1 = true;
                    }
                }
                Op::Take(k) => {
                    let got = table.take(widen(k), &mut out);
                    let expect = model.remove(&widen(k));
                    assert_eq!(got, expect.is_some());
                    assert_eq!(out, expect.map(|e| e.0).unwrap_or_default(), "FIFO order");
                }
                Op::TakeAwaiting(k) => {
                    let key = widen(k);
                    let got = table.take_awaiting(key, &mut out);
                    let expect = match model.get(&key) {
                        Some(&(_, true)) => model.remove(&key),
                        _ => None,
                    };
                    assert_eq!(got, expect.is_some());
                    assert_eq!(out, expect.map(|e| e.0).unwrap_or_default(), "FIFO order");
                }
                Op::ClearAwaiting(k) => {
                    let flag = model.get_mut(&widen(k)).map(|e| std::mem::take(&mut e.1));
                    assert_eq!(table.clear_awaiting(widen(k)), flag == Some(true));
                }
                Op::DropOdd => {
                    let odd = |w: &Waiter| matches!(w, Waiter::Remote { src } if src % 2 == 1);
                    table.retain_waiters(|w| !odd(w));
                    for e in model.values_mut() {
                        e.0.retain(|w| !odd(w));
                    }
                }
            }
            assert_eq!(table.len(), model.len());
            assert_eq!(table.is_empty(), model.is_empty());
            assert_eq!(table.in_flight(), model.values().filter(|e| e.1).count());
            let mut awaiting: Vec<A> = model.iter().filter(|e| e.1 .1).map(|e| *e.0).collect();
            awaiting.sort_unstable();
            assert_eq!(table.awaiting_sorted(), awaiting);
        }
        // Everything still parked comes out, in order; the slab then
        // holds no node that is not on the free list.
        for (key, (waiters, _)) in model {
            assert!(table.take(key, &mut out));
            assert_eq!(out, waiters);
        }
        assert!(table.is_empty());
        let mut free = 0;
        let mut cur = table.free;
        while cur != NIL {
            free += 1;
            cur = table.nodes[cur as usize].next;
        }
        assert_eq!(free, table.nodes.len(), "slab nodes leaked");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_hashmap_model_v4(ops in arb_ops()) {
            model_check::<u32>(&ops, |k| k.wrapping_mul(0x0101_0101));
        }

        #[test]
        fn matches_hashmap_model_v6(ops in arb_ops()) {
            // Keys that differ only above bit 64 must still spread.
            model_check::<u128>(&ops, |k| (k as u128) << 72 | 0x2001 << 112);
        }
    }

    #[test]
    fn removed_slots_are_reused_without_growth() {
        // A miss-heavy worker parks and takes millions of distinct
        // addresses; with no tombstones the table must stay the size
        // its live population needs.
        let mut t: PendingTable<u32> = PendingTable::with_capacity(64);
        let slots = t.slots.len();
        let mut out = Vec::new();
        for round in 0..10_000u32 {
            for k in 0..32 {
                assert!(t.park(round * 32 + k, remote(k as u64)).is_some());
            }
            for k in 0..32 {
                assert!(t.take(round * 32 + k, &mut out));
                assert_eq!(out, [remote(k as u64)]);
            }
        }
        assert_eq!(t.slots.len(), slots);
        assert!(
            t.nodes.len() <= 32,
            "slab grew past the live high-water mark"
        );
        assert!(t.slots.iter().all(|e| !e.live));
    }

    /// Longest distance of a live entry from its home slot.
    fn max_displacement<A: Key>(t: &PendingTable<A>) -> usize {
        let mask = t.slots.len() - 1;
        (0..t.slots.len())
            .filter(|&i| t.slots[i].live)
            .map(|i| i.wrapping_sub(t.home(t.slots[i].key)) & mask)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn addresses_with_correlated_halves_spread() {
        // Addresses whose two halves are equal — an `hi ^ lo` fold of
        // the v6 ones is a single value. A window's worth of them must
        // still sit near their home slots (a one-slot pile-up would
        // displace the last by thousands).
        let mut v4: PendingTable<u32> = PendingTable::with_capacity(8);
        let mut v6: PendingTable<u128> = PendingTable::with_capacity(8);
        for k in 0..4096u32 {
            assert!(v4.park(k << 16 | k, remote(k as u64)).is_some());
            let half = 0x2001_0db8_0000_0000 | k as u128;
            assert!(v6.park(half << 64 | half, remote(k as u64)).is_some());
        }
        assert!(max_displacement(&v4) <= 32, "{}", max_displacement(&v4));
        assert!(max_displacement(&v6) <= 32, "{}", max_displacement(&v6));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut t: PendingTable<u32> = PendingTable::with_capacity(8);
        for k in 0..20 {
            let new = t.park(k, remote(k as u64)).expect("new");
            t.mark_awaiting(new);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.in_flight(), 0);
        assert!(t.awaiting_sorted().is_empty());
        assert!(!t.take(3, &mut Vec::new()));
    }
}
