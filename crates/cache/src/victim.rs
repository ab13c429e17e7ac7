//! The victim cache: a small fully-associative cache holding blocks
//! evicted from the main array by conflict misses (§3.2). The paper
//! equips every LR-cache with an 8-block victim cache and probes it in
//! parallel with the main array.

use crate::addr::CacheAddr;
use crate::policy::ReplacementPolicy;
use rand::rngs::SmallRng;
use rand::Rng;

/// A complete (non-waiting) block stored in the victim cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimBlock<V, A: CacheAddr = u32> {
    pub addr: A,
    pub value: V,
    /// The M bit travels with the block so a promoted entry keeps its
    /// LOC/REM class.
    pub origin_is_rem: bool,
}

/// Fully-associative victim cache with a configurable capacity and
/// replacement policy (LRU by default, matching §5.1).
///
/// Stored as parallel arrays: every miss of the main array asks "is
/// this address here?" ([`VictimCache::take`]) and every eviction asks
/// it again ([`VictimCache::insert`]), so the addresses sit contiguously
/// — eight IPv4 addresses are half a cache line — and the values and
/// recency stamps are only touched on a match or a replacement.
#[derive(Debug, Clone)]
pub struct VictimCache<V, A: CacheAddr = u32> {
    addrs: Vec<A>,
    /// `(value, origin_is_rem)` of the block at the same index.
    payloads: Vec<(V, bool)>,
    /// One stamp per block, whichever the policy orders by: last use
    /// under LRU (refreshed by [`VictimCache::peek`]), insertion under
    /// FIFO. `Random` never reads it.
    stamps: Vec<u64>,
    capacity: usize,
    policy: ReplacementPolicy,
    clock: u64,
}

impl<V: Copy + Eq, A: CacheAddr> VictimCache<V, A> {
    /// Create a victim cache with `capacity` blocks (0 disables it).
    pub fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
        VictimCache {
            addrs: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            capacity,
            policy,
            clock: 0,
        }
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the victim cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn position(&self, addr: A) -> Option<usize> {
        self.addrs.iter().position(|&a| a == addr)
    }

    fn block(&self, i: usize) -> VictimBlock<V, A> {
        let (value, origin_is_rem) = self.payloads[i];
        VictimBlock {
            addr: self.addrs[i],
            value,
            origin_is_rem,
        }
    }

    /// Look up `addr`; on a hit the block is *removed* (the caller
    /// promotes it back into the main array, the classic swap).
    #[inline]
    pub fn take(&mut self, addr: A) -> Option<VictimBlock<V, A>> {
        let pos = self.position(addr)?;
        let block = self.block(pos);
        self.addrs.swap_remove(pos);
        self.payloads.swap_remove(pos);
        self.stamps.swap_remove(pos);
        Some(block)
    }

    /// Non-destructive lookup (used by probes that only need the value).
    pub fn peek(&mut self, addr: A) -> Option<VictimBlock<V, A>> {
        self.clock += 1;
        let pos = self.position(addr)?;
        if self.policy == ReplacementPolicy::Lru {
            self.stamps[pos] = self.clock;
        }
        Some(self.block(pos))
    }

    /// Insert a block evicted from the main array, evicting by policy if
    /// full. Returns the displaced block, if any.
    pub fn insert(
        &mut self,
        block: VictimBlock<V, A>,
        rng: &mut SmallRng,
    ) -> Option<VictimBlock<V, A>> {
        if self.capacity == 0 {
            return Some(block);
        }
        self.clock += 1;
        // Same address may re-arrive after a promote/evict cycle; replace.
        let idx = match self.position(block.addr) {
            Some(i) => i,
            None if self.addrs.len() < self.capacity => {
                self.addrs.push(block.addr);
                self.payloads.push((block.value, block.origin_is_rem));
                self.stamps.push(self.clock);
                return None;
            }
            None => match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    // Oldest stamp; the first one on a tie.
                    let (mut oldest, mut stamp) = (0, u64::MAX);
                    for (i, &s) in self.stamps.iter().enumerate() {
                        (oldest, stamp) = if s < stamp { (i, s) } else { (oldest, stamp) };
                    }
                    oldest
                }
                ReplacementPolicy::Random => rng.gen_range(0..self.addrs.len()),
            },
        };
        let displaced = self.block(idx);
        self.addrs[idx] = block.addr;
        self.payloads[idx] = (block.value, block.origin_is_rem);
        self.stamps[idx] = self.clock;
        Some(displaced)
    }

    /// Iterate over every resident block's `(addr, value)` pair.
    pub fn entries(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.addrs
            .iter()
            .zip(&self.payloads)
            .map(|(&addr, &(value, _))| (addr, value))
    }

    /// Drop every block (routing-table update flush).
    pub fn flush(&mut self) {
        self.addrs.clear();
        self.payloads.clear();
        self.stamps.clear();
    }

    /// Drop every block whose address satisfies `covered`, returning the
    /// number removed (prefix-targeted invalidation after a routing
    /// update). Survivors keep their relative order.
    pub fn invalidate_where(&mut self, covered: impl Fn(A) -> bool) -> usize {
        let before = self.addrs.len();
        let mut kept = 0;
        for i in 0..before {
            if !covered(self.addrs[i]) {
                self.addrs[kept] = self.addrs[i];
                self.payloads[kept] = self.payloads[i];
                self.stamps[kept] = self.stamps[i];
                kept += 1;
            }
        }
        self.addrs.truncate(kept);
        self.payloads.truncate(kept);
        self.stamps.truncate(kept);
        before - kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    fn blk(addr: u32, value: u16) -> VictimBlock<u16> {
        VictimBlock {
            addr,
            value,
            origin_is_rem: false,
        }
    }

    #[test]
    fn take_removes() {
        let mut v = VictimCache::new(8, ReplacementPolicy::Lru);
        v.insert(blk(1, 10), &mut rng());
        assert_eq!(v.take(1).unwrap().value, 10);
        assert!(v.take(1).is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut v = VictimCache::new(2, ReplacementPolicy::Lru);
        let mut r = rng();
        assert!(v.insert(blk(1, 1), &mut r).is_none());
        assert!(v.insert(blk(2, 2), &mut r).is_none());
        // Touch 1 so 2 becomes LRU.
        assert!(v.peek(1).is_some());
        let displaced = v.insert(blk(3, 3), &mut r).unwrap();
        assert_eq!(displaced.addr, 2);
        assert_eq!(v.len(), 2);
        assert!(v.peek(1).is_some() && v.peek(3).is_some());
    }

    #[test]
    fn zero_capacity_rejects() {
        let mut v = VictimCache::new(0, ReplacementPolicy::Lru);
        let rejected = v.insert(blk(1, 1), &mut rng()).unwrap();
        assert_eq!(rejected.addr, 1);
        assert!(v.is_empty());
    }

    #[test]
    fn duplicate_address_replaces() {
        let mut v = VictimCache::new(4, ReplacementPolicy::Lru);
        let mut r = rng();
        v.insert(blk(5, 1), &mut r);
        let old = v.insert(blk(5, 2), &mut r).unwrap();
        assert_eq!(old.value, 1);
        assert_eq!(v.len(), 1);
        assert_eq!(v.peek(5).unwrap().value, 2);
    }

    #[test]
    fn flush_clears() {
        let mut v = VictimCache::new(4, ReplacementPolicy::Fifo);
        v.insert(blk(1, 1), &mut rng());
        v.flush();
        assert!(v.is_empty());
        assert!(v.peek(1).is_none());
    }

    #[test]
    fn fifo_eviction_ignores_touches() {
        let mut v = VictimCache::new(2, ReplacementPolicy::Fifo);
        let mut r = rng();
        v.insert(blk(1, 1), &mut r);
        v.insert(blk(2, 2), &mut r);
        v.peek(1); // FIFO ignores recency
        let displaced = v.insert(blk(3, 3), &mut r).unwrap();
        assert_eq!(displaced.addr, 1);
    }
}
