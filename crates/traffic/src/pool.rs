//! Pools of distinct destination addresses drawn from a routing table's
//! covered space.
//!
//! A trace's destinations must actually resolve against the forwarding
//! tables (real traces are collected on networks whose routes exist), so
//! pool addresses are sampled *inside* randomly chosen routes. Sampling
//! routes uniformly (rather than by address-space size) concentrates
//! destinations in the short, numerous /24s exactly as production traffic
//! concentrates in allocated, announced space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spal_rib::{AddressBits, RoutingTable};
use std::collections::HashSet;

/// A pool of destination addresses of type `A` (`u32` for IPv4, the
/// default; `u128` for IPv6, spelled [`crate::AddressPool6`]).
#[derive(Debug, Clone)]
pub struct AddressPool<A = u32> {
    addrs: Vec<A>,
}

/// How [`AddressPool::covered`] draws addresses at one width. The two
/// procedures are different algorithms — the IPv4 one rejects
/// duplicates and shuffles, the IPv6 one does neither — and pinned hit
/// rates depend on each, so they stay two.
pub trait PoolAddr: AddressBits {
    /// The addresses of `AddressPool::covered(table, size,
    /// uncovered_fraction, seed)`, in pool order.
    fn draw_covered(
        table: &RoutingTable<Self>,
        size: usize,
        uncovered_fraction: f64,
        seed: u64,
    ) -> Vec<Self>;
}

impl PoolAddr for u32 {
    /// `size` distinct addresses covered by `table`, of which
    /// `uncovered_fraction` of the pool (rounded down) are instead drawn
    /// anywhere outside it (traffic that will miss the routing table).
    ///
    /// # Panics
    /// Panics if the table is empty but covered addresses are requested.
    fn draw_covered(
        table: &RoutingTable,
        size: usize,
        uncovered_fraction: f64,
        seed: u64,
    ) -> Vec<u32> {
        assert!(
            (0.0..=1.0).contains(&uncovered_fraction),
            "uncovered fraction must be in [0, 1]"
        );
        let n_uncovered = (size as f64 * uncovered_fraction) as usize;
        let n_covered = size - n_uncovered;
        assert!(
            n_covered == 0 || !table.is_empty(),
            "cannot draw covered addresses from an empty table"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen: HashSet<u32> = HashSet::with_capacity(size * 2);
        let mut addrs = Vec::with_capacity(size);
        while addrs.len() < n_covered {
            let e = table.entries()[rng.gen_range(0..table.len())];
            let span = e.prefix.size();
            let addr = e
                .prefix
                .first_addr()
                .wrapping_add((rng.gen::<u64>() % span) as u32);
            if seen.insert(addr) {
                addrs.push(addr);
            }
        }
        while addrs.len() < size {
            let addr: u32 = rng.gen();
            if !table.covers(addr) && seen.insert(addr) {
                addrs.push(addr);
            }
        }
        // Shuffle so Zipf rank is independent of how the address was
        // drawn (covered/uncovered, early/late route).
        for i in (1..addrs.len()).rev() {
            let j = rng.gen_range(0..=i);
            addrs.swap(i, j);
        }
        addrs
    }
}

impl PoolAddr for u128 {
    /// `size` draws — not deduplicated: two draws of the same `/128`
    /// route collide — each uniform random with probability
    /// `uncovered_fraction` (likely a routing miss), otherwise inside a
    /// randomly chosen table prefix with random host bits.
    ///
    /// # Panics
    /// Panics if the table is empty and `uncovered_fraction < 1.0`.
    fn draw_covered(
        table: &RoutingTable<u128>,
        size: usize,
        uncovered_fraction: f64,
        seed: u64,
    ) -> Vec<u128> {
        assert!(
            !table.is_empty() || uncovered_fraction >= 1.0,
            "cannot draw covered v6 addresses from an empty table"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6666_0000_0000_0000);
        let mut addrs = Vec::with_capacity(size);
        for _ in 0..size {
            let addr = if rng.gen_bool(uncovered_fraction.clamp(0.0, 1.0)) {
                rng.gen::<u128>()
            } else {
                let e = table.entries()[rng.gen_range(0..table.len())];
                let host = if e.prefix.len() >= 128 {
                    0
                } else {
                    rng.gen::<u128>() >> e.prefix.len()
                };
                e.prefix.bits() | host
            };
            addrs.push(addr);
        }
        addrs
    }
}

impl<A: PoolAddr> AddressPool<A> {
    /// Draw `size` addresses inside `table`'s covered space, all but
    /// `uncovered_fraction` of them; see [`PoolAddr::draw_covered`] for
    /// what each width draws (IPv4 pools are distinct, IPv6 pools are
    /// `size` independent draws).
    pub fn covered(
        table: &RoutingTable<A>,
        size: usize,
        uncovered_fraction: f64,
        seed: u64,
    ) -> Self {
        AddressPool {
            addrs: A::draw_covered(table, size, uncovered_fraction, seed),
        }
    }
}

impl AddressPool {
    /// Like [`AddressPool::covered`], but spatially *clustered*: routes
    /// are drawn `size / cluster` times and `cluster` distinct addresses
    /// are taken inside each, modelling many hosts per active subnet
    /// (the spatial density that range-caching schemes such as ref \[6\]
    /// exploit).
    ///
    /// # Panics
    /// Panics if `cluster` is zero or the table is empty.
    pub fn covered_clustered(table: &RoutingTable, size: usize, cluster: usize, seed: u64) -> Self {
        assert!(cluster > 0, "cluster size must be positive");
        assert!(!table.is_empty(), "cannot draw from an empty table");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen: HashSet<u32> = HashSet::with_capacity(size * 2);
        let mut addrs = Vec::with_capacity(size);
        while addrs.len() < size {
            let e = table.entries()[rng.gen_range(0..table.len())];
            let span = e.prefix.size();
            let want = cluster.min(size - addrs.len()).min(span as usize);
            let mut placed = 0;
            let mut attempts = 0;
            while placed < want && attempts < want * 8 {
                attempts += 1;
                let addr = e
                    .prefix
                    .first_addr()
                    .wrapping_add((rng.gen::<u64>() % span) as u32);
                if seen.insert(addr) {
                    addrs.push(addr);
                    placed += 1;
                }
            }
        }
        for i in (1..addrs.len()).rev() {
            let j = rng.gen_range(0..=i);
            addrs.swap(i, j);
        }
        AddressPool { addrs }
    }
}

impl<A: AddressBits> AddressPool<A> {
    /// A pool of exactly the given addresses (deduplicated, order kept).
    pub fn from_addresses(addrs: impl IntoIterator<Item = A>) -> Self {
        let mut seen = HashSet::new();
        let addrs = addrs.into_iter().filter(|a| seen.insert(*a)).collect();
        AddressPool { addrs }
    }

    /// The addresses, in Zipf-rank order (index 0 is the most popular).
    pub fn addresses(&self) -> &[A] {
        &self.addrs
    }

    /// Number of pooled addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;

    #[test]
    fn covered_addresses_resolve() {
        let rt = synth::small(1);
        let pool = AddressPool::covered(&rt, 500, 0.0, 7);
        assert_eq!(pool.len(), 500);
        for &a in pool.addresses() {
            assert!(rt.covers(a), "{a:#010x} not covered");
        }
    }

    #[test]
    fn uncovered_fraction_respected() {
        let rt = synth::small(1);
        let pool = AddressPool::covered(&rt, 400, 0.25, 7);
        let uncovered = pool.addresses().iter().filter(|&&a| !rt.covers(a)).count();
        assert_eq!(uncovered, 100);
    }

    #[test]
    fn distinct_addresses() {
        let rt = synth::small(2);
        let pool = AddressPool::covered(&rt, 1000, 0.1, 9);
        let set: HashSet<u32> = pool.addresses().iter().copied().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn deterministic_by_seed() {
        let rt = synth::small(3);
        let a = AddressPool::covered(&rt, 200, 0.0, 5);
        let b = AddressPool::covered(&rt, 200, 0.0, 5);
        assert_eq!(a.addresses(), b.addresses());
        let c = AddressPool::covered(&rt, 200, 0.0, 6);
        assert_ne!(a.addresses(), c.addresses());
    }

    #[test]
    fn clustered_pool_is_spatially_dense() {
        let rt = synth::small(7);
        let pool = AddressPool::covered_clustered(&rt, 800, 8, 3);
        assert_eq!(pool.len(), 800);
        // Distinctness preserved.
        let set: HashSet<u32> = pool.addresses().iter().copied().collect();
        assert_eq!(set.len(), 800);
        // Density: many pairs share a /24.
        let mut subnets: HashSet<u32> = HashSet::new();
        for &a in pool.addresses() {
            subnets.insert(a >> 8);
        }
        assert!(
            subnets.len() * 2 < 800,
            "only {} distinct /24s for 800 addrs",
            subnets.len()
        );
        // All covered.
        for &a in pool.addresses() {
            assert!(rt.covers(a));
        }
    }

    #[test]
    fn from_addresses_dedups() {
        let pool = AddressPool::from_addresses([1u32, 2, 2, 3, 1]);
        assert_eq!(pool.addresses(), &[1, 2, 3]);
    }
}
