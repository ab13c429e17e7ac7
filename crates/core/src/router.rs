//! The functional (untimed) SPAL router: ψ line cards, each with a
//! partitioned forwarding table and an LR-cache, sharing lookup results
//! through home-LC caching exactly as §3.3 describes — minus the cycle
//! timing, which `spal-sim` adds on top.
//!
//! This model processes one packet to completion at a time, so the W-bit
//! waiting machinery never engages here; what it *does* exercise — and
//! what its tests pin down — is the full result-sharing semantics: local
//! vs remote homes, LOC/REM cache fills at both ends, and the invariant
//! that every lookup returns exactly the full-table longest-prefix match.

use crate::fwd::{ForwardingTable, LpmAlgorithm};
use crate::partition::Partitioning;
use spal_cache::{FillOutcome, LrCache, LrCacheConfig, Origin, ProbeResult};
use spal_lpm::Lpm;
use spal_rib::{NextHop, RoutingTable};

/// Configuration of a SPAL router.
#[derive(Debug, Clone)]
pub struct SpalRouterConfig {
    /// Number of line cards ψ (any integer ≥ 1).
    pub psi: usize,
    /// LPM algorithm for every FE.
    pub algorithm: LpmAlgorithm,
    /// LR-cache configuration (β, associativity, γ, victim size, …).
    pub cache: LrCacheConfig,
}

impl Default for SpalRouterConfig {
    fn default() -> Self {
        SpalRouterConfig {
            psi: 16,
            algorithm: LpmAlgorithm::Lulea,
            cache: LrCacheConfig::paper(4096),
        }
    }
}

/// How a lookup was satisfied — the untimed analogue of the §3.3 flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Hit in the arrival LC's LR-cache.
    LocalCacheHit,
    /// Missed locally; the address is homed at the arrival LC and its FE
    /// ran the matching algorithm.
    LocalFeLookup,
    /// Missed locally; the home LC's LR-cache already had the result.
    RemoteCacheHit,
    /// Missed locally and at the home LC; the home FE ran the matching
    /// algorithm and replied.
    RemoteFeLookup,
}

/// One line card: its FE's forwarding table plus its LR-cache.
struct LineCard {
    fwd: ForwardingTable,
    cache: LrCache<Option<NextHop>>,
}

/// The functional SPAL router.
pub struct SpalRouter {
    partitioning: Partitioning,
    lcs: Vec<LineCard>,
    fe_lookups: Vec<u64>,
    fabric_requests: u64,
}

impl SpalRouter {
    /// Build a router: select partitioning bits, fragment the table, and
    /// construct each LC's trie and LR-cache.
    pub fn build(table: &RoutingTable, config: &SpalRouterConfig) -> Self {
        let eta = crate::bits::eta_for(config.psi);
        let bits = crate::bits::select_bits(table, eta);
        Self::build_with_bits(table, config, bits)
    }

    /// Build with explicit partitioning bits (for experiments that sweep
    /// or fix them).
    pub fn build_with_bits(table: &RoutingTable, config: &SpalRouterConfig, bits: Vec<u8>) -> Self {
        let partitioning = Partitioning::new(table, bits, config.psi);
        let lcs = partitioning
            .forwarding_tables(table)
            .iter()
            .enumerate()
            .map(|(i, part)| LineCard {
                fwd: ForwardingTable::build(config.algorithm, part),
                cache: LrCache::new(LrCacheConfig {
                    seed: config.cache.seed.wrapping_add(i as u64),
                    ..config.cache.clone()
                }),
            })
            .collect();
        SpalRouter {
            partitioning,
            lcs,
            fe_lookups: vec![0; config.psi],
            fabric_requests: 0,
        }
    }

    /// The partitioning in use.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Number of line cards.
    pub fn psi(&self) -> usize {
        self.lcs.len()
    }

    /// Per-LC FE lookup counts (load balance diagnostics).
    pub fn fe_lookups(&self) -> &[u64] {
        &self.fe_lookups
    }

    /// Requests that crossed the fabric.
    pub fn fabric_requests(&self) -> u64 {
        self.fabric_requests
    }

    /// Cache statistics of one LC.
    pub fn cache_stats(&self, lc: usize) -> &spal_cache::CacheStats {
        self.lcs[lc].cache.stats()
    }

    /// Total SRAM across one LC: forwarding trie + LR-cache (6 B/block
    /// under IPv4, §6).
    pub fn lc_storage_bytes(&self, lc: usize) -> usize {
        self.lcs[lc].fwd.storage_bytes() + self.lcs[lc].cache.config().blocks * 6
    }

    /// Process one packet arriving at `arrival_lc`: returns the lookup
    /// result and how it was obtained. Cache contents update exactly as
    /// in §3.3 (LOC fill at the home LC, REM fill at the arrival LC).
    pub fn lookup(&mut self, arrival_lc: u16, addr: u32) -> (Option<NextHop>, LookupOutcome) {
        assert!((arrival_lc as usize) < self.lcs.len(), "no such LC");
        // 1. Probe the arrival LC's LR-cache.
        if let ProbeResult::Hit { value, .. } = self.lcs[arrival_lc as usize].cache.probe(addr) {
            return (value, LookupOutcome::LocalCacheHit);
        }
        let home = self.partitioning.home_of(addr);
        if home == arrival_lc {
            // 2a. Local home: the local FE resolves it; fill as LOC.
            let nh = self.fe_lookup(home, addr);
            let _ = self.lcs[arrival_lc as usize]
                .cache
                .fill(addr, nh, Origin::Loc);
            return (nh, LookupOutcome::LocalFeLookup);
        }
        // 2b. Remote home: request crosses the fabric.
        self.fabric_requests += 1;
        let (nh, outcome) = match self.lcs[home as usize].cache.probe(addr) {
            ProbeResult::Hit { value, .. } => (value, LookupOutcome::RemoteCacheHit),
            _ => {
                // Home FE resolves and caches as LOC; the block then
                // serves "upcoming lookup requests … from any LC".
                let nh = self.fe_lookup(home, addr);
                let _ = self.lcs[home as usize].cache.fill(addr, nh, Origin::Loc);
                (nh, LookupOutcome::RemoteFeLookup)
            }
        };
        // 3. The reply fills the arrival LC's cache as REM.
        let fill = self.lcs[arrival_lc as usize]
            .cache
            .fill(addr, nh, Origin::Rem);
        debug_assert_ne!(
            fill,
            FillOutcome::CompletedWaiting,
            "untimed model never waits"
        );
        (nh, outcome)
    }

    /// Flush every LR-cache (a routing-table update, §3.2).
    pub fn flush_caches(&mut self) {
        for lc in &mut self.lcs {
            lc.cache.flush();
        }
    }

    fn fe_lookup(&mut self, lc: u16, addr: u32) -> Option<NextHop> {
        self.fe_lookups[lc as usize] += 1;
        self.lcs[lc as usize].fwd.lookup(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;

    fn small_router(psi: usize) -> (RoutingTable, SpalRouter) {
        let rt = synth::small(51);
        let router = SpalRouter::build(
            &rt,
            &SpalRouterConfig {
                psi,
                algorithm: LpmAlgorithm::Lulea,
                cache: LrCacheConfig {
                    blocks: 256,
                    ..LrCacheConfig::default()
                },
            },
        );
        (rt, router)
    }

    #[test]
    fn lookups_match_full_table() {
        use rand::{Rng, SeedableRng};
        let (rt, mut router) = small_router(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for _ in 0..500 {
            let addr: u32 = rng.gen();
            let arrival = rng.gen_range(0..4) as u16;
            let (nh, _) = router.lookup(arrival, addr);
            assert_eq!(nh, rt.longest_match(addr).map(|e| e.next_hop));
        }
    }

    #[test]
    fn second_lookup_hits_local_cache() {
        let (rt, mut router) = small_router(4);
        let addr = rt.entries()[100].prefix.first_addr();
        let (nh1, o1) = router.lookup(0, addr);
        assert_ne!(o1, LookupOutcome::LocalCacheHit);
        let (nh2, o2) = router.lookup(0, addr);
        assert_eq!(o2, LookupOutcome::LocalCacheHit);
        assert_eq!(nh1, nh2);
    }

    #[test]
    fn home_result_shared_across_lcs() {
        let (rt, mut router) = small_router(4);
        // Find an address whose home is LC 2 and send it from LC 0.
        let addr = rt
            .entries()
            .iter()
            .map(|e| e.prefix.first_addr())
            .find(|&a| router.partitioning().home_of(a) == 2)
            .expect("some address homes at LC 2");
        let (_, o1) = router.lookup(0, addr);
        assert_eq!(o1, LookupOutcome::RemoteFeLookup);
        // A different LC asking for the same address hits the home cache:
        // the FE is not consulted again.
        let (_, o2) = router.lookup(1, addr);
        assert_eq!(o2, LookupOutcome::RemoteCacheHit);
        // And the home LC itself hits its own (LOC) block.
        let (_, o3) = router.lookup(2, addr);
        assert_eq!(o3, LookupOutcome::LocalCacheHit);
        assert_eq!(router.fe_lookups()[2], 1);
    }

    #[test]
    fn local_home_does_not_touch_fabric() {
        let (rt, mut router) = small_router(4);
        let addr = rt
            .entries()
            .iter()
            .map(|e| e.prefix.first_addr())
            .find(|&a| router.partitioning().home_of(a) == 1)
            .unwrap();
        let before = router.fabric_requests();
        let (_, o) = router.lookup(1, addr);
        assert_eq!(o, LookupOutcome::LocalFeLookup);
        assert_eq!(router.fabric_requests(), before);
    }

    #[test]
    fn flush_forces_fe_lookups_again() {
        let (rt, mut router) = small_router(2);
        let addr = rt.entries()[5].prefix.first_addr();
        router.lookup(0, addr);
        router.lookup(0, addr);
        let before = router.fe_lookups().iter().sum::<u64>();
        router.flush_caches();
        let (_, o) = router.lookup(0, addr);
        assert_ne!(o, LookupOutcome::LocalCacheHit);
        assert_eq!(router.fe_lookups().iter().sum::<u64>(), before + 1);
    }

    #[test]
    fn psi_one_router_works() {
        let (rt, mut router) = small_router(1);
        let addr = rt.entries()[0].prefix.first_addr();
        let (nh, o) = router.lookup(0, addr);
        assert_eq!(o, LookupOutcome::LocalFeLookup);
        assert_eq!(nh, rt.longest_match(addr).map(|e| e.next_hop));
        assert_eq!(router.fabric_requests(), 0);
    }

    #[test]
    fn uncovered_address_negative_result_is_cached() {
        let (rt, mut router) = small_router(4);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let addr = loop {
            let a: u32 = rng.gen();
            if !rt.covers(a) {
                break a;
            }
        };
        let (nh1, _) = router.lookup(0, addr);
        assert_eq!(nh1, None);
        // The negative result is cached too (a block holds Option).
        let (nh2, o2) = router.lookup(0, addr);
        assert_eq!(nh2, None);
        assert_eq!(o2, LookupOutcome::LocalCacheHit);
    }

    #[test]
    fn storage_accounting_includes_cache() {
        let (_, router) = small_router(2);
        let s = router.lc_storage_bytes(0);
        assert!(s > 256 * 6, "must include the LR-cache bytes");
    }
}
