//! The version-gated LR-cache: the coherence discipline that makes
//! remote fills safe under concurrent table publication.
//!
//! Replies crossing the fabric carry the table version (`sent_at`) they
//! were computed against. The cache tracks the latest publication
//! version whose invalidations it has processed; a reply older than
//! that may carry a result the invalidation was meant to kill, so it is
//! **never cached** — the waiting entry is evicted instead and the
//! packet completes with a one-off stale delivery, exactly as on a real
//! router. This module isolates that decision (previously inlined in
//! the worker) so it can be interleaving-tested exhaustively with
//! [`spal_check::interleave`] from the ordinary test suite.

use spal_cache::{
    BatchProbe, CacheAddr, FillOutcome, LrCache, Origin, ProbeResult, ReserveOutcome,
};

/// What happened to a version-stamped fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionedFill {
    /// The result was current (`sent_at >=` last processed
    /// invalidation) and went into the cache.
    Cached(FillOutcome),
    /// The result predated a processed invalidation: the waiting entry
    /// was evicted and nothing was cached.
    StaleDropped,
}

/// An [`LrCache`] plus the invalidation-version gate.
#[derive(Debug)]
pub struct VersionedCache<V, A: CacheAddr = u32> {
    cache: LrCache<V, A>,
    /// Latest publication version whose invalidations were processed.
    inval_version: u64,
}

impl<V: Copy + Eq + std::fmt::Debug, A: CacheAddr> VersionedCache<V, A> {
    /// Wrap a cache; no invalidations processed yet (version 0).
    pub fn new(cache: LrCache<V, A>) -> Self {
        VersionedCache {
            cache,
            inval_version: 0,
        }
    }

    /// Latest publication version whose invalidations were processed.
    pub fn version(&self) -> u64 {
        self.inval_version
    }

    /// See [`LrCache::probe`].
    pub fn probe(&mut self, addr: A) -> ProbeResult<V> {
        self.cache.probe(addr)
    }

    /// See [`LrCache::reserve`].
    pub fn reserve(&mut self, addr: A) -> ReserveOutcome {
        self.cache.reserve(addr)
    }

    /// See [`LrCache::probe_each`] — the batched probe pass with the
    /// miss-path reservation folded in, one [`BatchProbe`] per address
    /// handed to `sink` with its lane index. Versioning does not enter
    /// the probe path (only fills are gated), so this is a plain
    /// delegation.
    #[inline]
    pub fn probe_each<S: FnMut(usize, BatchProbe<V>)>(&mut self, addrs: &[A], sink: S) {
        self.cache.probe_each(addrs, sink)
    }

    /// Process a full-flush invalidation published at `version`.
    pub fn apply_flush(&mut self, version: u64) {
        self.cache.flush();
        self.inval_version = self.inval_version.max(version);
    }

    /// Process a prefix-targeted invalidation published at `version`.
    pub fn apply_invalidation(&mut self, bits: A, len: u8, version: u64) -> usize {
        let dropped = self.cache.invalidate_covered(bits, len);
        self.inval_version = self.inval_version.max(version);
        dropped
    }

    /// Fill with a locally computed result. Local lookups run on the
    /// pinned snapshot *after* this worker drained its control ring, so
    /// they are current by construction and skip the gate.
    pub fn fill_local(&mut self, addr: A, value: V, origin: Origin) -> FillOutcome {
        self.cache.fill(addr, value, origin)
    }

    /// Fill with a result computed against table version `sent_at`
    /// (a fabric reply). Stale results are dropped, not cached, and the
    /// waiting entry (if any) is evicted so a later probe re-resolves.
    pub fn fill_versioned(
        &mut self,
        addr: A,
        value: V,
        origin: Origin,
        sent_at: u64,
    ) -> VersionedFill {
        if sent_at >= self.inval_version {
            VersionedFill::Cached(self.cache.fill(addr, value, origin))
        } else {
            self.cache.invalidate_addr(addr);
            VersionedFill::StaleDropped
        }
    }

    /// Every complete resident entry (see [`LrCache::entries`]).
    pub fn entries(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.cache.entries()
    }

    /// Statistics of the wrapped cache.
    pub fn stats(&self) -> &spal_cache::CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_cache::LrCacheConfig;

    fn vc() -> VersionedCache<u16> {
        VersionedCache::new(LrCache::new(LrCacheConfig {
            blocks: 16,
            assoc: 4,
            victim_blocks: 0,
            ..Default::default()
        }))
    }

    #[test]
    fn current_reply_is_cached() {
        let mut c = vc();
        c.apply_invalidation(0, 0, 3);
        assert_eq!(
            c.fill_versioned(1, 7, Origin::Rem, 3),
            VersionedFill::Cached(FillOutcome::Inserted)
        );
        assert!(matches!(c.probe(1), ProbeResult::Hit { value: 7, .. }));
    }

    #[test]
    fn stale_reply_is_dropped_and_evicts_waiter() {
        let mut c = vc();
        c.reserve(1);
        c.apply_invalidation(0xFF00_0000, 8, 5); // unrelated prefix; bumps version
        assert_eq!(
            c.fill_versioned(1, 7, Origin::Rem, 4),
            VersionedFill::StaleDropped
        );
        assert_eq!(c.probe(1), ProbeResult::Miss);
    }

    #[test]
    fn version_is_monotone() {
        let mut c = vc();
        c.apply_flush(4);
        c.apply_invalidation(0, 0, 2); // older publication; must not regress
        assert_eq!(c.version(), 4);
        assert_eq!(
            c.fill_versioned(1, 7, Origin::Rem, 3),
            VersionedFill::StaleDropped
        );
    }
}
