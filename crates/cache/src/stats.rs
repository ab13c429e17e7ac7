//! Hit/miss accounting for an LR-cache.

/// Event counters accumulated by an [`crate::LrCache`]. All counters are
/// monotone: flushes do *not* reset them — the paper accumulates
/// statistics across update-induced flushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that hit a complete entry with M = LOC.
    pub hits_loc: u64,
    /// Probes that hit a complete entry with M = REM.
    pub hits_rem: u64,
    /// Probes that hit an entry whose W bit is still set (the packet
    /// joins the entry's waiting list).
    pub hits_waiting: u64,
    /// Probes that hit in the victim cache (also counted in the hit
    /// class above once promoted).
    pub victim_hits: u64,
    /// Probes that missed everywhere.
    pub misses: u64,
    /// Entries reserved with the W bit set (early recording).
    pub reservations: u64,
    /// Reservations that failed because every block in the set was
    /// waiting.
    pub reservation_failures: u64,
    /// Replies that completed a waiting entry.
    pub fills: u64,
    /// Complete entries evicted from the main array (before any victim-
    /// cache rescue).
    pub evictions: u64,
    /// Whole-cache flushes (routing-table updates).
    pub flushes: u64,
    /// Entries (complete, waiting, or victim) evicted by prefix-targeted
    /// invalidation — the churn-friendly alternative to a full flush.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total probes.
    pub fn probes(&self) -> u64 {
        self.hits_loc + self.hits_rem + self.hits_waiting + self.misses
    }

    /// Hit rate over complete-entry hits (waiting hits count as hits:
    /// the packet is satisfied without a new FE lookup).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.probes();
        if probes == 0 {
            return 0.0;
        }
        (self.hits_loc + self.hits_rem + self.hits_waiting) as f64 / probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits_loc: 6,
            hits_rem: 2,
            hits_waiting: 2,
            misses: 10,
            ..Default::default()
        };
        assert_eq!(s.probes(), 20);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let s = CacheStats::default();
        assert_eq!(s.probes(), 0);
        assert_eq!(s.hit_rate(), 0.0);
    }
}
