//! Adversarial traffic generators for the operational-scenario suite.
//!
//! Steady-state presets calibrate *favourable* locality; these two
//! generators produce the opposite — the traffic shapes a cache-based
//! forwarding path is most likely to die on in production:
//!
//! * [`flash_crowd`] — a Zipf stream whose popularity mass collapses
//!   mid-trace onto a handful of hot /24 blocks (a flash crowd or a
//!   reflection-style DDoS converging on a few victim subnets);
//! * [`cache_thrash`] — phase-shifting disjoint working sets sized just
//!   past the LR-cache capacity, so LRU replacement evicts every entry
//!   right before its next use.
//!
//! Both are deterministic for a given seed and draw destinations inside
//! the routing table's covered space (plus in-block neighbours for the
//! hot /24s), so every address still resolves through the normal
//! lookup path.

use crate::locality::{LocalityModel, LocalitySampler};
use crate::pool::AddressPool;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a [`flash_crowd`] trace.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdConfig {
    /// Distinct destinations in the pre-collapse Zipf phase.
    pub distinct: usize,
    /// Zipf exponent of the pre-collapse phase.
    pub alpha: f64,
    /// Fraction of the trace after which the crowd forms (0..1).
    pub collapse_at: f64,
    /// Number of hot /24 blocks the crowd converges on.
    pub hot_blocks: usize,
    /// Post-collapse share of packets aimed at the hot blocks; the
    /// remainder keeps the background Zipf stream.
    pub hot_fraction: f64,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        FlashCrowdConfig {
            distinct: 20_000,
            alpha: 0.9,
            collapse_at: 0.5,
            hot_blocks: 8,
            hot_fraction: 0.9,
        }
    }
}

/// Generate a flash-crowd trace: phase one is an ordinary Zipf stream
/// over `cfg.distinct` covered destinations; from `collapse_at` onward,
/// `hot_fraction` of the packets hit addresses inside `hot_blocks`
/// /24 blocks picked around popular pool destinations. Hot packets
/// sample the full 256-address block (not just pool members), the way a
/// crowd fans out across one subnet.
///
/// # Panics
/// Panics on an empty table, zero `hot_blocks`, or fractions outside
/// `[0, 1]`.
pub fn flash_crowd(
    table: &spal_rib::RoutingTable,
    len: usize,
    seed: u64,
    cfg: &FlashCrowdConfig,
) -> Trace {
    assert!(cfg.hot_blocks > 0, "need at least one hot block");
    assert!(
        (0.0..=1.0).contains(&cfg.collapse_at) && (0.0..=1.0).contains(&cfg.hot_fraction),
        "fractions must be in [0, 1]"
    );
    let pool = AddressPool::covered(table, cfg.distinct, 0.0, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A5_4C0D);
    let mut sampler = LocalitySampler::new(LocalityModel::Zipf { alpha: cfg.alpha }, pool.len());
    let addrs = pool.addresses();
    // Hot /24s around distinct popular destinations (low Zipf ranks are
    // at the front of the pool's rank order).
    let mut hot: Vec<u32> = Vec::with_capacity(cfg.hot_blocks);
    for &a in addrs {
        let block = a & 0xFFFF_FF00;
        if !hot.contains(&block) {
            hot.push(block);
            if hot.len() == cfg.hot_blocks {
                break;
            }
        }
    }
    let collapse = (len as f64 * cfg.collapse_at) as usize;
    let dests: Vec<u32> = (0..len)
        .map(|i| {
            if i >= collapse && rng.gen::<f64>() < cfg.hot_fraction {
                hot[rng.gen_range(0..hot.len())] | rng.gen_range(0u32..256)
            } else {
                addrs[sampler.next_index(&mut rng)]
            }
        })
        .collect();
    Trace::new(format!("flash-crowd({}x/24)", cfg.hot_blocks), dests)
}

/// Shape of a [`cache_thrash`] trace.
#[derive(Debug, Clone, Copy)]
pub struct ThrashConfig {
    /// Distinct destinations per phase — size this just past the
    /// LR-cache capacity (entries × a small overshoot) so LRU evicts
    /// each entry right before it recurs.
    pub working_set: usize,
    /// Packets per phase before the working set shifts to a disjoint
    /// one (every shift restarts the cold-miss cascade).
    pub phase_len: usize,
    /// Number of disjoint working sets cycled through.
    pub phases: usize,
}

impl Default for ThrashConfig {
    fn default() -> Self {
        ThrashConfig {
            working_set: 5_000,
            phase_len: 50_000,
            phases: 4,
        }
    }
}

/// Generate a cache-thrash trace: `cfg.phases` pairwise-disjoint
/// working sets of `cfg.working_set` covered destinations; within a
/// phase the set is scanned cyclically (maximal reuse distance — the
/// LRU worst case), and after `cfg.phase_len` packets the next phase's
/// disjoint set takes over.
///
/// # Panics
/// Panics on an empty table or zero sizes.
pub fn cache_thrash(
    table: &spal_rib::RoutingTable,
    len: usize,
    seed: u64,
    cfg: &ThrashConfig,
) -> Trace {
    assert!(
        cfg.working_set > 0 && cfg.phase_len > 0 && cfg.phases > 0,
        "thrash config sizes must be positive"
    );
    let pool = AddressPool::covered(table, cfg.working_set * cfg.phases, 0.0, seed);
    let addrs = pool.addresses();
    let dests: Vec<u32> = (0..len)
        .map(|i| {
            let phase = (i / cfg.phase_len) % cfg.phases;
            let set = &addrs[phase * cfg.working_set..(phase + 1) * cfg.working_set];
            set[i % cfg.working_set]
        })
        .collect();
    Trace::new(
        format!("cache-thrash(ws={},phases={})", cfg.working_set, cfg.phases),
        dests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;
    use std::collections::HashSet;

    #[test]
    fn flash_crowd_concentrates_after_collapse() {
        let rt = synth::small(9);
        let cfg = FlashCrowdConfig {
            distinct: 2_000,
            hot_blocks: 4,
            collapse_at: 0.5,
            hot_fraction: 0.9,
            ..Default::default()
        };
        let t = flash_crowd(&rt, 40_000, 7, &cfg);
        assert_eq!(t.len(), 40_000);
        // The hot /24s are the four busiest post-collapse blocks.
        let (pre, post) = t.destinations().split_at(20_000);
        let mut counts: std::collections::HashMap<u32, usize> = Default::default();
        for &a in post {
            *counts.entry(a >> 8).or_default() += 1;
        }
        let mut by_count: Vec<(u32, usize)> = counts.into_iter().collect();
        by_count.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let hot: HashSet<u32> = by_count[..cfg.hot_blocks].iter().map(|b| b.0).collect();
        let share = |s: &[u32]| {
            s.iter().filter(|&&a| hot.contains(&(a >> 8))).count() as f64 / s.len() as f64
        };
        // What the generator documents: after the collapse,
        // `hot_fraction` of the packets land inside the hot blocks (the
        // background Zipf stream keeps the rest — and keeps the count
        // of distinct /24s high, so that count says nothing); before
        // it, those blocks carry only their ordinary Zipf share — the
        // top four of 2 000 ranks at α = 0.9, about 0.18.
        assert!(
            share(post) >= cfg.hot_fraction - 0.03,
            "post-collapse hot share {:.3}",
            share(post)
        );
        assert!(
            share(pre) < 0.25,
            "pre-collapse hot share {:.3}",
            share(pre)
        );
        // Determinism.
        assert_eq!(
            t.destinations(),
            flash_crowd(&rt, 40_000, 7, &cfg).destinations()
        );
    }

    #[test]
    fn flash_crowd_hot_share_matches_config() {
        let rt = synth::small(9);
        let cfg = FlashCrowdConfig {
            distinct: 2_000,
            hot_blocks: 2,
            collapse_at: 0.0, // hot from packet 0
            hot_fraction: 0.8,
            ..Default::default()
        };
        let t = flash_crowd(&rt, 30_000, 3, &cfg);
        let mut counts: std::collections::HashMap<u32, usize> = Default::default();
        for &a in t.destinations() {
            *counts.entry(a >> 8).or_default() += 1;
        }
        let mut top: Vec<usize> = counts.values().copied().collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        let hot_share = (top[0] + top[1]) as f64 / t.len() as f64;
        assert!(
            (0.75..=0.95).contains(&hot_share),
            "hot share {hot_share:.3}"
        );
    }

    #[test]
    fn cache_thrash_phases_are_disjoint_and_cyclic() {
        let rt = synth::small(5);
        let cfg = ThrashConfig {
            working_set: 300,
            phase_len: 1_000,
            phases: 3,
        };
        let t = cache_thrash(&rt, 6_000, 11, &cfg);
        assert_eq!(t.len(), 6_000);
        let set = |lo: usize, hi: usize| -> HashSet<u32> {
            t.destinations()[lo..hi].iter().copied().collect()
        };
        let p0 = set(0, 1_000);
        let p1 = set(1_000, 2_000);
        let p2 = set(2_000, 3_000);
        assert_eq!(p0.len(), 300);
        assert!(p0.is_disjoint(&p1), "phases share destinations");
        assert!(p1.is_disjoint(&p2), "phases share destinations");
        // The cycle wraps: packets 3000.. replay phase 0's set.
        assert_eq!(set(3_000, 4_000), p0);
        // Within a phase the scan is cyclic: reuse distance == ws.
        let d = t.destinations();
        assert_eq!(d[0], d[300]);
        assert_eq!(d[1], d[301]);
    }

    #[test]
    #[should_panic]
    fn thrash_rejects_zero_working_set() {
        let rt = synth::small(5);
        let _ = cache_thrash(
            &rt,
            100,
            1,
            &ThrashConfig {
                working_set: 0,
                ..Default::default()
            },
        );
    }
}
