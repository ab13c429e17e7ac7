//! Property-based tests for the LR-cache, checked against a reference
//! model: whatever replacement does, a hit must return the value most
//! recently filled for that address, waiting entries must complete
//! exactly once, and structural invariants (occupancy bounds, flush
//! semantics) must hold under arbitrary operation sequences.

use proptest::prelude::*;
use spal::cache::{
    FillOutcome, LrCache, LrCacheConfig, MixMode, Origin, ProbeResult, ReplacementPolicy,
    ReserveOutcome,
};
use std::collections::HashMap;

/// One step of an arbitrary cache workload.
#[derive(Debug, Clone)]
enum Op {
    Probe(u32),
    Reserve(u32),
    Fill(u32, u16, bool), // bool = REM
    Flush,
}

fn arb_ops(addr_space: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0..addr_space).prop_map(Op::Probe),
            2 => (0..addr_space).prop_map(Op::Reserve),
            3 => (0..addr_space, any::<u16>(), any::<bool>())
                .prop_map(|(a, v, r)| Op::Fill(a, v, r)),
            1 => Just(Op::Flush),
        ],
        0..len,
    )
}

fn arb_config() -> impl Strategy<Value = LrCacheConfig> {
    (
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![0.0f64, 0.25, 0.5, 0.75, 1.0]),
        prop::sample::select(vec![0usize, 2, 8]),
        prop::sample::select(vec![
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ]),
        any::<bool>(),
    )
        .prop_map(
            |(sets, assoc, gamma, victim, policy, enforce)| LrCacheConfig {
                blocks: sets * assoc,
                assoc,
                mix_rem_fraction: gamma,
                mix_mode: if enforce {
                    MixMode::Enforce
                } else {
                    MixMode::Ignore
                },
                policy,
                victim_blocks: victim,
                seed: 99,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hits_always_return_the_last_filled_value(
        config in arb_config(),
        ops in arb_ops(64, 120),
    ) {
        let mut cache: LrCache<u16> = LrCache::new(config);
        // Reference: last value filled per address since the last flush.
        let mut truth: HashMap<u32, u16> = HashMap::new();
        for op in ops {
            match op {
                Op::Probe(a) => match cache.probe(a) {
                    ProbeResult::Hit { value, .. } => {
                        prop_assert_eq!(
                            Some(&value), truth.get(&a),
                            "hit for {:#x} returned stale value", a
                        );
                    }
                    ProbeResult::HitWaiting | ProbeResult::Miss => {}
                },
                Op::Reserve(a) => {
                    // Reserving after a miss is the intended protocol, but
                    // the cache must tolerate arbitrary call orders.
                    let _ = cache.reserve(a);
                }
                Op::Fill(a, v, rem) => {
                    let origin = if rem { Origin::Rem } else { Origin::Loc };
                    let outcome = cache.fill(a, v, origin);
                    if outcome != FillOutcome::Dropped {
                        truth.insert(a, v);
                    } else {
                        truth.remove(&a);
                    }
                }
                Op::Flush => {
                    cache.flush();
                    truth.clear();
                }
            }
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity(
        config in arb_config(),
        ops in arb_ops(256, 150),
    ) {
        let blocks = config.blocks;
        let mut cache: LrCache<u16> = LrCache::new(config);
        for op in ops {
            match op {
                Op::Probe(a) => { let _ = cache.probe(a); }
                Op::Reserve(a) => { let _ = cache.reserve(a); }
                Op::Fill(a, v, rem) => {
                    let _ = cache.fill(a, v, if rem { Origin::Rem } else { Origin::Loc });
                }
                Op::Flush => cache.flush(),
            }
            let (loc, rem) = cache.occupancy();
            prop_assert!(loc + rem + cache.waiting_count() <= blocks);
        }
    }

    #[test]
    fn reserve_then_fill_completes_waiting(
        config in arb_config(),
        addr in any::<u32>(),
        value in any::<u16>(),
    ) {
        let mut cache: LrCache<u16> = LrCache::new(config);
        if cache.reserve(addr) == ReserveOutcome::Reserved {
            prop_assert_eq!(cache.probe(addr), ProbeResult::HitWaiting);
            prop_assert_eq!(
                cache.fill(addr, value, Origin::Loc),
                FillOutcome::CompletedWaiting
            );
            prop_assert_eq!(
                cache.probe(addr),
                ProbeResult::Hit { value, origin: Origin::Loc }
            );
        }
    }

    #[test]
    fn flush_leaves_nothing_behind(
        config in arb_config(),
        ops in arb_ops(64, 60),
        probes in proptest::collection::vec(0u32..64, 8),
    ) {
        let mut cache: LrCache<u16> = LrCache::new(config);
        for op in ops {
            match op {
                Op::Probe(a) => { let _ = cache.probe(a); }
                Op::Reserve(a) => { let _ = cache.reserve(a); }
                Op::Fill(a, v, rem) => {
                    let _ = cache.fill(a, v, if rem { Origin::Rem } else { Origin::Loc });
                }
                Op::Flush => cache.flush(),
            }
        }
        cache.flush();
        prop_assert_eq!(cache.occupancy(), (0, 0));
        prop_assert_eq!(cache.waiting_count(), 0);
        for a in probes {
            prop_assert_eq!(cache.probe(a), ProbeResult::Miss);
        }
    }

    #[test]
    fn stats_are_consistent(
        config in arb_config(),
        ops in arb_ops(64, 100),
    ) {
        let mut cache: LrCache<u16> = LrCache::new(config);
        let mut probes = 0u64;
        for op in ops {
            match op {
                Op::Probe(a) => { probes += 1; let _ = cache.probe(a); }
                Op::Reserve(a) => { let _ = cache.reserve(a); }
                Op::Fill(a, v, rem) => {
                    let _ = cache.fill(a, v, if rem { Origin::Rem } else { Origin::Loc });
                }
                Op::Flush => cache.flush(),
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.probes(), probes);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }
}
