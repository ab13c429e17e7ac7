//! Synthetic BGP update streams.
//!
//! §3.2 of the paper models the consequence of table updates (an
//! LR-cache flush per update, 20–100 updates/s); this module provides
//! the updates themselves — announce/withdraw/re-announce events with
//! realistic proportions — so incremental structures (the DP trie, the
//! binary trie) can be exercised against a rebuilt-from-scratch oracle.

use crate::bits::AddressBits;
use crate::prefix::Prefix;
use crate::table::{NextHop, RouteEntry, RoutingTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::{Entry, HashMap};

/// One routing update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update<A: AddressBits = u32> {
    /// Announce (or re-announce with a new next hop) a route.
    Announce(RouteEntry<A>),
    /// Withdraw the route for a prefix.
    Withdraw(Prefix<A>),
}

impl<A: AddressBits> Update<A> {
    /// The prefix this update announces or withdraws.
    pub fn prefix(self) -> Prefix<A> {
        match self {
            Update::Announce(e) => e.prefix,
            Update::Withdraw(p) => p,
        }
    }
}

/// Configuration of the update generator.
#[derive(Debug, Clone)]
pub struct UpdateStreamConfig {
    /// Number of updates to generate.
    pub count: usize,
    /// Probability an update withdraws an existing route (the rest are
    /// announcements; roughly half of those re-announce an existing
    /// prefix with a new next hop, as BGP churn mostly does).
    pub withdraw_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig {
            count: 1_000,
            withdraw_fraction: 0.3,
            seed: 7,
        }
    }
}

/// What [`update_stream`] draws per address family: the one place the
/// generator looks inside an address.
pub trait ChurnAddr: AddressBits {
    /// Next hops are drawn from `0..NEXT_HOPS`.
    const NEXT_HOPS: u16;

    /// A brand-new (or previously withdrawn) prefix, drawn from the
    /// family's backbone length distribution so churn preserves the
    /// table's shape.
    fn fresh_prefix(rng: &mut StdRng) -> Prefix<Self>;
}

impl ChurnAddr for u32 {
    const NEXT_HOPS: u16 = 32;

    /// Real announcements are /24-heavy.
    fn fresh_prefix(rng: &mut StdRng) -> Prefix {
        let len = crate::synth::sample_length(rng);
        Prefix::new(rng.gen(), len).expect("len <= 32")
    }
}

/// Generate an update stream against `base`. The stream is *consistent*:
/// withdrawals only target prefixes present at that point, and the
/// returned final table reflects all updates applied in order.
pub fn update_stream<A: ChurnAddr>(
    base: &RoutingTable<A>,
    cfg: &UpdateStreamConfig,
) -> (Vec<Update<A>>, RoutingTable<A>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut live: Vec<RouteEntry<A>> = base.entries().to_vec();
    // Where each live prefix sits in `live`, so a fresh announce finds
    // its duplicate without scanning the table.
    let mut position: HashMap<Prefix<A>, usize> = live
        .iter()
        .enumerate()
        .map(|(i, e)| (e.prefix, i))
        .collect();
    let mut updates = Vec::with_capacity(cfg.count);
    for _ in 0..cfg.count {
        let withdraw = !live.is_empty() && rng.gen_bool(cfg.withdraw_fraction);
        if withdraw {
            let i = rng.gen_range(0..live.len());
            let e = live.swap_remove(i);
            position.remove(&e.prefix);
            if let Some(moved) = live.get(i) {
                position.insert(moved.prefix, i);
            }
            updates.push(Update::Withdraw(e.prefix));
        } else if !live.is_empty() && rng.gen_bool(0.5) {
            // Re-announce an existing prefix with a new next hop.
            let i = rng.gen_range(0..live.len());
            let nh = NextHop(rng.gen_range(0..A::NEXT_HOPS));
            live[i].next_hop = nh;
            updates.push(Update::Announce(live[i]));
        } else {
            let prefix = A::fresh_prefix(&mut rng);
            let entry = RouteEntry {
                prefix,
                next_hop: NextHop(rng.gen_range(0..A::NEXT_HOPS)),
            };
            match position.entry(prefix) {
                Entry::Occupied(at) => live[*at.get()].next_hop = entry.next_hop,
                Entry::Vacant(slot) => {
                    slot.insert(live.len());
                    live.push(entry);
                }
            }
            updates.push(Update::Announce(entry));
        }
    }
    (updates, RoutingTable::from_entries(live))
}

/// Apply one update to a routing table: [`apply_batch`] of one.
pub fn apply<A: AddressBits>(table: &mut RoutingTable<A>, update: Update<A>) {
    apply_batch(table, &[update]);
}

/// Apply a batch of updates with the semantics of applying them one by
/// one — the last update per prefix wins — in one pass over the table:
/// each distinct prefix is binary-searched once and a re-announcement is
/// overwritten in place; then the withdrawn routes are closed up and the
/// new ones opened with one `copy_within` sweep each over the tail. That
/// is at most two tail moves per batch instead of one per update, and
/// the table's buffer is reused (it grows only by the net insertions).
pub fn apply_batch<A: AddressBits>(table: &mut RoutingTable<A>, batch: &[Update<A>]) {
    // The last update per prefix, in entry order (`Prefix`'s order is
    // bits, then length): reversed, a stable sort puts each prefix's
    // last update first in its run, and `dedup` keeps the first.
    let mut last: Vec<Update<A>> = batch.iter().rev().copied().collect();
    last.sort_by_key(|u| u.prefix());
    last.dedup_by_key(|u| u.prefix());
    table.set_sorted(last.into_iter().map(|u| match u {
        Update::Announce(e) => (e.prefix, Some(e.next_hop)),
        Update::Withdraw(p) => (p, None),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use crate::table::tests::{random_prefix, random_table, RandomAddr};
    use crate::v6::synthesize6_dfz;

    /// The stream's invariants, for a table of either width.
    fn stream_invariants<A: ChurnAddr>(base: &RoutingTable<A>, cfg: &UpdateStreamConfig) {
        let (updates, fin) = update_stream(base, cfg);
        assert_eq!(updates.len(), cfg.count);
        // Withdrawals only target live prefixes, and replaying the
        // stream reaches the returned final table.
        let mut table = base.clone();
        let mut live: std::collections::HashSet<Prefix<A>> = base.prefixes().collect();
        for &u in &updates {
            match u {
                Update::Announce(e) => {
                    live.insert(e.prefix);
                }
                Update::Withdraw(p) => {
                    assert!(live.remove(&p), "withdrew a dead prefix {p}");
                }
            }
            apply(&mut table, u);
            let expect = match u {
                Update::Announce(e) => Some(e.next_hop),
                Update::Withdraw(_) => None,
            };
            assert_eq!(table.get(u.prefix()), expect);
        }
        assert_eq!(table.entries(), fin.entries());
        // Deterministic.
        let (again, fin_again) = update_stream(base, cfg);
        assert_eq!(updates, again);
        assert_eq!(fin.entries(), fin_again.entries());
    }

    #[test]
    fn stream_is_consistent_live_and_deterministic() {
        stream_invariants(&synth::small(3), &UpdateStreamConfig::default());
        let v6 = UpdateStreamConfig {
            count: 1_500,
            withdraw_fraction: 0.3,
            seed: 17,
        };
        stream_invariants(&synthesize6_dfz(2_000, 3), &v6);
    }

    /// `update_stream`'s updates cut into batches of 1 to 64, each with a
    /// few updates mixed in that the stream never emits — a fresh prefix
    /// announced, withdrawn and re-announced, a fresh prefix announced
    /// then withdrawn, a live route withdrawn then re-announced, and the
    /// withdrawal of an absent prefix — applied by `apply_batch` and by
    /// sequential `insert`/`remove`.
    fn batches_equal_sequential_inserts_and_removes<A: ChurnAddr + RandomAddr>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..20 {
            let base = random_table::<A>(&mut rng, 400);
            let cfg = UpdateStreamConfig {
                count: 600,
                withdraw_fraction: 0.3,
                seed: seed + round,
            };
            let (stream, fin) = update_stream(&base, &cfg);
            let (mut plain, mut batched, mut sequential) = (base.clone(), base.clone(), base);
            let bases: Vec<A> = (0..4).map(|_| A::random(&mut rng)).collect();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (cut, tail) = rest.split_at(rng.gen_range(1..=64).min(rest.len()));
                rest = tail;
                apply_batch(&mut plain, cut);
                let mut batch = cut.to_vec();
                let nh = |rng: &mut StdRng| NextHop(rng.gen_range(0..A::NEXT_HOPS));
                let fresh = random_prefix(&mut rng, &bases);
                let (a, b) = (nh(&mut rng), nh(&mut rng));
                let mut extra = vec![
                    Update::Announce(RouteEntry {
                        prefix: fresh,
                        next_hop: a,
                    }),
                    Update::Withdraw(fresh),
                    Update::Announce(RouteEntry {
                        prefix: fresh,
                        next_hop: b,
                    }),
                    Update::Withdraw(random_prefix(&mut rng, &bases)),
                ];
                let gone = random_prefix(&mut rng, &bases);
                extra.extend([
                    Update::Announce(RouteEntry {
                        prefix: gone,
                        next_hop: a,
                    }),
                    Update::Withdraw(gone),
                ]);
                if let Some(&live) = sequential
                    .entries()
                    .get(rng.gen_range(0..=sequential.len()))
                {
                    extra.extend([Update::Withdraw(live.prefix), Update::Announce(live)]);
                }
                for u in extra {
                    batch.insert(rng.gen_range(0..=batch.len()), u);
                }
                apply_batch(&mut batched, &batch);
                for &u in &batch {
                    match u {
                        Update::Announce(e) => sequential.insert(e),
                        Update::Withdraw(p) => {
                            sequential.remove(p);
                        }
                    }
                }
                assert_eq!(batched.entries(), sequential.entries(), "{batch:?}");
            }
            // Without the extras, the stream's batches reach its final table.
            assert_eq!(plain.entries(), fin.entries());
        }
    }

    #[test]
    fn apply_batch_equals_sequential_updates_v4() {
        batches_equal_sequential_inserts_and_removes::<u32>(0xba7c);
    }

    #[test]
    fn apply_batch_equals_sequential_updates_v6() {
        batches_equal_sequential_inserts_and_removes::<u128>(0xba7d);
    }

    #[test]
    fn last_update_per_prefix_wins_within_a_batch() {
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        let route = |s: &str, nh| {
            Update::Announce(RouteEntry {
                prefix: p(s),
                next_hop: NextHop(nh),
            })
        };
        let mut t = RoutingTable::from_entries([
            RouteEntry {
                prefix: p("10.0.0.0/8"),
                next_hop: NextHop(1),
            },
            RouteEntry {
                prefix: p("11.0.0.0/8"),
                next_hop: NextHop(2),
            },
        ]);
        apply_batch(
            &mut t,
            &[
                route("12.0.0.0/8", 3),
                Update::Withdraw(p("12.0.0.0/8")),
                route("12.0.0.0/8", 4),
                Update::Withdraw(p("10.0.0.0/8")),
                Update::Withdraw(p("9.0.0.0/8")),
                route("13.0.0.0/8", 5),
                Update::Withdraw(p("13.0.0.0/8")),
                route("11.0.0.0/8", 6),
            ],
        );
        let got: Vec<(Prefix, u16)> = t
            .entries()
            .iter()
            .map(|e| (e.prefix, e.next_hop.0))
            .collect();
        assert_eq!(got, [(p("11.0.0.0/8"), 6), (p("12.0.0.0/8"), 4)]);
    }

    #[test]
    fn withdraw_fraction_zero_only_announces() {
        let base = synth::small(9);
        let cfg = UpdateStreamConfig {
            withdraw_fraction: 0.0,
            count: 200,
            seed: 1,
        };
        let (updates, fin) = update_stream(&base, &cfg);
        assert!(updates.iter().all(|u| matches!(u, Update::Announce(_))));
        assert!(fin.len() >= base.len());
    }

    /// FNV-1a over 64-bit words, low byte first.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The words of one route: bits (high half, low half), length, next
    /// hop (`u64::MAX` for a withdrawal).
    fn route_words<A: AddressBits>(p: Prefix<A>, next_hop: Option<NextHop>) -> [u64; 4] {
        let bits: u128 = p.bits().into();
        [
            (bits >> 64) as u64,
            bits as u64,
            p.len() as u64,
            next_hop.map_or(u64::MAX, |nh| nh.0 as u64),
        ]
    }

    /// (hash of the update stream, hash of the final table).
    fn stream_hashes<A: ChurnAddr>(base: &RoutingTable<A>) -> (u64, u64) {
        let cfg = UpdateStreamConfig {
            count: 500,
            seed: 7,
            ..UpdateStreamConfig::default()
        };
        let (updates, fin) = update_stream(base, &cfg);
        let stream = fnv1a(updates.iter().flat_map(|u| match *u {
            Update::Announce(e) => route_words(e.prefix, Some(e.next_hop)),
            Update::Withdraw(p) => route_words(p, None),
        }));
        let table = fnv1a(
            fin.entries()
                .iter()
                .flat_map(|e| route_words(e.prefix, Some(e.next_hop))),
        );
        (stream, table)
    }

    /// The generators' streams, pinned directly: the dataplane goldens
    /// pin them only through a whole run, this says *which* generator
    /// drifted. Constants computed at 8c43d71, when the v6 stream still
    /// came from a second copy of the generator over a second table type.
    #[test]
    fn update_streams_are_pinned() {
        assert_eq!(
            stream_hashes(&synth::small(11)),
            (0x6a90f8ab82fa5448, 0x70c2922b2e867a05),
            "v4 update_stream drifted"
        );
        assert_eq!(
            stream_hashes(&synthesize6_dfz(3_000, 11)),
            (0xf3bf5279c5d22d11, 0x9abbdf32d61d05d0),
            "v6 update_stream drifted"
        );
    }
}
