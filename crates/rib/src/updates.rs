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

/// Apply an update to a routing table (the oracle path).
pub fn apply<A: AddressBits>(table: &mut RoutingTable<A>, update: Update<A>) {
    match update {
        Update::Announce(e) => table.insert(e),
        Update::Withdraw(p) => {
            table.remove(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
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
