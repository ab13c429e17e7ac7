//! Conventional replacement policies applied *after* the mix rule has
//! narrowed the candidate set (§3.2: "A conventional replacement strategy
//! (such as LRU, FIFO, or random) is then applied to the candidate
//! block(s)").

#[cfg(test)]
use rand::{rngs::SmallRng, Rng};

/// The conventional replacement strategy used among eviction candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's default for both the LR-cache and
    /// the victim cache).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Uniform random choice.
    Random,
}

#[cfg(test)]
impl ReplacementPolicy {
    /// Pick the index of the candidate to evict — the reference
    /// statement of each policy, for the differential test's oracle.
    /// [`crate::LrCache`] and the victim cache reach the same choice
    /// from stamps they already hold (oldest stamp, or the
    /// `gen_range`-th candidate in order) without materialising the
    /// candidates.
    ///
    /// `stamps` yields `(candidate_index, lru_stamp, fifo_stamp)` per
    /// candidate; smaller stamps are older. `rng` is used only by
    /// [`ReplacementPolicy::Random`].
    pub(crate) fn choose(
        self,
        candidates: impl Iterator<Item = (usize, u64, u64)>,
        rng: &mut SmallRng,
    ) -> Option<usize> {
        match self {
            ReplacementPolicy::Lru => candidates.min_by_key(|&(_, lru, _)| lru).map(|c| c.0),
            ReplacementPolicy::Fifo => candidates.min_by_key(|&(_, _, fifo)| fifo).map(|c| c.0),
            ReplacementPolicy::Random => {
                let v: Vec<usize> = candidates.map(|c| c.0).collect();
                if v.is_empty() {
                    None
                } else {
                    Some(v[rng.gen_range(0..v.len())])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn lru_picks_oldest_access() {
        let cands = [(0usize, 30u64, 1u64), (1, 10, 2), (2, 20, 3)];
        assert_eq!(
            ReplacementPolicy::Lru.choose(cands.into_iter(), &mut rng()),
            Some(1)
        );
    }

    #[test]
    fn fifo_picks_oldest_insert() {
        let cands = [(0usize, 30u64, 5u64), (1, 10, 9), (2, 20, 3)];
        assert_eq!(
            ReplacementPolicy::Fifo.choose(cands.into_iter(), &mut rng()),
            Some(2)
        );
    }

    #[test]
    fn random_picks_a_candidate() {
        let cands = [(4usize, 0u64, 0u64), (7, 0, 0)];
        let pick = ReplacementPolicy::Random
            .choose(cands.into_iter(), &mut rng())
            .unwrap();
        assert!(pick == 4 || pick == 7);
    }

    #[test]
    fn empty_candidates_yield_none() {
        for p in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            assert_eq!(p.choose(std::iter::empty(), &mut rng()), None);
        }
    }
}
