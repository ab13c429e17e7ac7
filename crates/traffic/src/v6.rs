//! IPv6 destination traces: [`generate6`] plus the `…6` spellings of
//! [`crate::Trace`] and [`crate::AddressPool`] at `u128`.
//!
//! The locality machinery (Zipf popularity, alias sampling, packet
//! trains) never looks inside an address, and neither do the trace and
//! pool containers; only the pool *construction* is width-specific
//! ([`crate::pool::PoolAddr`]) — draws land inside the covered space of
//! a [`RoutingTable6`], host bits randomized below each drawn prefix,
//! with an optional uncovered fraction for routing-miss traffic.

use crate::locality::LocalityModel;
use spal_rib::v6::RoutingTable6;

/// A pool of IPv6 destination addresses: `size` independent draws, so
/// an address can appear twice.
pub type AddressPool6 = crate::AddressPool<u128>;
/// A sequence of IPv6 packet destination addresses.
pub type Trace6 = crate::Trace<u128>;

/// One-call v6 trace: a Zipf(α = 1.0) stream over `distinct` draws of
/// covered destinations — the working-set shape the v4 presets use —
/// split across nothing (the caller splits per LC).
pub fn generate6(table: &RoutingTable6, distinct: usize, len: usize, seed: u64) -> Trace6 {
    let pool = AddressPool6::covered(table, distinct, 0.02, seed);
    Trace6::generate(
        "v6-zipf",
        &pool,
        LocalityModel::Zipf { alpha: 1.0 },
        len,
        seed.rotate_left(23) ^ 0x7A6F,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::v6::synthesize6_dfz;

    #[test]
    fn generation_is_deterministic_and_mostly_covered() {
        let rt = synthesize6_dfz(2_000, 9);
        let a = generate6(&rt, 400, 5_000, 7);
        let b = generate6(&rt, 400, 5_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
        let covered = a
            .destinations()
            .iter()
            .filter(|&&d| rt.longest_match(d).is_some())
            .count();
        assert!(
            covered * 10 >= a.len() * 9,
            "only {covered}/{} covered",
            a.len()
        );
    }

    #[test]
    fn zipf_trace_has_locality() {
        let rt = synthesize6_dfz(1_000, 3);
        let t = generate6(&rt, 200, 4_000, 1);
        let mut counts = std::collections::HashMap::new();
        for &d in t.destinations() {
            *counts.entry(d).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 3 * t.len() / 200, "max count {max}");
    }
}
