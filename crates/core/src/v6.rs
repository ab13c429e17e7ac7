//! SPAL over IPv6 — the §6 claim ("SPAL is feasibly applicable to
//! IPv6") made concrete: the same two-criteria bit selection and
//! ROT-partitioning, over 128-bit prefixes.
//!
//! The machinery is the IPv4 machinery — [`spal_rib::Prefix`],
//! [`spal_rib::RoutingTable`] and [`crate::select_bits`] are generic
//! over the address width, and the partitioning state is width-free —
//! so this module is two re-exports, [`select_bits6`] and
//! [`Partitioning6`], and the tests that run the machinery at 128 bits.

use crate::partition::Partitioning;

/// The IPv6 spelling of [`crate::select_bits`], which is generic over
/// the address width (candidate positions `0..=63` at 128 bits).
pub use crate::bits::select_bits as select_bits6;

/// The IPv6 spelling of [`Partitioning`]: the partitioning state is
/// width-free, so both families share one type.
pub type Partitioning6 = Partitioning;

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::v6::synthesize6;

    #[test]
    fn bits_stay_in_routing_prefix_range() {
        let table = synthesize6(5_000, 31);
        let bits = select_bits6(&table, 4);
        assert_eq!(bits.len(), 4);
        // The heavy lengths are /32 and /48, so useful bits sit below 48.
        assert!(bits.iter().all(|&b| b < 48), "bits {bits:?}");
    }

    #[test]
    fn home_lookup_equals_full_lookup_v6() {
        use rand::{Rng, SeedableRng};
        let table = synthesize6(4_000, 33);
        for psi in [3usize, 4, 8] {
            let eta = crate::bits::eta_for(psi);
            let part = Partitioning6::new(&table, select_bits6(&table, eta), psi);
            let tables = part.forwarding_tables(&table);
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            for _ in 0..200 {
                // Mix addresses inside known prefixes with randoms.
                let addr = if rng.gen_bool(0.7) {
                    let e = table.entries()[rng.gen_range(0..table.len())];
                    e.prefix.bits() | (rng.gen::<u128>() >> e.prefix.len().max(1))
                } else {
                    rng.gen()
                };
                let home = part.home_of(addr) as usize;
                assert_eq!(
                    tables[home].longest_match(addr).map(|e| e.next_hop),
                    table.longest_match(addr).map(|e| e.next_hop),
                    "psi {psi}"
                );
            }
        }
    }

    #[test]
    fn partitions_shrink_v6() {
        let table = synthesize6(8_000, 35);
        let part = Partitioning6::new(&table, select_bits6(&table, 4), 16);
        let tables = part.forwarding_tables(&table);
        let max = tables.iter().map(|t| t.len()).max().unwrap();
        assert!(max < table.len() / 8, "max partition {max}");
        let total: usize = tables.iter().map(|t| t.len()).sum();
        // Modest replication only.
        assert!(total < table.len() + table.len() / 2);
    }
}
