//! SPAL over IPv6 — the §6 claim ("SPAL is feasibly applicable to
//! IPv6") made concrete: the same two-criteria bit selection and
//! ROT-partitioning, over 128-bit prefixes.
//!
//! The machinery is the IPv4 machinery — [`spal_rib::Prefix`] and
//! [`spal_rib::RoutingTable`] are generic over the address width; this
//! module provides the IPv6-typed surface: [`select_bits6`] and
//! [`Partitioning6`].

use crate::bits::{select_bits_generic, BitSelectionStrategy};
use crate::partition::Partitioning;
use spal_rib::v6::{Prefix6, RoutingTable6};

/// Select `eta` partitioning bits for an IPv6 table. Candidates are
/// restricted to positions `0..=63` — IPv6 interface identifiers (the
/// low 64 bits) are host bits, wild in almost every routed prefix, so
/// Criterion 1 excludes them just as it excludes positions >24 in IPv4.
pub fn select_bits6(table: &RoutingTable6, eta: usize) -> Vec<u8> {
    let prefixes: Vec<Prefix6> = table.entries().iter().map(|e| e.prefix).collect();
    select_bits_generic(&prefixes, eta, 63, BitSelectionStrategy::default())
}

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
