//! IPv6 forwarding tables: one 128-bit LPM structure per line card.
//!
//! The v6 mirror of [`crate::fwd`]: the SHIP-style two-level engine is
//! the production structure, the generic binary trie the reference
//! (and the natively incremental fallback).

use spal_lpm::binary::GenericBinaryTrie;
use spal_lpm::ship::Ship6;
use spal_lpm::{CountedLookup, DeltaStats, Lpm6};
use spal_rib::v6::{Prefix6, RoutingTable6};

/// Which IPv6 LPM structure a forwarding engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpmAlgorithm6 {
    /// SHIP-style two-level engine: 16-bit address-block bins over
    /// prefix-characteristic-grouped hybrid tries.
    #[default]
    Ship,
    /// Generic 128-bit binary trie (reference implementation).
    Binary,
}

impl LpmAlgorithm6 {
    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            LpmAlgorithm6::Ship => "SHIP",
            LpmAlgorithm6::Binary => "Binary6",
        }
    }
}

/// One line card's IPv6 forwarding table under the chosen algorithm.
#[derive(Debug)]
pub enum ForwardingTable6 {
    Ship(Ship6),
    Binary(GenericBinaryTrie<u128>),
}

impl ForwardingTable6 {
    /// Build a forwarding table from a (partitioned) v6 routing table.
    pub fn build(algorithm: LpmAlgorithm6, table: &RoutingTable6) -> Self {
        match algorithm {
            LpmAlgorithm6::Ship => ForwardingTable6::Ship(Ship6::build(table)),
            LpmAlgorithm6::Binary => ForwardingTable6::Binary(GenericBinaryTrie::build(table)),
        }
    }
}

impl Lpm6 for ForwardingTable6 {
    fn lookup(&self, addr: u128) -> Option<spal_rib::NextHop> {
        match self {
            ForwardingTable6::Ship(t) => t.lookup(addr),
            ForwardingTable6::Binary(t) => Lpm6::lookup(t, addr),
        }
    }

    fn lookup_counted(&self, addr: u128) -> CountedLookup {
        match self {
            ForwardingTable6::Ship(t) => t.lookup_counted(addr),
            ForwardingTable6::Binary(t) => Lpm6::lookup_counted(t, addr),
        }
    }

    /// One dispatch per batch, so the inner engine's interleaved path
    /// runs at full speed.
    fn lookup_batch(&self, addrs: &[u128], out: &mut [CountedLookup]) {
        match self {
            ForwardingTable6::Ship(t) => t.lookup_batch(addrs, out),
            ForwardingTable6::Binary(t) => Lpm6::lookup_batch(t, addrs, out),
        }
    }

    /// The forwarding path's batch (next hops only), one dispatch per
    /// batch like [`Lpm6::lookup_batch`].
    fn forward_batch(&self, addrs: &[u128], out: &mut [Option<spal_rib::NextHop>]) {
        match self {
            ForwardingTable6::Ship(t) => t.forward_batch(addrs, out),
            ForwardingTable6::Binary(t) => Lpm6::forward_batch(t, addrs, out),
        }
    }

    /// See [`Lpm6::apply_delta`]: SHIP patches bin-granularly and may
    /// decline (the caller rebuilds); the binary trie never declines.
    fn apply_delta(&mut self, changed: &[Prefix6], rib: &RoutingTable6) -> Option<DeltaStats> {
        match self {
            ForwardingTable6::Ship(t) => t.apply_delta(changed, rib),
            ForwardingTable6::Binary(t) => Lpm6::apply_delta(t, changed, rib),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            ForwardingTable6::Ship(t) => t.storage_bytes(),
            ForwardingTable6::Binary(t) => Lpm6::storage_bytes(t),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ForwardingTable6::Ship(t) => t.name(),
            ForwardingTable6::Binary(_) => "Binary6",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::v6::synthesize6_dfz;

    #[test]
    fn both_algorithms_agree_with_oracle() {
        let rt = synthesize6_dfz(2_000, 17);
        let ship = ForwardingTable6::build(LpmAlgorithm6::Ship, &rt);
        let binary = ForwardingTable6::build(LpmAlgorithm6::Binary, &rt);
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for i in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if i % 2 == 0 {
                let e = rt.entries()[(i * 31) % rt.len()];
                e.prefix.bits() | x as u128
            } else {
                (x as u128) << 64 | x.rotate_left(17) as u128
            };
            let oracle = rt.longest_match(addr).map(|e| e.next_hop);
            assert_eq!(ship.lookup(addr), oracle, "SHIP at {addr:#034x}");
            assert_eq!(binary.lookup(addr), oracle, "binary at {addr:#034x}");
        }
    }

    #[test]
    fn forwarding_table6_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ForwardingTable6>();
    }

    #[test]
    fn labels() {
        assert_eq!(LpmAlgorithm6::Ship.label(), "SHIP");
        assert_eq!(LpmAlgorithm6::Binary.label(), "Binary6");
        let rt = synthesize6_dfz(100, 3);
        let t = ForwardingTable6::build(LpmAlgorithm6::Ship, &rt);
        assert_eq!(t.name(), "SHIP");
    }
}
