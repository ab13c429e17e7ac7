//! Forwarding tables: one LPM structure per line card, algorithm chosen
//! at router-configuration time.
//!
//! There is one table type per address width — [`ForwardingTable`] over
//! the seven IPv4 engines, [`ForwardingTable6`] over SHIP and the
//! 128-bit binary trie — because *which engines exist at a width* is
//! what the types enforce: a single algorithm enum would admit
//! `Dir24` at 128 bits and turn a compile error into a run-time one.
//! Their [`Lpm`] impls are one macro expansion each.

use spal_lpm::binary::{BinaryTrie, GenericBinaryTrie};
use spal_lpm::dir24::Dir24_8;
use spal_lpm::dp::DpTrie;
use spal_lpm::lctrie::LcTrie;
use spal_lpm::lulea::LuleaTrie;
use spal_lpm::multibit::MultibitTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::ship::Ship6;
use spal_lpm::{CountedLookup, DeltaStats, Lpm};
use spal_rib::v6::RoutingTable6;
use spal_rib::{NextHop, Prefix, RoutingTable};

/// A forwarding-table enum over `$addr`-wide engines, one variant per
/// engine, and its [`Lpm`] impl: every method is one `match` handing
/// the call to the wrapped engine.
macro_rules! forwarding_table {
    ($(#[$doc:meta])* $table:ident<$addr:ty> { $($variant:ident($engine:ty)),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub enum $table {
            $($variant($engine)),+
        }

        impl Lpm<$addr> for $table {
            fn lookup(&self, addr: $addr) -> Option<NextHop> {
                match self {
                    $(Self::$variant(t) => t.lookup(addr)),+
                }
            }

            fn lookup_counted(&self, addr: $addr) -> CountedLookup {
                match self {
                    $(Self::$variant(t) => t.lookup_counted(addr)),+
                }
            }

            /// One dispatch per batch (not per address), so the inner
            /// engine's specialized interleaved path runs at full speed.
            fn lookup_batch(&self, addrs: &[$addr], out: &mut [CountedLookup]) {
                match self {
                    $(Self::$variant(t) => t.lookup_batch(addrs, out)),+
                }
            }

            /// The forwarding path's batch (next hops only), one dispatch
            /// per batch like [`Lpm::lookup_batch`].
            fn forward_batch(&self, addrs: &[$addr], out: &mut [Option<NextHop>]) {
                match self {
                    $(Self::$variant(t) => t.forward_batch(addrs, out)),+
                }
            }

            /// One dispatch to the wrapped engine's incremental patch
            /// path; see [`Lpm::apply_delta`] for the contract. The binary
            /// and DP tries never decline; SHIP, DIR-24-8 and Poptrie may;
            /// Lulea, the LC-trie and the multibit trie have no patch path
            /// and always decline. On a decline the caller rebuilds.
            fn apply_delta(
                &mut self,
                changed: &[Prefix<$addr>],
                rib: &RoutingTable<$addr>,
            ) -> Option<DeltaStats> {
                match self {
                    $(Self::$variant(t) => t.apply_delta(changed, rib)),+
                }
            }

            fn storage_bytes(&self) -> usize {
                match self {
                    $(Self::$variant(t) => t.storage_bytes()),+
                }
            }

            fn name(&self) -> &'static str {
                match self {
                    $(Self::$variant(t) => t.name()),+
                }
            }
        }
    };
}

/// Which published LPM algorithm a forwarding engine runs (§4 evaluates
/// all three compressed structures; the binary trie is the reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpmAlgorithm {
    /// Plain binary trie (reference implementation).
    Binary,
    /// DP trie \[8\] — ≈16 memory accesses, 62-cycle FE model.
    Dp,
    /// Lulea trie \[7\] — ≈6.x memory accesses, 40-cycle FE model.
    Lulea,
    /// LC-trie \[12\] at the paper's fill factor, 0.25.
    Lc,
    /// DIR-24-8 hardware scheme \[10\] — 1–2 accesses but a fixed 32 MB
    /// first level *per instance* (§2.1's "huge" memory contrast). Not a
    /// sensible per-LC choice for SPAL; provided as the §2.1 baseline.
    Dir24,
    /// Multibit trie with controlled prefix expansion, 16/8/8 strides —
    /// the middle ground between the compressed tries and DIR-24-8.
    Multibit,
    /// Popcount-compressed multibit trie (Poptrie-class) with 16-bit
    /// direct root and cache-line-packed 8-bit-stride nodes — the
    /// fewest-cache-lines engine, stem-patchable in place.
    Poptrie,
}

impl LpmAlgorithm {
    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            LpmAlgorithm::Binary => "Binary",
            LpmAlgorithm::Dp => "DP",
            LpmAlgorithm::Lulea => "Lulea",
            LpmAlgorithm::Lc => "LC",
            LpmAlgorithm::Dir24 => "DIR-24-8",
            LpmAlgorithm::Multibit => "Multibit",
            LpmAlgorithm::Poptrie => "Poptrie",
        }
    }
}

forwarding_table! {
    /// One line card's forwarding table under the chosen algorithm.
    ForwardingTable<u32> {
        Binary(BinaryTrie),
        Dp(DpTrie),
        Lulea(LuleaTrie),
        Lc(LcTrie),
        Dir24(Dir24_8),
        Multibit(MultibitTrie),
        Poptrie(Poptrie),
    }
}

impl ForwardingTable {
    /// Build a forwarding table from a (partitioned) routing table.
    pub fn build(algorithm: LpmAlgorithm, table: &RoutingTable) -> Self {
        match algorithm {
            LpmAlgorithm::Binary => ForwardingTable::Binary(BinaryTrie::build(table)),
            LpmAlgorithm::Dp => ForwardingTable::Dp(DpTrie::build(table)),
            LpmAlgorithm::Lulea => ForwardingTable::Lulea(LuleaTrie::build(table)),
            LpmAlgorithm::Lc => ForwardingTable::Lc(LcTrie::build(table)),
            LpmAlgorithm::Dir24 => ForwardingTable::Dir24(Dir24_8::build(table)),
            LpmAlgorithm::Multibit => ForwardingTable::Multibit(MultibitTrie::build_16_8_8(table)),
            LpmAlgorithm::Poptrie => ForwardingTable::Poptrie(Poptrie::build(table)),
        }
    }
}

/// Which IPv6 LPM structure a forwarding engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpmAlgorithm6 {
    /// SHIP-style two-level engine: 16-bit address-block bins over
    /// prefix-characteristic-grouped hybrid tries.
    #[default]
    Ship,
    /// Generic 128-bit binary trie (reference implementation, and the
    /// natively incremental fallback).
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

forwarding_table! {
    /// One line card's IPv6 forwarding table under the chosen algorithm.
    ForwardingTable6<u128> {
        Ship(Ship6),
        Binary(GenericBinaryTrie<u128>),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;
    use spal_rib::v6::synthesize6_dfz;

    #[test]
    fn all_algorithms_agree() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(43);
        let tables: Vec<ForwardingTable> = [
            LpmAlgorithm::Binary,
            LpmAlgorithm::Dp,
            LpmAlgorithm::Lulea,
            LpmAlgorithm::Lc,
            LpmAlgorithm::Poptrie,
        ]
        .into_iter()
        .map(|a| ForwardingTable::build(a, &rt))
        .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..300 {
            let addr: u32 = rng.gen();
            let oracle = rt.longest_match(addr).map(|e| e.next_hop);
            for t in &tables {
                assert_eq!(t.lookup(addr), oracle, "{} at {addr:#010x}", t.name());
            }
        }
    }

    #[test]
    fn both_v6_algorithms_agree_with_oracle() {
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
    fn forwarding_tables_are_send_and_sync() {
        // The replay harness shares one table across scoped threads as
        // `Arc<dyn Lpm + Send + Sync>`; interior mutability in any
        // wrapped engine would break this at compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ForwardingTable>();
        assert_send_sync::<ForwardingTable6>();
    }

    #[test]
    fn labels() {
        assert_eq!(LpmAlgorithm::Lulea.label(), "Lulea");
        assert_eq!(LpmAlgorithm::Lc.label(), "LC");
        assert_eq!(LpmAlgorithm6::Ship.label(), "SHIP");
        let rt = synth::small(1);
        let t = ForwardingTable::build(LpmAlgorithm::Dp, &rt);
        assert_eq!(t.name(), "DP");
        let rt6 = synthesize6_dfz(100, 3);
        let t6 = ForwardingTable6::build(LpmAlgorithm6::Ship, &rt6);
        assert_eq!(t6.name(), "SHIP");
        // The wrapper reports the wrapped engine's own name, and the
        // binary trie's says which width it is — the labels the
        // committed benchmark rows carry.
        let binary = ForwardingTable::build(LpmAlgorithm::Binary, &rt);
        assert_eq!(binary.name(), BinaryTrie::build(&rt).name());
        assert_eq!(binary.name(), LpmAlgorithm::Binary.label());
        let binary6 = ForwardingTable6::build(LpmAlgorithm6::Binary, &rt6);
        assert_eq!(binary6.name(), GenericBinaryTrie::build(&rt6).name());
        assert_eq!(binary6.name(), LpmAlgorithm6::Binary.label());
        assert_eq!(LpmAlgorithm6::Binary.label(), "Binary6");
    }

    #[test]
    fn storage_ordering_matches_section4() {
        // §4: Lulea's storage "is often the lowest"; the DP trie is the
        // largest of the three compressed structures.
        let rt = synth::synthesize(&synth::SynthConfig::sized(10_000, 8));
        let lulea = ForwardingTable::build(LpmAlgorithm::Lulea, &rt).storage_bytes();
        let dp = ForwardingTable::build(LpmAlgorithm::Dp, &rt).storage_bytes();
        assert!(lulea < dp, "lulea {lulea} vs dp {dp}");
    }
}
