//! Forwarding tables: one LPM structure per line card, algorithm chosen
//! at router-configuration time.

use spal_lpm::binary::BinaryTrie;
use spal_lpm::dir24::Dir24_8;
use spal_lpm::dp::DpTrie;
use spal_lpm::lctrie::LcTrie;
use spal_lpm::lulea::LuleaTrie;
use spal_lpm::multibit::MultibitTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::{CountedLookup, DeltaStats, Lpm};
use spal_rib::{Prefix, RoutingTable};

/// Which published LPM algorithm a forwarding engine runs (§4 evaluates
/// all three compressed structures; the binary trie is the reference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LpmAlgorithm {
    /// Plain binary trie (reference implementation).
    Binary,
    /// DP trie \[8\] — ≈16 memory accesses, 62-cycle FE model.
    Dp,
    /// Lulea trie \[7\] — ≈6.x memory accesses, 40-cycle FE model.
    Lulea,
    /// LC-trie \[12\] with the given fill factor (paper uses 0.25).
    Lc { fill_factor: f64 },
    /// DIR-24-8 hardware scheme \[10\] — 1–2 accesses but a fixed 32 MB
    /// first level *per instance* (§2.1's "huge" memory contrast). Not a
    /// sensible per-LC choice for SPAL; provided as the §2.1 baseline.
    Dir24,
    /// Multibit trie with controlled prefix expansion, 16/8/8 strides —
    /// the middle ground between the compressed tries and DIR-24-8, and
    /// fully patchable in place.
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
            LpmAlgorithm::Lc { .. } => "LC",
            LpmAlgorithm::Dir24 => "DIR-24-8",
            LpmAlgorithm::Multibit => "Multibit",
            LpmAlgorithm::Poptrie => "Poptrie",
        }
    }
}

/// One line card's forwarding table under the chosen algorithm.
#[derive(Debug)]
pub enum ForwardingTable {
    Binary(BinaryTrie),
    Dp(DpTrie),
    Lulea(LuleaTrie),
    Lc(LcTrie),
    Dir24(Dir24_8),
    Multibit(MultibitTrie),
    Poptrie(Poptrie),
}

impl ForwardingTable {
    /// Whether this structure supports incremental announce/withdraw
    /// (the binary and DP tries do; the compressed structures rebuild).
    pub fn supports_incremental_updates(&self) -> bool {
        matches!(self, ForwardingTable::Binary(_) | ForwardingTable::Dp(_))
    }

    /// Announce (insert or replace) a route incrementally. Returns
    /// `false` when the structure does not support in-place updates (the
    /// caller should rebuild instead).
    pub fn announce(&mut self, prefix: spal_rib::Prefix, next_hop: spal_rib::NextHop) -> bool {
        match self {
            ForwardingTable::Binary(t) => {
                t.insert(prefix.bits(), prefix.len(), next_hop);
                true
            }
            ForwardingTable::Dp(t) => {
                t.insert(prefix, next_hop);
                true
            }
            _ => false,
        }
    }

    /// Withdraw a route incrementally; see [`ForwardingTable::announce`].
    pub fn withdraw(&mut self, prefix: spal_rib::Prefix) -> bool {
        match self {
            ForwardingTable::Binary(t) => {
                t.remove(prefix.bits(), prefix.len());
                true
            }
            ForwardingTable::Dp(t) => {
                t.remove(prefix);
                true
            }
            _ => false,
        }
    }

    /// Build a forwarding table from a (partitioned) routing table.
    pub fn build(algorithm: LpmAlgorithm, table: &RoutingTable) -> Self {
        match algorithm {
            LpmAlgorithm::Binary => ForwardingTable::Binary(BinaryTrie::build(table)),
            LpmAlgorithm::Dp => ForwardingTable::Dp(DpTrie::build(table)),
            LpmAlgorithm::Lulea => ForwardingTable::Lulea(LuleaTrie::build(table)),
            LpmAlgorithm::Lc { fill_factor } => {
                ForwardingTable::Lc(LcTrie::build_with_fill(table, fill_factor))
            }
            LpmAlgorithm::Dir24 => ForwardingTable::Dir24(Dir24_8::build(table)),
            LpmAlgorithm::Multibit => ForwardingTable::Multibit(MultibitTrie::build_16_8_8(table)),
            LpmAlgorithm::Poptrie => ForwardingTable::Poptrie(Poptrie::build(table)),
        }
    }
}

impl Lpm for ForwardingTable {
    fn lookup(&self, addr: u32) -> Option<spal_rib::NextHop> {
        match self {
            ForwardingTable::Binary(t) => t.lookup(addr),
            ForwardingTable::Dp(t) => t.lookup(addr),
            ForwardingTable::Lulea(t) => t.lookup(addr),
            ForwardingTable::Lc(t) => t.lookup(addr),
            ForwardingTable::Dir24(t) => t.lookup(addr),
            ForwardingTable::Multibit(t) => t.lookup(addr),
            ForwardingTable::Poptrie(t) => t.lookup(addr),
        }
    }

    fn lookup_counted(&self, addr: u32) -> CountedLookup {
        match self {
            ForwardingTable::Binary(t) => t.lookup_counted(addr),
            ForwardingTable::Dp(t) => t.lookup_counted(addr),
            ForwardingTable::Lulea(t) => t.lookup_counted(addr),
            ForwardingTable::Lc(t) => t.lookup_counted(addr),
            ForwardingTable::Dir24(t) => t.lookup_counted(addr),
            ForwardingTable::Multibit(t) => t.lookup_counted(addr),
            ForwardingTable::Poptrie(t) => t.lookup_counted(addr),
        }
    }

    /// One dispatch per batch (not per address), so the inner engine's
    /// specialized interleaved path runs at full speed.
    fn lookup_batch(&self, addrs: &[u32], out: &mut [CountedLookup]) {
        match self {
            ForwardingTable::Binary(t) => t.lookup_batch(addrs, out),
            ForwardingTable::Dp(t) => t.lookup_batch(addrs, out),
            ForwardingTable::Lulea(t) => t.lookup_batch(addrs, out),
            ForwardingTable::Lc(t) => t.lookup_batch(addrs, out),
            ForwardingTable::Dir24(t) => t.lookup_batch(addrs, out),
            ForwardingTable::Multibit(t) => t.lookup_batch(addrs, out),
            ForwardingTable::Poptrie(t) => t.lookup_batch(addrs, out),
        }
    }

    /// The forwarding path's batch (next hops only), one dispatch per
    /// batch like [`Lpm::lookup_batch`].
    fn forward_batch(&self, addrs: &[u32], out: &mut [Option<spal_rib::NextHop>]) {
        match self {
            ForwardingTable::Binary(t) => t.forward_batch(addrs, out),
            ForwardingTable::Dp(t) => t.forward_batch(addrs, out),
            ForwardingTable::Lulea(t) => t.forward_batch(addrs, out),
            ForwardingTable::Lc(t) => t.forward_batch(addrs, out),
            ForwardingTable::Dir24(t) => t.forward_batch(addrs, out),
            ForwardingTable::Multibit(t) => t.forward_batch(addrs, out),
            ForwardingTable::Poptrie(t) => t.forward_batch(addrs, out),
        }
    }

    /// One dispatch to the wrapped engine's incremental patch path; see
    /// [`Lpm::apply_delta`] for the contract. The binary and DP tries
    /// route through their native insert/remove, so every engine the
    /// dataplane can host is patchable (LC-trie and the compressed
    /// structures may still decline and demand a rebuild).
    fn apply_delta(&mut self, changed: &[Prefix], rib: &RoutingTable) -> Option<DeltaStats> {
        match self {
            ForwardingTable::Binary(t) => t.apply_delta(changed, rib),
            ForwardingTable::Dp(t) => t.apply_delta(changed, rib),
            ForwardingTable::Lulea(t) => t.apply_delta(changed, rib),
            ForwardingTable::Lc(t) => t.apply_delta(changed, rib),
            ForwardingTable::Dir24(t) => t.apply_delta(changed, rib),
            ForwardingTable::Multibit(t) => t.apply_delta(changed, rib),
            ForwardingTable::Poptrie(t) => t.apply_delta(changed, rib),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            ForwardingTable::Binary(t) => t.storage_bytes(),
            ForwardingTable::Dp(t) => t.storage_bytes(),
            ForwardingTable::Lulea(t) => t.storage_bytes(),
            ForwardingTable::Lc(t) => t.storage_bytes(),
            ForwardingTable::Dir24(t) => t.storage_bytes(),
            ForwardingTable::Multibit(t) => t.storage_bytes(),
            ForwardingTable::Poptrie(t) => t.storage_bytes(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ForwardingTable::Binary(t) => t.name(),
            ForwardingTable::Dp(t) => t.name(),
            ForwardingTable::Lulea(t) => t.name(),
            ForwardingTable::Lc(t) => t.name(),
            ForwardingTable::Dir24(t) => t.name(),
            ForwardingTable::Multibit(t) => t.name(),
            ForwardingTable::Poptrie(t) => t.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::synth;

    #[test]
    fn all_algorithms_agree() {
        use rand::{Rng, SeedableRng};
        let rt = synth::small(43);
        let tables: Vec<ForwardingTable> = [
            LpmAlgorithm::Binary,
            LpmAlgorithm::Dp,
            LpmAlgorithm::Lulea,
            LpmAlgorithm::Lc { fill_factor: 0.25 },
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
    fn forwarding_table_is_send_and_sync() {
        // The replay harness shares one table across scoped threads as
        // `Arc<dyn Lpm + Send + Sync>`; interior mutability in any
        // wrapped engine would break this at compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ForwardingTable>();
    }

    #[test]
    fn labels() {
        assert_eq!(LpmAlgorithm::Lulea.label(), "Lulea");
        assert_eq!(LpmAlgorithm::Lc { fill_factor: 0.25 }.label(), "LC");
        let rt = synth::small(1);
        let t = ForwardingTable::build(LpmAlgorithm::Dp, &rt);
        assert_eq!(t.name(), "DP");
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
