//! Address families: what differs between the two address widths the
//! runtime serves, in one trait.
//!
//! Nothing in partitioning, home-LC routing, the LR-cache or the fabric
//! depends on how wide an address is (§6: "SPAL is feasibly applicable
//! to IPv6"), and neither do prefixes, tables, updates or traces —
//! `spal_rib` and `spal_traffic` have one generic type each, so
//! [`crate::runtime`] is written once over `RoutingTable<F::Addr>`,
//! `Update<F::Addr>`, `Trace<F::Addr>`. What an [`AddrFamily`] names is
//! the remainder: the address type, the forwarding engine and its
//! algorithm choice, the seed salts the goldens pin, and how the final
//! consistency check draws probes. [`V4`] and [`V6`] are the two
//! instantiations.
//!
//! The lookup contract is not part of the remainder: an engine is an
//! [`Lpm`] over the family's address, and the runtime calls that trait
//! (and the width-generic `spal_core::select_bits`) directly.

use crate::pending::Key;
use spal_core::{ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6};
use spal_fabric::FabricAddr;
use spal_lpm::Lpm;
use spal_rib::updates::ChurnAddr;
use spal_rib::RoutingTable;
use std::fmt::Debug;

/// One address width of the dataplane.
pub trait AddrFamily: Copy + Debug + Send + Sync + 'static {
    /// A destination address: cache key, fabric payload, in-flight key,
    /// and the width of every prefix, table, update and trace.
    type Addr: Key + FabricAddr + ChurnAddr;
    /// One LC's forwarding engine. `Clone` gives the control plane a
    /// private copy of an engine the two snapshots share, to patch.
    type Engine: Lpm<Self::Addr> + Clone + Send + Sync;
    /// Which LPM structure an engine runs.
    type Algorithm: Copy + Debug + Send + Sync;

    /// The engine [`crate::DataplaneConfig`] defaults to.
    const DEFAULT_ALGORITHM: Self::Algorithm;
    /// XORed into the run seed to seed the churn stream.
    const CHURN_SEED_SALT: u64;
    /// XORed into the run seed to seed the final consistency sampler.
    const CHECK_SEED_SALT: u64;

    /// Build an engine from a (partitioned) table.
    fn build(algorithm: Self::Algorithm, table: &RoutingTable<Self::Addr>) -> Self::Engine;

    /// Probe address `i` of the final consistency check, from one
    /// xorshift word `x`; `ribs` are the per-LC fragments.
    fn check_addr(x: u64, i: usize, ribs: &[RoutingTable<Self::Addr>]) -> Self::Addr;
}

/// IPv4: 32-bit addresses, the seven [`LpmAlgorithm`] engines.
#[derive(Debug, Clone, Copy)]
pub struct V4;

/// IPv6: 128-bit addresses, SHIP or the reference binary trie.
#[derive(Debug, Clone, Copy)]
pub struct V6;

impl AddrFamily for V4 {
    type Addr = u32;
    type Engine = ForwardingTable;
    type Algorithm = LpmAlgorithm;

    const DEFAULT_ALGORITHM: LpmAlgorithm = LpmAlgorithm::Dp;
    const CHURN_SEED_SALT: u64 = 0x5EED_CAFE;
    const CHECK_SEED_SALT: u64 = 0xF1A1;

    fn build(algorithm: LpmAlgorithm, table: &RoutingTable) -> ForwardingTable {
        ForwardingTable::build(algorithm, table)
    }

    /// Uniform over the address space (dense enough in IPv4 that a
    /// uniform probe lands inside routed space most of the time).
    fn check_addr(x: u64, _i: usize, _ribs: &[RoutingTable]) -> u32 {
        (x as u32) ^ ((x >> 32) as u32)
    }
}

impl AddrFamily for V6 {
    type Addr = u128;
    type Engine = ForwardingTable6;
    type Algorithm = LpmAlgorithm6;

    const DEFAULT_ALGORITHM: LpmAlgorithm6 = LpmAlgorithm6::Ship;
    const CHURN_SEED_SALT: u64 = 0x5EED_CAF6;
    const CHECK_SEED_SALT: u64 = 0xF1A6;

    fn build(algorithm: LpmAlgorithm6, table: &RoutingTable<u128>) -> ForwardingTable6 {
        ForwardingTable6::build(algorithm, table)
    }

    /// Even probes land inside a live prefix of the first non-empty
    /// fragment, odd probes are uniform — a uniform 128-bit address
    /// almost never hits routed space.
    fn check_addr(x: u64, i: usize, ribs: &[RoutingTable<u128>]) -> u128 {
        let uniform = (x as u128) << 64 | x.rotate_left(29) as u128;
        if i % 2 == 1 {
            return uniform;
        }
        match ribs.iter().find(|rib| !rib.is_empty()) {
            Some(rib) => rib.entries()[x as usize % rib.len()].prefix.bits() | (x as u128),
            None => uniform,
        }
    }
}
