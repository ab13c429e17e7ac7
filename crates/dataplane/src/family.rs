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
//! algorithm choice, the bit-selection candidate range, the seed salts
//! the goldens pin, and how the final consistency check draws probes.
//! [`V4`] and [`V6`] are the two instantiations.
//!
//! `spal_lpm`'s [`Lpm`] and [`Lpm6`] stay two traits (each engine
//! implements the one of its width); the engine calls below are where
//! the runtime bridges them.

use crate::pending::Key;
use spal_core::{
    select_bits, select_bits6, ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6,
};
use spal_fabric::FabricAddr;
use spal_lpm::{DeltaStats, Lpm, Lpm6};
use spal_rib::updates::ChurnAddr;
use spal_rib::{NextHop, Prefix, RoutingTable};
use std::fmt::Debug;

/// One address width of the dataplane.
pub trait AddrFamily: Copy + Debug + Send + Sync + 'static {
    /// A destination address: cache key, fabric payload, in-flight key,
    /// and the width of every prefix, table, update and trace.
    type Addr: Key + FabricAddr + ChurnAddr;
    /// One LC's forwarding engine.
    type Engine: Send + Sync;
    /// Which LPM structure an engine runs.
    type Algorithm: Copy + Debug + Send + Sync;

    /// The engine [`crate::DataplaneConfig`] defaults to.
    const DEFAULT_ALGORITHM: Self::Algorithm;
    /// XORed into the run seed to seed the churn stream.
    const CHURN_SEED_SALT: u64;
    /// XORed into the run seed to seed the final consistency sampler.
    const CHECK_SEED_SALT: u64;

    /// Partitioning bit positions for `table` (§3.1), over the family's
    /// candidate range.
    fn select_bits(table: &RoutingTable<Self::Addr>, eta: usize) -> Vec<u8>;

    /// Build an engine from a (partitioned) table.
    fn build(algorithm: Self::Algorithm, table: &RoutingTable<Self::Addr>) -> Self::Engine;
    /// `lookup` of the width's LPM trait.
    fn lookup(engine: &Self::Engine, addr: Self::Addr) -> Option<NextHop>;
    /// `forward_batch` of the width's LPM trait: next hops only — the
    /// dataplane forwards, it does not run the cost model.
    fn forward_batch(engine: &Self::Engine, addrs: &[Self::Addr], out: &mut [Option<NextHop>]);
    /// `apply_delta` of the width's LPM trait (`None` = declined, the
    /// caller rebuilds).
    fn apply_delta(
        engine: &mut Self::Engine,
        changed: &[Prefix<Self::Addr>],
        rib: &RoutingTable<Self::Addr>,
    ) -> Option<DeltaStats>;

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

    fn select_bits(table: &RoutingTable, eta: usize) -> Vec<u8> {
        select_bits(table, eta)
    }

    fn build(algorithm: LpmAlgorithm, table: &RoutingTable) -> ForwardingTable {
        ForwardingTable::build(algorithm, table)
    }

    #[inline]
    fn lookup(engine: &ForwardingTable, addr: u32) -> Option<NextHop> {
        Lpm::lookup(engine, addr)
    }

    #[inline]
    fn forward_batch(engine: &ForwardingTable, addrs: &[u32], out: &mut [Option<NextHop>]) {
        Lpm::forward_batch(engine, addrs, out)
    }

    fn apply_delta(
        engine: &mut ForwardingTable,
        changed: &[Prefix],
        rib: &RoutingTable,
    ) -> Option<DeltaStats> {
        Lpm::apply_delta(engine, changed, rib)
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

    fn select_bits(table: &RoutingTable<u128>, eta: usize) -> Vec<u8> {
        select_bits6(table, eta)
    }

    fn build(algorithm: LpmAlgorithm6, table: &RoutingTable<u128>) -> ForwardingTable6 {
        ForwardingTable6::build(algorithm, table)
    }

    #[inline]
    fn lookup(engine: &ForwardingTable6, addr: u128) -> Option<NextHop> {
        Lpm6::lookup(engine, addr)
    }

    #[inline]
    fn forward_batch(engine: &ForwardingTable6, addrs: &[u128], out: &mut [Option<NextHop>]) {
        Lpm6::forward_batch(engine, addrs, out)
    }

    fn apply_delta(
        engine: &mut ForwardingTable6,
        changed: &[Prefix<u128>],
        rib: &RoutingTable<u128>,
    ) -> Option<DeltaStats> {
        Lpm6::apply_delta(engine, changed, rib)
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
