//! Address families: what the runtime needs to know about an address
//! width, in one trait.
//!
//! Nothing in partitioning, home-LC routing, the LR-cache or the fabric
//! depends on how wide an address is (§6: "SPAL is feasibly applicable
//! to IPv6"), so [`crate::runtime`] is written once, generic over an
//! [`AddrFamily`]. The family names the per-width types the runtime
//! touches — address, prefix, table, update, trace, forwarding engine,
//! algorithm — and the handful of calls it makes on them. [`V4`] and
//! [`V6`] are the two instantiations.
//!
//! `spal_lpm`'s [`Lpm`] and [`Lpm6`] stay two traits (each engine
//! implements the one of its width); the engine calls below are where
//! the runtime bridges them.

use crate::pending::Key;
use spal_core::{
    select_bits, select_bits6, ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6,
};
use spal_fabric::FabricAddr;
use spal_lpm::{CountedLookup, DeltaStats, Lpm, Lpm6};
use spal_rib::bits::{AddressBits, IpPrefix, IpTable};
use spal_rib::updates::{apply, update_stream, Update, UpdateStreamConfig};
use spal_rib::v6::{apply6, update_stream6, Prefix6, RouteEntry6, RoutingTable6, Update6};
use spal_rib::{NextHop, Prefix, RouteEntry, RoutingTable};
use spal_traffic::{Trace, Trace6};
use std::fmt::Debug;
use std::sync::Arc;

/// One address width of the dataplane.
pub trait AddrFamily: Copy + Debug + Send + Sync + 'static {
    /// A destination address: cache key, fabric payload, in-flight key.
    type Addr: Key + FabricAddr + AddressBits;
    /// A CIDR prefix over [`Self::Addr`].
    type Prefix: IpPrefix<Addr = Self::Addr>;
    /// A routing table (the full RIB and each per-LC fragment).
    type Table: IpTable<Prefix = Self::Prefix> + Send + Sync;
    /// One BGP update against [`Self::Table`].
    type Update: Copy + Send + Sync;
    /// A destination-address trace.
    type Trace: Sync;
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

    /// Partitioning bit positions for `table` (§3.1).
    fn select_bits(table: &Self::Table, eta: usize) -> Vec<u8>;
    /// The trace's destinations, shared without copying.
    fn destinations(trace: &Self::Trace) -> Arc<[Self::Addr]>;

    /// A consistent synthetic update stream against `table`.
    fn update_stream(table: &Self::Table, cfg: &UpdateStreamConfig) -> Vec<Self::Update>;
    /// The prefix an update announces or withdraws.
    fn update_prefix(update: Self::Update) -> Self::Prefix;
    /// Apply one update to a table.
    fn apply_update(table: &mut Self::Table, update: Self::Update);

    /// Insert or replace one route.
    fn insert(table: &mut Self::Table, entry: <Self::Table as IpTable>::Entry);
    /// Whether `table` holds a route for exactly `prefix`.
    fn contains(table: &Self::Table, prefix: Self::Prefix) -> bool;
    /// The RIB oracle: linear longest-prefix match.
    fn longest_match(table: &Self::Table, addr: Self::Addr) -> Option<NextHop>;

    /// Build an engine from a (partitioned) table.
    fn build(algorithm: Self::Algorithm, table: &Self::Table) -> Self::Engine;
    /// `lookup_counted` of the width's LPM trait.
    fn lookup_counted(engine: &Self::Engine, addr: Self::Addr) -> CountedLookup;
    /// `lookup_batch` of the width's LPM trait.
    fn lookup_batch(engine: &Self::Engine, addrs: &[Self::Addr], out: &mut [CountedLookup]);
    /// `apply_delta` of the width's LPM trait (`None` = declined, the
    /// caller rebuilds).
    fn apply_delta(
        engine: &mut Self::Engine,
        changed: &[Self::Prefix],
        rib: &Self::Table,
    ) -> Option<DeltaStats>;

    /// Probe address `i` of the final consistency check, from one
    /// xorshift word `x`; `ribs` are the per-LC fragments.
    fn check_addr(x: u64, i: usize, ribs: &[Self::Table]) -> Self::Addr;
}

/// IPv4: 32-bit addresses, the seven [`LpmAlgorithm`] engines.
#[derive(Debug, Clone, Copy)]
pub struct V4;

/// IPv6: 128-bit addresses, SHIP or the reference binary trie.
#[derive(Debug, Clone, Copy)]
pub struct V6;

impl AddrFamily for V4 {
    type Addr = u32;
    type Prefix = Prefix;
    type Table = RoutingTable;
    type Update = Update;
    type Trace = Trace;
    type Engine = ForwardingTable;
    type Algorithm = LpmAlgorithm;

    const DEFAULT_ALGORITHM: LpmAlgorithm = LpmAlgorithm::Dp;
    const CHURN_SEED_SALT: u64 = 0x5EED_CAFE;
    const CHECK_SEED_SALT: u64 = 0xF1A1;

    fn select_bits(table: &RoutingTable, eta: usize) -> Vec<u8> {
        select_bits(table, eta)
    }

    fn destinations(trace: &Trace) -> Arc<[u32]> {
        trace.destinations_shared()
    }

    fn update_stream(table: &RoutingTable, cfg: &UpdateStreamConfig) -> Vec<Update> {
        update_stream(table, cfg).0
    }

    fn update_prefix(update: Update) -> Prefix {
        match update {
            Update::Announce(e) => e.prefix,
            Update::Withdraw(p) => p,
        }
    }

    fn apply_update(table: &mut RoutingTable, update: Update) {
        apply(table, update)
    }

    fn insert(table: &mut RoutingTable, entry: RouteEntry) {
        table.insert(entry)
    }

    fn contains(table: &RoutingTable, prefix: Prefix) -> bool {
        table.get(prefix).is_some()
    }

    fn longest_match(table: &RoutingTable, addr: u32) -> Option<NextHop> {
        table.longest_match(addr).map(|e| e.next_hop)
    }

    fn build(algorithm: LpmAlgorithm, table: &RoutingTable) -> ForwardingTable {
        ForwardingTable::build(algorithm, table)
    }

    #[inline]
    fn lookup_counted(engine: &ForwardingTable, addr: u32) -> CountedLookup {
        Lpm::lookup_counted(engine, addr)
    }

    #[inline]
    fn lookup_batch(engine: &ForwardingTable, addrs: &[u32], out: &mut [CountedLookup]) {
        Lpm::lookup_batch(engine, addrs, out)
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
    type Prefix = Prefix6;
    type Table = RoutingTable6;
    type Update = Update6;
    type Trace = Trace6;
    type Engine = ForwardingTable6;
    type Algorithm = LpmAlgorithm6;

    const DEFAULT_ALGORITHM: LpmAlgorithm6 = LpmAlgorithm6::Ship;
    const CHURN_SEED_SALT: u64 = 0x5EED_CAF6;
    const CHECK_SEED_SALT: u64 = 0xF1A6;

    fn select_bits(table: &RoutingTable6, eta: usize) -> Vec<u8> {
        select_bits6(table, eta)
    }

    fn destinations(trace: &Trace6) -> Arc<[u128]> {
        trace.destinations_shared()
    }

    fn update_stream(table: &RoutingTable6, cfg: &UpdateStreamConfig) -> Vec<Update6> {
        update_stream6(table, cfg).0
    }

    fn update_prefix(update: Update6) -> Prefix6 {
        match update {
            Update6::Announce(e) => e.prefix,
            Update6::Withdraw(p) => p,
        }
    }

    fn apply_update(table: &mut RoutingTable6, update: Update6) {
        apply6(table, update)
    }

    fn insert(table: &mut RoutingTable6, entry: RouteEntry6) {
        table.insert(entry)
    }

    fn contains(table: &RoutingTable6, prefix: Prefix6) -> bool {
        table.get(prefix).is_some()
    }

    fn longest_match(table: &RoutingTable6, addr: u128) -> Option<NextHop> {
        table.longest_match(addr).map(|e| e.next_hop)
    }

    fn build(algorithm: LpmAlgorithm6, table: &RoutingTable6) -> ForwardingTable6 {
        ForwardingTable6::build(algorithm, table)
    }

    #[inline]
    fn lookup_counted(engine: &ForwardingTable6, addr: u128) -> CountedLookup {
        Lpm6::lookup_counted(engine, addr)
    }

    #[inline]
    fn lookup_batch(engine: &ForwardingTable6, addrs: &[u128], out: &mut [CountedLookup]) {
        Lpm6::lookup_batch(engine, addrs, out)
    }

    fn apply_delta(
        engine: &mut ForwardingTable6,
        changed: &[Prefix6],
        rib: &RoutingTable6,
    ) -> Option<DeltaStats> {
        Lpm6::apply_delta(engine, changed, rib)
    }

    /// Even probes land inside a live prefix of the first non-empty
    /// fragment, odd probes are uniform — a uniform 128-bit address
    /// almost never hits routed space.
    fn check_addr(x: u64, i: usize, ribs: &[RoutingTable6]) -> u128 {
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
