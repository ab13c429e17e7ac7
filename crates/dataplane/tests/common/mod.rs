//! What the fault and failover suites need from an address family
//! beyond [`AddrFamily`]: a small table and per-worker traces, so one
//! test body runs at either width.

use spal_dataplane::{AddrFamily, V4, V6};
use spal_rib::synth;
use spal_rib::v6::{synthesize6_dfz, RoutingTable6};
use spal_rib::RoutingTable;
use spal_traffic::{generate6, preset, PresetName, Trace, Trace6, TracePreset};

pub trait Fixture: AddrFamily {
    /// A small routing table and `psi` traces of `packets` packets
    /// each, drawn over `distinct` destinations.
    fn setup(
        table_seed: u64,
        trace_seed: u64,
        distinct: usize,
        psi: usize,
        packets: usize,
    ) -> (RoutingTable<Self::Addr>, Vec<Trace<Self::Addr>>);
}

impl Fixture for V4 {
    fn setup(
        table_seed: u64,
        trace_seed: u64,
        distinct: usize,
        psi: usize,
        packets: usize,
    ) -> (RoutingTable, Vec<Trace>) {
        let table = synth::small(table_seed);
        let p = TracePreset {
            distinct,
            ..preset(PresetName::D75)
        };
        let traces = p.generate(&table, psi * packets, trace_seed).split(psi);
        (table, traces)
    }
}

impl Fixture for V6 {
    fn setup(
        table_seed: u64,
        trace_seed: u64,
        distinct: usize,
        psi: usize,
        packets: usize,
    ) -> (RoutingTable6, Vec<Trace6>) {
        let table = synthesize6_dfz(3_000, table_seed);
        let traces = generate6(&table, distinct, psi * packets, trace_seed).split(psi);
        (table, traces)
    }
}
