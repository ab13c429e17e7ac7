//! The one place the benchmark touches the system under test.
//!
//! Every call into the workspace crates goes through this file, so a
//! refactor of the crates (ROADMAP item 1 folds the v4/v6 twins into
//! one generic dataplane) keeps the benchmark compiling by keeping
//! *this* surface alive — by alias if need be — and never has to edit
//! `benchmark/`. The exact public items used:
//!
//! * `spal_rib::synth::{synthesize, SynthConfig::sized}`,
//!   `spal_rib::v6::{dfz2026_v6, synthesize6_dfz, RoutingTable6::len}`,
//!   `spal_rib::updates::{update_stream, UpdateStreamConfig, Update}`,
//!   `spal_rib::{RoutingTable::{new, clone, len, insert, remove},
//!   Prefix::{bits, len}, RouteEntry::prefix, NextHop.0}`;
//! * `spal_traffic::{preset, PresetName::{BL, D75}, TracePreset::generate,
//!   LocalityModel::Zipf, Trace::{new, destinations, split}, generate6,
//!   Trace6::{new, destinations, split}}`;
//! * `spal_core::{select_bits, select_bits6, bits::eta_for,
//!   Partitioning::{new, home_of, forwarding_tables},
//!   Partitioning6::{new, home_of, forwarding_tables},
//!   ForwardingTable::build, ForwardingTable6::build,
//!   LpmAlgorithm::{Dir24, Poptrie, Binary}, LpmAlgorithm6::{Ship, Binary}}`;
//! * `spal_lpm::{Lpm, Lpm6}::{lookup, lookup_batch, apply_delta,
//!   storage_bytes}`, `spal_lpm::CountedLookup::{MISS, next_hop,
//!   lines_touched}`;
//! * `spal_cache::{LrCache::{new, probe, reserve, probe_batch, fill,
//!   invalidate_covered, stats}, LrCacheConfig::paper, BatchProbe, Origin,
//!   ProbeResult, CacheStats::{probes, hits_loc, hits_rem, hits_waiting,
//!   victim_hits, fills, evictions, reservation_failures, invalidations},
//!   CacheAddr}`;
//! * `spal_fabric::{spsc_ring, SpscProducer::push_slice,
//!   SpscConsumer::pop_slice, FabricMsg, MsgKind, AddrBatch::{from_slice,
//!   addrs}, ReplyBatch::{from_pairs, iter}, FabricAddr, BATCH_MSG_LANES}`;
//! * `spal_dataplane::{run, run6, DataplaneConfig, Dataplane6Config,
//!   ChurnConfig, InvalidationMode::Targeted, epoch_table,
//!   EpochWriter::publish_deferred, EpochReader::pin, Deferred::into_inner,
//!   DataplaneReport::{elapsed, workers, churn, total_packets, checksum,
//!   oracle_divergence, hit_rate, hit_rate_steady, rem_share,
//!   latency_paths}, WorkerReport::{cache, fe_lookups, fe_batches,
//!   remote_requests, batch_requests_sent, max_ring_depth,
//!   duplicate_replies, stale_replies, spot_checks, lost_packets,
//!   ingress_dropped}, ChurnReport::{publications, apply_us, reclaim_us,
//!   delta_applies, rebuild_applies, delta_bytes_touched},
//!   LatencySummary::{count, percentile_us, p50_us}, PathLatency::{all,
//!   loc_hit, miss}, LatencyHisto::{p50_ns, p99_ns, p999_ns}}`.

use spal_core::bits::eta_for;
use spal_core::{
    select_bits, select_bits6, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6, Partitioning,
    Partitioning6,
};
use spal_dataplane::{run, run6, Dataplane6Config, DataplaneConfig, InvalidationMode};
use spal_lpm::Lpm6;
use spal_rib::synth::{synthesize, SynthConfig};
use spal_rib::updates::{update_stream, UpdateStreamConfig};
use spal_rib::v6::{dfz2026_v6, synthesize6_dfz, RoutingTable6};
use spal_traffic::{generate6, preset, LocalityModel, PresetName, Trace, Trace6, TracePreset};

pub use spal_cache::{BatchProbe, CacheStats, LrCache, LrCacheConfig, Origin, ProbeResult};
pub use spal_core::ForwardingTable;
pub use spal_dataplane::{
    epoch_table, ChurnConfig, ChurnReport, DataplaneReport, EpochReader, EpochWriter, WorkerReport,
};
pub use spal_fabric::{
    spsc_ring, AddrBatch, FabricMsg, MsgKind, ReplyBatch, SpscConsumer, SpscProducer,
    BATCH_MSG_LANES,
};
pub use spal_lpm::{CountedLookup, Lpm};
pub use spal_rib::updates::Update;
pub use spal_rib::{Prefix, RoutingTable};

/// Which partition engine a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Dir24,
    Poptrie,
    Ship,
}

/// Which destination stream a workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The paper's `B_L` preset: 32k flows, Zipf with packet trains.
    BellLabs,
    /// Zipf α 0.05 over twice as many flows as the table has routes —
    /// the cache-adversarial stream of `spal-bench`'s `stress_workload`.
    NearUniform,
    /// `generate6` over 32 768 flows, what `bench_dataplane --v6` runs.
    Zipf6,
}

/// Everything the dataplane is told for one run, in one width-neutral
/// struct; [`Family::run`] maps it onto `DataplaneConfig` or
/// `Dataplane6Config`. Fields not listed here keep the dataplane's
/// defaults (threaded mode, vector loop, latency capture on, targeted
/// invalidation, delta patching on).
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workers: usize,
    pub engine: EngineKind,
    pub cache: LrCacheConfig,
    pub churn: Option<ChurnConfig>,
    pub seed: u64,
}

/// Packets a worker admits per iteration.
pub const BATCH: usize = 256;
/// Capacity of every fabric ring.
pub const RING_CAPACITY: usize = 8192;
/// One in this many engine results is cross-checked in the run.
pub const SPOT_CHECK_EVERY: u64 = 64;

/// One address width of the system under test: its table, trace,
/// partitioning and engine types, and the calls the benchmark makes on
/// them.
pub trait Family: 'static {
    type Addr: spal_cache::CacheAddr + spal_fabric::FabricAddr + Ord + Send + Sync;
    type Table: Sync;
    type Trace: Sync;
    type Part;
    type Engine: Send + Sync;

    fn synthesize(routes: usize, seed: u64) -> Self::Table;
    fn routes(table: &Self::Table) -> usize;
    fn generate(stream: Stream, table: &Self::Table, packets: usize, seed: u64) -> Self::Trace;
    fn trace_of(dests: Vec<Self::Addr>) -> Self::Trace;
    fn dests(trace: &Self::Trace) -> &[Self::Addr];
    fn split(trace: &Self::Trace, n: usize) -> Vec<Self::Trace>;
    /// `select_bits` + `Partitioning::new`, as `run` does for `psi` LCs.
    fn partition(table: &Self::Table, psi: usize) -> Self::Part;
    fn home_of(part: &Self::Part, addr: Self::Addr) -> u16;
    fn fragments(part: &Self::Part, table: &Self::Table) -> Vec<Self::Table>;
    fn build(kind: EngineKind, table: &Self::Table) -> Self::Engine;
    /// The full-table binary trie the oracle looks destinations up in.
    fn reference(table: &Self::Table) -> Self::Engine;
    fn lookup(engine: &Self::Engine, addr: Self::Addr) -> Option<u16>;
    fn lookup_batch(engine: &Self::Engine, addrs: &[Self::Addr], out: &mut [CountedLookup]);
    fn storage_bytes(engine: &Self::Engine) -> usize;
    fn run(table: &Self::Table, traces: &[Self::Trace], cfg: &RunConfig) -> DataplaneReport;
}

/// IPv4: `run`, `Lpm`, `Partitioning`.
pub struct V4;
/// IPv6: `run6`, `Lpm6`, `Partitioning6`.
pub struct V6;

fn algorithm_v4(kind: EngineKind) -> LpmAlgorithm {
    match kind {
        EngineKind::Dir24 => LpmAlgorithm::Dir24,
        EngineKind::Poptrie => LpmAlgorithm::Poptrie,
        EngineKind::Ship => panic!("SHIP is an IPv6 engine"),
    }
}

impl Family for V4 {
    type Addr = u32;
    type Table = RoutingTable;
    type Trace = Trace;
    type Part = Partitioning;
    type Engine = ForwardingTable;

    fn synthesize(routes: usize, seed: u64) -> RoutingTable {
        synthesize(&SynthConfig::sized(routes, seed))
    }

    fn routes(table: &RoutingTable) -> usize {
        table.len()
    }

    fn generate(stream: Stream, table: &RoutingTable, packets: usize, seed: u64) -> Trace {
        match stream {
            Stream::BellLabs => preset(PresetName::BL).generate(table, packets, seed),
            Stream::NearUniform => TracePreset {
                distinct: 2 * table.len(),
                model: LocalityModel::Zipf { alpha: 0.05 },
                ..preset(PresetName::D75)
            }
            .generate(table, packets, seed),
            Stream::Zipf6 => panic!("Zipf6 is an IPv6 stream"),
        }
    }

    fn trace_of(dests: Vec<u32>) -> Trace {
        Trace::new("bench", dests)
    }

    fn dests(trace: &Trace) -> &[u32] {
        trace.destinations()
    }

    fn split(trace: &Trace, n: usize) -> Vec<Trace> {
        trace.split(n)
    }

    fn partition(table: &RoutingTable, psi: usize) -> Partitioning {
        Partitioning::new(table, select_bits(table, eta_for(psi)), psi)
    }

    fn home_of(part: &Partitioning, addr: u32) -> u16 {
        part.home_of(addr)
    }

    fn fragments(part: &Partitioning, table: &RoutingTable) -> Vec<RoutingTable> {
        part.forwarding_tables(table)
    }

    fn build(kind: EngineKind, table: &RoutingTable) -> ForwardingTable {
        ForwardingTable::build(algorithm_v4(kind), table)
    }

    fn reference(table: &RoutingTable) -> ForwardingTable {
        ForwardingTable::build(LpmAlgorithm::Binary, table)
    }

    fn lookup(engine: &ForwardingTable, addr: u32) -> Option<u16> {
        Lpm::lookup(engine, addr).map(|nh| nh.0)
    }

    fn lookup_batch(engine: &ForwardingTable, addrs: &[u32], out: &mut [CountedLookup]) {
        Lpm::lookup_batch(engine, addrs, out)
    }

    fn storage_bytes(engine: &ForwardingTable) -> usize {
        Lpm::storage_bytes(engine)
    }

    fn run(table: &RoutingTable, traces: &[Trace], cfg: &RunConfig) -> DataplaneReport {
        run(
            table,
            traces,
            &DataplaneConfig {
                workers: cfg.workers,
                algorithm: algorithm_v4(cfg.engine),
                cache: cfg.cache.clone(),
                batch: BATCH,
                ring_capacity: RING_CAPACITY,
                churn: cfg.churn.clone(),
                invalidation: InvalidationMode::Targeted,
                spot_check_every: SPOT_CHECK_EVERY,
                seed: cfg.seed,
                ..Default::default()
            },
        )
    }
}

impl Family for V6 {
    type Addr = u128;
    type Table = RoutingTable6;
    type Trace = Trace6;
    type Part = Partitioning6;
    type Engine = ForwardingTable6;

    /// 200 000 routes is the DFZ-2026 preset; any other size (the quick
    /// tier) goes through the same generator.
    fn synthesize(routes: usize, seed: u64) -> RoutingTable6 {
        if routes == 200_000 {
            dfz2026_v6(seed)
        } else {
            synthesize6_dfz(routes, seed)
        }
    }

    fn routes(table: &RoutingTable6) -> usize {
        table.len()
    }

    fn generate(stream: Stream, table: &RoutingTable6, packets: usize, seed: u64) -> Trace6 {
        assert_eq!(stream, Stream::Zipf6, "IPv6 has one stream");
        generate6(table, 32_768, packets, seed)
    }

    fn trace_of(dests: Vec<u128>) -> Trace6 {
        Trace6::new("bench", dests)
    }

    fn dests(trace: &Trace6) -> &[u128] {
        trace.destinations()
    }

    fn split(trace: &Trace6, n: usize) -> Vec<Trace6> {
        trace.split(n)
    }

    fn partition(table: &RoutingTable6, psi: usize) -> Partitioning6 {
        Partitioning6::new(table, select_bits6(table, eta_for(psi)), psi)
    }

    fn home_of(part: &Partitioning6, addr: u128) -> u16 {
        part.home_of(addr)
    }

    fn fragments(part: &Partitioning6, table: &RoutingTable6) -> Vec<RoutingTable6> {
        part.forwarding_tables(table)
    }

    fn build(kind: EngineKind, table: &RoutingTable6) -> ForwardingTable6 {
        assert_eq!(kind, EngineKind::Ship, "IPv6 runs SHIP");
        ForwardingTable6::build(LpmAlgorithm6::Ship, table)
    }

    fn reference(table: &RoutingTable6) -> ForwardingTable6 {
        ForwardingTable6::build(LpmAlgorithm6::Binary, table)
    }

    fn lookup(engine: &ForwardingTable6, addr: u128) -> Option<u16> {
        Lpm6::lookup(engine, addr).map(|nh| nh.0)
    }

    fn lookup_batch(engine: &ForwardingTable6, addrs: &[u128], out: &mut [CountedLookup]) {
        Lpm6::lookup_batch(engine, addrs, out)
    }

    fn storage_bytes(engine: &ForwardingTable6) -> usize {
        Lpm6::storage_bytes(engine)
    }

    fn run(table: &RoutingTable6, traces: &[Trace6], cfg: &RunConfig) -> DataplaneReport {
        assert_eq!(cfg.engine, EngineKind::Ship, "IPv6 runs SHIP");
        run6(
            table,
            traces,
            &Dataplane6Config {
                workers: cfg.workers,
                algorithm: LpmAlgorithm6::Ship,
                cache: cfg.cache.clone(),
                batch: BATCH,
                ring_capacity: RING_CAPACITY,
                churn: cfg.churn.clone(),
                invalidation: InvalidationMode::Targeted,
                spot_check_every: SPOT_CHECK_EVERY,
                seed: cfg.seed,
                ..Default::default()
            },
        )
    }
}

/// The update stream `run` generates for itself from `cfg.seed` and the
/// churn configuration — the same call, so the replay applies the same
/// updates the control thread did.
pub fn churn_updates(table: &RoutingTable, churn: &ChurnConfig, seed: u64) -> Vec<Update> {
    update_stream(
        table,
        &UpdateStreamConfig {
            count: churn.updates,
            withdraw_fraction: churn.withdraw_fraction,
            seed: seed ^ 0x5EED_CAFE,
        },
    )
    .0
}

/// Every `ChurnReport.apply_us` sample of a report, ascending, so the
/// benchmark can pool them over reps (the summary keeps its samples
/// private; its nearest-rank percentile at `i / (n - 1)` is sample `i`).
pub fn apply_samples_us(churn: &ChurnReport) -> Vec<f64> {
    let n = churn.apply_us.count as usize;
    (0..n)
        .map(|i| {
            churn
                .apply_us
                .percentile_us(i as f64 / (n - 1).max(1) as f64)
        })
        .collect()
}

/// Packet-sojourn percentiles of a report, ns: `(p50, p99, p999)` over
/// all paths, then the local-hit and miss p99.
pub fn sojourn_ns(report: &DataplaneReport) -> [u64; 5] {
    let paths = report.latency_paths();
    let all = paths.all();
    [
        all.p50_ns(),
        all.p99_ns(),
        all.p999_ns(),
        paths.loc_hit.p99_ns(),
        paths.miss.p99_ns(),
    ]
}
