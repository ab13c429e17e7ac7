//! The SPAL dataplane — a *real* concurrent router runtime, where the
//! discrete-event simulator (`spal-sim`) models a timed one.
//!
//! ψ LC worker threads each own their ROT-partition forwarding engine
//! and LR-cache, exchange home-LC request/reply messages over bounded
//! lock-free SPSC rings ([`spal_fabric::spsc`]), and drain packet
//! batches through the engines' `forward_batch` path. A control-plane
//! thread consumes a BGP update stream and republishes forwarding
//! snapshots through an epoch-based RCU layer ([`epoch`]) — readers
//! never block, and cache invalidation after a publication is either
//! the paper's full flush or prefix-targeted eviction.
//!
//! * [`epoch`] — QSBR snapshot publication with writer-side grace
//!   periods and snapshot recycling;
//! * [`family`] — the [`AddrFamily`] trait and its two instantiations,
//!   [`V4`] and [`V6`]: the per-width types and calls the runtime is
//!   generic over;
//! * [`runtime`] — workers, control plane, and the entry points
//!   ([`run_family`]; [`run`] and [`run6`] are its IPv4 and IPv6
//!   instantiations);
//! * [`report`] — per-worker and churn statistics, comparable with the
//!   simulator's per-LC reports;
//! * [`vcache`] — the version-gated LR-cache (stale fabric replies are
//!   never cached);
//! * [`fault`] — deterministic, seed-driven fault injection for the
//!   fabric and workers;
//! * [`scenario`] — scripted operational episodes (LC failure with
//!   online re-partitioning, flash crowd, sustained overload, soak)
//!   run against the live dataplane, with gated reports.

pub mod epoch;
pub mod family;
pub mod fault;
mod pending;
pub mod report;
pub mod runtime;
pub mod scenario;
pub mod vcache;

pub use epoch::{epoch_table, EpochReader, EpochWriter, Pinned};
pub use family::{AddrFamily, V4, V6};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use report::{
    ChurnReport, DataplaneReport, FailoverSummary, FaultReport, LatencyHisto, LatencySummary,
    PathLatency, SweepSummary, WorkerReport,
};
pub use runtime::{
    run, run6, run_family, ChurnConfig, Dataplane6Config, DataplaneConfig, FailoverPlan,
    InvalidationMode, OverloadConfig, IN_FLIGHT_WINDOW_BATCHES, MAX_WORKERS,
};
pub use scenario::{
    run_scenario, LiveProbe, RecoverySummary, ScenarioConfig, ScenarioKind, ScenarioReport,
};
pub use vcache::{VersionedCache, VersionedFill};
