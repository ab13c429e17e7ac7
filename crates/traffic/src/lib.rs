//! Traffic substrate: destination-address traces and packet arrival
//! processes for the trace-driven simulation of §5.
//!
//! The paper drives its simulator with five public traces — two
//! WorldCup98 days (D_75, D_81), two Abilene-I segments (L_92-0, L_92-1)
//! and Bell Labs-I (B_L) — none of which is retrievable today. This crate
//! substitutes *named synthetic presets* ([`presets`]) whose single
//! relevant property, temporal locality of destination addresses, is
//! calibrated so a 4K-block LR-cache sees the >0.9 hit-rate band the
//! paper and its references \[5, 6\] report, with the five presets spread
//! across the locality range the five real traces span (visible as the
//! vertical spread in the paper's Figs. 4–6).
//!
//! Components:
//! * [`adversarial`] — flash-crowd collapse and cache-thrash traces for
//!   the operational-scenario suite;
//! * [`locality`] — Zipf popularity with an O(1) alias-method sampler and
//!   an optional packet-train (burst) overlay modelling flows;
//! * [`pool`] — destination pools drawn inside a routing table's
//!   covered space;
//! * [`trace`] — trace containers, per-LC stream splitting, text I/O;
//! * [`v6`] — the one-call IPv6 trace and the `Trace6` / `AddressPool6`
//!   spellings (pools and traces are generic over the address width);
//! * [`arrival`] — the §5.1 packet arrival processes (uniform 2–18 cycle
//!   gaps at 40 Gbps, 6–74 at 10 Gbps, mean packet 256 B).

pub mod adversarial;
pub mod analysis;
pub mod arrival;
pub mod locality;
pub mod pool;
pub mod presets;
pub mod trace;
pub mod v6;

pub use adversarial::{cache_thrash, flash_crowd, FlashCrowdConfig, ThrashConfig};
pub use arrival::{ArrivalProcess, LcSpeed};
pub use locality::{AliasTable, LocalityModel};
pub use pool::AddressPool;
pub use presets::{preset, PresetName, TracePreset, ALL_PRESETS};
pub use trace::Trace;
pub use v6::{generate6, AddressPool6, Trace6};
