//! # SPAL — Speedy Packet Lookup for High-Performance Routers
//!
//! Facade crate re-exporting the whole SPAL reproduction workspace.
//! See the individual crates for detail:
//!
//! * [`rib`] — prefixes, routing tables, synthetic BGP tables
//! * [`lpm`] — longest-prefix-match tries (binary, DP, Lulea, LC-trie)
//! * [`cache`] — the LR-cache (set-associative, mix-aware, victim cache)
//! * [`fabric`] — switching-fabric latency/bandwidth models
//! * [`traffic`] — trace presets and packet arrival processes
//! * [`core`] — partition-bit selection, ROT-partitions, forwarding tables
//! * [`sim`] — the cycle-driven router simulator
//! * [`dataplane`] — the threaded runtime (v4 and v6), epoch layer,
//!   version-gated caches

pub use spal_cache as cache;
pub use spal_core as core;
pub use spal_dataplane as dataplane;
pub use spal_fabric as fabric;
pub use spal_lpm as lpm;
pub use spal_rib as rib;
pub use spal_sim as sim;
pub use spal_traffic as traffic;
