//! SPAL core — the paper's primary contribution.
//!
//! * [`bits`] — the §3.1 greedy, recursive selection of partitioning bit
//!   positions under Criterion 1 (minimise Φ*, the wildcard replication)
//!   and Criterion 2 (minimise |Φ0 − Φ1|, the size imbalance);
//! * [`partition`] — ROT-partition construction (prefixes whose chosen
//!   bits are `*` are replicated into every matching partition), the
//!   mapping of 2^η bit groups onto an *arbitrary* number ψ of line cards
//!   (ψ need not be a power of two), and the LR1/LR2-style home-LC
//!   detector;
//! * [`fwd`] — the forwarding-table wrappers (one per address width)
//!   selecting one of the `spal-lpm` algorithms per line card;
//! * [`baseline`] — the comparison schemes that are not routers: ref
//!   \[6\]'s range-caching interval map and the partition-by-length
//!   scheme of ref \[1\] (the conventional and cache-only routers run in
//!   `spal-sim`).
//!
//! The §3.3 lookup flows that share results through home LCs run in
//! the two models built on these pieces: the cycle-driven `spal-sim`
//! behind every figure, and the `spal-dataplane` runtime the benchmark
//! measures (its deterministic schedule is the one to step through).

pub mod baseline;
pub mod bits;
pub mod fwd;
pub mod partition;
pub mod v6;

pub use bits::{select_bits, BitScore};
pub use fwd::{ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6};
pub use partition::{PartitionStats, Partitioning};
pub use v6::{select_bits6, Partitioning6};
