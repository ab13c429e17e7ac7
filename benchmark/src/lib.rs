//! The SPAL dataplane's reference benchmark.
//!
//! One command per workload prints every metric by name with its unit,
//! checks the run against an oracle that is not the system under test,
//! and exits non-zero on any divergence. `README.md` beside this crate
//! has the metric glossary, the workload table and how to compare two
//! sets of runs; `../BENCHMARK.json` declares it to the driver.

pub mod bench;
pub mod host;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod stats;
pub mod sut;
pub mod workload;
