//! Shared harness for the `exp` driver (one experiment per paper table
//! or figure — see `DESIGN.md`'s per-experiment index) and the `bench_*`
//! gates.

pub mod args;
pub mod dfz;
pub mod fmt;
pub mod gate;
pub mod lookup;
pub mod setup;

pub use args::{ArgError, Args};
pub use fmt::TablePrinter;
pub use gate::Gates;
pub use setup::{rt1, rt2, trace_streams, ExpOptions};
