//! The **LR-cache** — SPAL's lookup-result cache (§3.2 of the paper).
//!
//! Every line card holds a small on-chip set-associative cache of
//! `<IP address, Next_hop_LC#>` pairs inside its fabric-interface-logic
//! chip. This crate implements it exactly as §3.2 describes:
//!
//! * 4-way set associativity by default (higher degrees buy almost
//!   nothing, per the paper's simulations and ref \[16\]), block = one
//!   lookup result (spatial locality of IP destinations is weak);
//! * per-entry **availability** state (invalid → shared), an **M bit**
//!   recording whether the result was obtained locally (`LOC`) or from a
//!   remote FE (`REM`), and a **W bit** marking a reserved entry whose
//!   reply is still in flight (early cache-block recording);
//! * **mix-aware replacement**: when a set is full, the class (LOC/REM)
//!   exceeding its share of the mix target γ supplies the eviction
//!   candidates, and a conventional policy (LRU/FIFO/random) picks among
//!   them;
//! * an 8-block fully-associative **victim cache** probed in parallel
//!   with the main array;
//! * whole-cache **flush** after every routing-table update.
//!
//! The cache is generic over the stored value so it does not depend on
//! the routing-table crate; SPAL stores `NextHop` in it.

pub mod addr;
pub mod lr;
#[cfg(test)]
mod oracle;
pub mod policy;
pub mod range;
pub mod stats;
pub mod victim;

pub use addr::CacheAddr;
pub use lr::{
    BatchProbe, FillOutcome, LrCache, LrCache6, LrCacheConfig, MixMode, Origin, ProbeResult,
    ReserveOutcome,
};
pub use policy::ReplacementPolicy;
pub use stats::CacheStats;
