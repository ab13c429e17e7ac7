//! Incremental-update accounting shared by the LPM engines.
//!
//! SPAL keeps every LC's ROT partition resident in fast memory while BGP
//! churn rewrites it; the update path therefore matters as much as the
//! lookup path. [`crate::Lpm::apply_delta`] lets an engine patch itself
//! in place after a batch of route changes instead of being rebuilt from
//! scratch, and [`DeltaStats`] records how much memory the patch actually
//! rewrote so the dataplane can show the work is O(delta), not O(table).

/// What an in-place patch touched. Returned by
/// [`crate::Lpm::apply_delta`] so callers can account update cost in
/// bytes rather than wall-clock alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Changed prefixes the engine applied.
    pub prefixes_applied: usize,
    /// Bytes of engine memory rewritten (slots, codewords, pointer
    /// splices, rebuilt chunks/subtries), under the same byte models as
    /// [`crate::Lpm::storage_bytes`].
    pub bytes_touched: usize,
}
