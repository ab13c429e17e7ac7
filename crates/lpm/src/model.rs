//! The paper's forwarding-engine timing model (§5.1).
//!
//! A table lookup at an FE costs a sequence of off-chip SRAM accesses
//! (the trie lives in the L3 data cache) plus the execution of the
//! matching code: the paper assumes 12 ns per memory access and 120 ns of
//! code execution (~100 instructions), on a 5 ns system cycle. That makes
//! a Lulea lookup (≈6.6 accesses) ≈40 cycles and a DP-trie lookup (≈16
//! accesses) ≈62 cycles — the two FE costs every simulation in §5 uses.
//!
//! The same curve prices the cache-line cost model: fed a lookup's mean
//! distinct 64-byte lines (`lines_touched`) instead of its logical
//! accesses, on the argument that a modern memory hierarchy moves whole
//! lines, the gap between the two costs is the co-location win an
//! engine's layout earns.

/// Off-chip SRAM access time in nanoseconds (§5.1: 12 ns).
pub const MEM_ACCESS_NS: f64 = 12.0;
/// Matching-code execution time per lookup in nanoseconds (§5.1: 120 ns
/// ≈ 100 instructions).
pub const CODE_EXEC_NS: f64 = 120.0;
/// System cycle time in nanoseconds (§5.1: 5 ns).
pub const CYCLE_NS: f64 = 5.0;

/// FE lookup cost in nanoseconds for a given mean number of memory
/// accesses per lookup.
pub fn lookup_ns(mean_accesses: f64) -> f64 {
    mean_accesses * MEM_ACCESS_NS + CODE_EXEC_NS
}

/// FE lookup cost in (rounded) system cycles.
pub fn lookup_cycles(mean_accesses: f64) -> u32 {
    (lookup_ns(mean_accesses) / CYCLE_NS).round() as u32
}

/// The paper's canonical FE cost under the Lulea trie: 40 cycles.
pub const LULEA_FE_CYCLES: u32 = 40;
/// The paper's canonical FE cost under the DP trie: 62 cycles.
pub const DP_FE_CYCLES: u32 = 62;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lulea_cost_reproduces_40_cycles() {
        // §5.1: Lulea ≈ 6.2–6.6 accesses → "roughly 40 cycles".
        assert_eq!(lookup_cycles(6.6), LULEA_FE_CYCLES);
        assert_eq!(lookup_cycles(6.2), 39);
        assert!((lookup_ns(6.6) - 199.2).abs() < 1e-9);
    }

    #[test]
    fn dp_cost_reproduces_62_cycles() {
        // §5.1: DP ≈ 16 accesses → "62 cycles or so".
        assert_eq!(lookup_cycles(16.0), DP_FE_CYCLES);
    }

    #[test]
    fn line_model_shares_the_cost_curve() {
        // The line-cost model is the same affine curve fed a smaller
        // argument: Lulea's 6.6 accesses collapse to ≈5.9 distinct lines
        // after the codeword+base re-layout, a Poptrie lookup to ≈3.
        assert_eq!(lookup_cycles(3.15), 32);
        assert!(lookup_cycles(5.9) < lookup_cycles(6.6));
    }
}
