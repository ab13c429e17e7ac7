//! Partitioning-bit selection — §3.1 of the paper.
//!
//! For a router with ψ LCs, η = ⌈log₂ψ⌉ bit positions fragment the
//! routing table into 2^η ROT-partitions. A candidate bit bν splits a
//! prefix set into (Φ0 + Φ*) and (Φ1 + Φ*) prefixes, where Φ0/Φ1 count
//! prefixes whose bit ν is a concrete 0/1 and Φ* counts those whose bit ν
//! lies beyond their length (these replicate into both subsets):
//!
//! * **Criterion 1** — minimise the combined subset size, i.e. minimise
//!   Φ* (the replication). This automatically rules out large ν: most
//!   prefixes are shorter than 24 bits, so bits past ~24 are `*` almost
//!   everywhere.
//! * **Criterion 2** — minimise the size difference |Φ0 − Φ1|, counting
//!   only prefixes with a concrete bit ν.
//!
//! Bits are chosen one at a time, each evaluated against *all current
//! subsets simultaneously* (the paper applies the criteria "recursively
//! … before deciding the bit for both subsets as the second control
//! bit"): candidate scores are the sums of Φ* and |Φ0 − Φ1| across
//! subsets.

use spal_rib::bits::{AddressBits, TriBit};
use spal_rib::{Prefix, RoutingTable};

/// Score of one candidate bit over the current subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitScore {
    /// The bit position ν (0 = most significant).
    pub bit: u8,
    /// Σ Φ* over subsets: prefixes that would be replicated.
    pub phi_star: usize,
    /// Σ |Φ0 − Φ1| over subsets: size imbalance.
    pub imbalance: usize,
    /// Size of the largest subset after splitting on this bit.
    pub max_size: usize,
    /// Σ subset sizes after splitting (original + Φ* replication).
    pub total_size: usize,
}

impl BitScore {
    /// How the two criteria combine into one ordering: the reading that
    /// reproduces the paper's own §3.1 example (it selects {b0, b4}, the
    /// partitioning the paper calls superior): Criterion 1 asks for
    /// "*each* ROT-partition involving as few prefixes as possible" =
    /// smallest max; Criterion 2 (minimum size difference) breaks the
    /// remaining ties = smallest imbalance; then least total replication,
    /// then the lower bit. Smaller ranks better.
    fn rank(&self) -> (usize, usize, usize, u8) {
        (self.max_size, self.imbalance, self.total_size, self.bit)
    }
}

/// Score candidate bit `nu` over the given subsets.
fn score_bit<A: AddressBits>(subsets: &[Vec<Prefix<A>>], nu: u8) -> BitScore {
    let mut phi_star = 0usize;
    let mut imbalance = 0usize;
    let mut max_size = 0usize;
    let mut total_size = 0usize;
    for subset in subsets {
        let mut zeros = 0usize;
        let mut ones = 0usize;
        let mut wild = 0usize;
        for p in subset {
            match p.tri_bit(nu) {
                TriBit::Zero => zeros += 1,
                TriBit::One => ones += 1,
                TriBit::Wild => wild += 1,
            }
        }
        phi_star += wild;
        imbalance += zeros.abs_diff(ones);
        max_size = max_size.max(zeros + wild).max(ones + wild);
        total_size += zeros + ones + 2 * wild;
    }
    BitScore {
        bit: nu,
        phi_star,
        imbalance,
        max_size,
        total_size,
    }
}

/// Split every subset on bit `nu`; wildcards go to both halves.
fn split_subsets<A: AddressBits>(subsets: Vec<Vec<Prefix<A>>>, nu: u8) -> Vec<Vec<Prefix<A>>> {
    let mut out = Vec::with_capacity(subsets.len() * 2);
    for subset in subsets {
        let mut zero = Vec::new();
        let mut one = Vec::new();
        for p in subset {
            match p.tri_bit(nu) {
                TriBit::Zero => zero.push(p),
                TriBit::One => one.push(p),
                TriBit::Wild => {
                    zero.push(p);
                    one.push(p);
                }
            }
        }
        out.push(zero);
        out.push(one);
    }
    out
}

/// Select `eta` partitioning bit positions for an arbitrary prefix set
/// (IPv4 or IPv6), considering candidate positions `0..=max_bit`.
/// Returns the chosen positions in selection order.
///
/// # Panics
/// Panics if `eta > max_bit + 1` (not enough distinct positions) or if
/// `max_bit` exceeds the address width.
pub fn select_bits_generic<A: AddressBits>(
    prefixes: &[Prefix<A>],
    eta: usize,
    max_bit: u8,
) -> Vec<u8> {
    assert!(
        max_bit < A::BITS,
        "bit positions for this family are 0..={}",
        A::BITS - 1
    );
    assert!(
        eta <= max_bit as usize + 1,
        "cannot choose {eta} distinct bits from {} positions",
        max_bit as usize + 1
    );
    let mut chosen: Vec<u8> = Vec::with_capacity(eta);
    let mut subsets: Vec<Vec<Prefix<A>>> = vec![prefixes.to_vec()];
    for _ in 0..eta {
        let best = (0..=max_bit)
            .filter(|nu| !chosen.contains(nu))
            .map(|nu| score_bit(&subsets, nu))
            .min_by_key(BitScore::rank)
            .expect("at least one candidate bit remains");
        subsets = split_subsets(subsets, best.bit);
        chosen.push(best.bit);
    }
    chosen
}

/// [`select_bits_generic`] for a routing table, candidate positions
/// `0..min(A::BITS, 64)`: every position of an IPv4 address (the paper
/// examines 0 ≤ ν ≤ 31; Criterion 1 already rules out large ν on real
/// tables), the upper half of an IPv6 one — interface identifiers (the
/// low 64 bits) are host bits, wild in almost every routed prefix, so
/// Criterion 1 excludes them just as it excludes positions > 24 in IPv4.
pub fn select_bits<A: AddressBits>(table: &RoutingTable<A>, eta: usize) -> Vec<u8> {
    let prefixes: Vec<Prefix<A>> = table.prefixes().collect();
    select_bits_generic(&prefixes, eta, A::BITS.min(64) - 1)
}

/// Number of partitioning bits for a router with `psi` LCs:
/// η = ⌈log₂ψ⌉.
pub fn eta_for(psi: usize) -> usize {
    assert!(psi >= 1, "a router needs at least one LC");
    (psi as f64).log2().ceil() as usize
}

/// Diagnostic: the full score table for every candidate position, in bit
/// order — what Fig.-style partitioning studies print.
pub fn score_table(table: &RoutingTable, max_bit: u8) -> Vec<BitScore> {
    let subsets = vec![table.prefixes().collect::<Vec<_>>()];
    (0..=max_bit).map(|nu| score_bit(&subsets, nu)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::{synth, NextHop, Prefix, RouteEntry};

    /// The paper's §3.1 worked example: 7 prefixes over 8-bit addresses.
    /// P1=101*, P2=1011*, P3=01*, P4=001110*, P5=10010011, P6=10011*,
    /// P7=011001*. We embed the 8-bit toy prefixes in the top byte.
    fn paper_example() -> RoutingTable {
        let mk = |bits: u32, len: u8, nh: u16| RouteEntry {
            prefix: Prefix::new(bits << 24, len).unwrap(),
            next_hop: NextHop(nh),
        };
        RoutingTable::from_entries([
            mk(0b1010_0000, 3, 1), // P1 = 101*
            mk(0b1011_0000, 4, 2), // P2 = 1011*
            mk(0b0100_0000, 2, 3), // P3 = 01*
            mk(0b0011_1000, 6, 4), // P4 = 001110*
            mk(0b1001_0011, 8, 5), // P5 = 10010011
            mk(0b1001_1000, 5, 6), // P6 = 10011*
            mk(0b0110_0100, 6, 7), // P7 = 011001*
        ])
    }

    #[test]
    fn paper_example_scores() {
        let rt = paper_example();
        let scores = score_table(&rt, 7);
        // b0: every prefix has a concrete bit 0 → Φ* = 0.
        assert_eq!(scores[0].phi_star, 0);
        // 4 prefixes start with 1 (P1,P2,P5,P6), 3 with 0 → imbalance 1.
        assert_eq!(scores[0].imbalance, 1);
        // b2 (the paper's "inferior" example bit): P3=01* has len 2, so
        // bit 2 is wild → Φ* = 1.
        assert_eq!(scores[2].phi_star, 1);
        // b4: concrete for P2(4? no: len 4 → bits 0..3, bit 4 wild).
        // Wild for P1(len 3), P2(len 4), P3(len 2) → Φ* = 3.
        assert_eq!(scores[4].phi_star, 3);
    }

    /// Selection over the toy example's eight bit positions.
    fn toy_bits(rt: &RoutingTable, eta: usize) -> Vec<u8> {
        let prefixes: Vec<Prefix> = rt.prefixes().collect();
        select_bits_generic(&prefixes, eta, 7)
    }

    #[test]
    fn paper_example_prefers_b0_over_b2() {
        // §3.1: partitioning on {b0, b4} beats {b2, b4}; b2 can never be
        // first.
        assert_eq!(toy_bits(&paper_example(), 1), [0]);
    }

    #[test]
    fn paper_example_reproduces_b0_b4() {
        // The ranking must reproduce the paper's published choice
        // {b0, b4} and its partition sizes {2, 2, 3, 3}.
        let rt = paper_example();
        let bits = toy_bits(&rt, 2);
        assert_eq!(bits, vec![0, 4]);
        let parts = crate::partition::rot_partitions(&rt, &bits);
        let mut sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 3, 3]);
    }

    #[test]
    fn eta_rounding() {
        assert_eq!(eta_for(1), 0);
        assert_eq!(eta_for(2), 1);
        assert_eq!(eta_for(3), 2);
        assert_eq!(eta_for(4), 2);
        assert_eq!(eta_for(5), 3);
        assert_eq!(eta_for(16), 4);
        assert_eq!(eta_for(17), 5);
    }

    #[test]
    fn criterion1_rules_out_high_bits() {
        // On a backbone-like table, bits past ~24 are wild for most
        // prefixes, so no chosen bit should sit there.
        let rt = synth::small(3);
        let bits = select_bits(&rt, 4);
        assert_eq!(bits.len(), 4);
        for &b in &bits {
            assert!(b < 24, "chose high bit {b}");
        }
        // All distinct.
        let mut sorted = bits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn minimize_max_minimises_largest_partition() {
        let rt = synth::small(5);
        let bits = select_bits(&rt, 1);
        let scores = score_table(&rt, 31);
        let min_max = scores.iter().map(|s| s.max_size).min().unwrap();
        assert_eq!(scores[bits[0] as usize].max_size, min_max);
    }

    /// Positions taken from `select_bits` / `select_bits6` while they
    /// were two functions: the generic one must keep choosing them.
    #[test]
    fn selected_positions_are_pinned_at_both_widths() {
        use spal_rib::v6::{dfz2026_v6, synthesize6};
        assert_eq!(select_bits(&synth::rt1(1), 4), [9, 11, 14, 13]);
        assert_eq!(select_bits(&synth::rt1(7), 5), [4, 13, 14, 12, 10]);
        assert_eq!(select_bits(&synthesize6(5_000, 31), 5), [4, 16, 7, 23, 18]);
        assert_eq!(select_bits(&dfz2026_v6(0xD15C), 2), [18, 4]);
    }

    #[test]
    fn zero_eta_for_single_lc() {
        let rt = synth::small(9);
        assert!(select_bits(&rt, 0).is_empty());
    }

    #[test]
    fn empty_table() {
        let rt: RoutingTable = RoutingTable::new();
        let bits = select_bits(&rt, 2);
        assert_eq!(bits.len(), 2);
    }
}
