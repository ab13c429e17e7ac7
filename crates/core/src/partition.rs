//! ROT-partition construction and the home-LC detector (§3.1, §3.3).
//!
//! Given η chosen bit positions, every prefix lands in the partitions
//! whose bit pattern its tri-state bits match — a prefix with `*` in a
//! chosen position replicates into both halves (the paper's P3 = `01*`
//! appears in *every* partition when b2 and b4 are chosen). The 2^η bit
//! groups are then mapped onto ψ line cards — ψ "can be of any integer,
//! not necessarily a power of 2" — by greedy size balancing.
//!
//! A packet's home LC is computed by the LR1 detector from the same bit
//! positions of its destination address ("can be determined immediately
//! upon arrival by examining the appropriate bit positions").

use spal_rib::bits::{AddressBits, TriBit};
use spal_rib::{Prefix, RouteEntry, RoutingTable};

/// The partitioning of one routing table over ψ line cards.
///
/// The state is width-free — bit positions and a group→LC map — so one
/// type serves IPv4 and IPv6: the methods that take a table, an address
/// or a prefix are generic over the address width, [`AddressBits`]
/// (§6: "SPAL is feasibly applicable to IPv6").
///
/// ```
/// use spal_core::bits::{select_bits, eta_for};
/// use spal_core::partition::Partitioning;
/// use spal_rib::synth;
///
/// let table = synth::small(7);
/// let psi = 6; // any integer, not only powers of two (§3.1)
/// let bits = select_bits(&table, eta_for(psi));
/// let part = Partitioning::new(&table, bits, psi);
///
/// // Every address has exactly one home LC, and looking it up in the
/// // home LC's fragment equals the full-table longest-prefix match.
/// let addr = table.entries()[42].prefix.first_addr();
/// let home = part.home_of(addr) as usize;
/// let fragments = part.forwarding_tables(&table);
/// assert_eq!(
///     fragments[home].longest_match(addr).map(|e| e.next_hop),
///     table.longest_match(addr).map(|e| e.next_hop),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// Chosen bit positions, in selection order.
    bits: Vec<u8>,
    /// Mapping from bit group (0..2^η) to line card (0..ψ).
    group_to_lc: Vec<u16>,
    /// Number of line cards.
    psi: usize,
}

impl Partitioning {
    /// Partition `table` over `psi` LCs using the given bit positions
    /// (normally from [`crate::bits::select_bits`], with
    /// η = ⌈log₂ψ⌉ bits).
    ///
    /// # Panics
    /// Panics if `psi == 0`, if `2^bits.len() < psi` (not enough groups),
    /// or if bit positions repeat.
    pub fn new<A: AddressBits>(table: &RoutingTable<A>, bits: Vec<u8>, psi: usize) -> Self {
        assert!(psi >= 1, "a router needs at least one LC");
        let groups = 1usize << bits.len();
        assert!(
            groups >= psi,
            "2^{} groups cannot cover {psi} LCs",
            bits.len()
        );
        {
            let mut b = bits.clone();
            b.sort_unstable();
            b.dedup();
            assert_eq!(b.len(), bits.len(), "bit positions must be distinct");
        }
        // Group sizes determine the balanced group→LC mapping.
        let mut sizes = vec![0usize; groups];
        for e in table.entries() {
            for g in groups_of_prefix(&bits, e.prefix) {
                sizes[g] += 1;
            }
        }
        let group_to_lc = balance_groups(&sizes, psi);
        Partitioning {
            bits,
            group_to_lc,
            psi,
        }
    }

    /// The chosen bit positions.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    /// Number of line cards ψ.
    pub fn psi(&self) -> usize {
        self.psi
    }

    /// Number of bit groups (2^η).
    pub fn groups(&self) -> usize {
        self.group_to_lc.len()
    }

    /// The bit group of a destination address (the LR1 detector's XOR
    /// logic: extract the chosen bit positions, MSB-first).
    #[inline]
    pub fn group_of_addr<A: AddressBits>(&self, addr: A) -> usize {
        let mut g = 0usize;
        for &b in &self.bits {
            g = (g << 1) | addr.bit(b) as usize;
        }
        g
    }

    /// The home LC of a destination address.
    #[inline]
    pub fn home_of<A: AddressBits>(&self, addr: A) -> u16 {
        self.group_to_lc[self.group_of_addr(addr)]
    }

    /// The LC that homes a given bit group (for update propagation).
    #[inline]
    pub fn lc_of_group(&self, group: usize) -> u16 {
        self.group_to_lc[group]
    }

    /// The line cards whose ROT-partitions contain `prefix` (wildcards
    /// in the chosen bits replicate it), sorted and deduplicated — the
    /// update-propagation fan-out: a routing update to `prefix` must
    /// reach exactly these LCs' forwarding tables.
    pub fn lcs_of_prefix<A: AddressBits>(&self, prefix: Prefix<A>) -> Vec<u16> {
        let mut lcs: Vec<u16> = groups_of_prefix(&self.bits, prefix)
            .map(|g| self.group_to_lc[g])
            .collect();
        lcs.sort_unstable();
        lcs.dedup();
        lcs
    }

    /// Build the per-LC forwarding tables (the ROT-partitions merged per
    /// LC). Every address's longest match within its home LC's table
    /// equals its longest match in the full table — the replication of
    /// wildcard-bit prefixes guarantees it.
    pub fn forwarding_tables<A: AddressBits>(
        &self,
        table: &RoutingTable<A>,
    ) -> Vec<RoutingTable<A>> {
        let mut per_lc: Vec<Vec<RouteEntry<A>>> = vec![Vec::new(); self.psi];
        for e in table.entries() {
            for lc in self.lcs_of_prefix(e.prefix) {
                per_lc[lc as usize].push(*e);
            }
        }
        per_lc.into_iter().map(RoutingTable::from_entries).collect()
    }

    /// Size statistics of the per-LC tables.
    pub fn stats<A: AddressBits>(&self, table: &RoutingTable<A>) -> PartitionStats {
        let tables = self.forwarding_tables(table);
        PartitionStats::of(table.len(), tables.iter().map(|t| t.len()))
    }

    /// Successor partitioning after line card `dead` fails: every bit
    /// group homed on `dead` is re-assigned greedily (biggest group
    /// first) to the least-loaded survivor, leaving every other group's
    /// home untouched — so a failover invalidates only the moved range.
    ///
    /// `dead_fragment` is the failed LC's forwarding-table fragment
    /// (the group sizes being moved are counted from it) and
    /// `survivor_loads[lc]` the current fragment size of each LC (the
    /// entry at `dead` is ignored). Deterministic for equal inputs.
    ///
    /// # Panics
    /// Panics if `psi < 2`, `dead` is out of range, or `survivor_loads`
    /// is not ψ long.
    pub fn remap_without<A: AddressBits>(
        &self,
        dead: u16,
        dead_fragment: &RoutingTable<A>,
        survivor_loads: &[usize],
    ) -> Partitioning {
        assert!(self.psi >= 2, "cannot remap the only LC away");
        assert!((dead as usize) < self.psi, "dead LC out of range");
        assert_eq!(survivor_loads.len(), self.psi, "one load per LC");
        let mut sizes = vec![0usize; self.groups()];
        for e in dead_fragment.entries() {
            for g in groups_of_prefix(&self.bits, e.prefix) {
                if self.group_to_lc[g] == dead {
                    sizes[g] += 1;
                }
            }
        }
        let mut moved: Vec<usize> = (0..self.groups())
            .filter(|&g| self.group_to_lc[g] == dead)
            .collect();
        moved.sort_by_key(|&g| std::cmp::Reverse(sizes[g]));
        let mut load = survivor_loads.to_vec();
        let mut group_to_lc = self.group_to_lc.clone();
        for g in moved {
            let lc = (0..self.psi)
                .filter(|&l| l != dead as usize)
                .min_by_key(|&l| (load[l], l))
                .expect("psi >= 2 leaves a survivor");
            group_to_lc[g] = lc as u16;
            load[lc] += sizes[g];
        }
        Partitioning {
            bits: self.bits.clone(),
            group_to_lc,
            psi: self.psi,
        }
    }
}

/// Greedy group→LC balancing: biggest group to the least-loaded LC, ties
/// broken toward LCs holding fewer groups so every LC homes at least one
/// group (even empty ones on degenerate tables). For ψ a power of two
/// this degenerates to one group per LC.
fn balance_groups(sizes: &[usize], psi: usize) -> Vec<u16> {
    assert!(psi >= 1, "a router needs at least one LC");
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(sizes[g]));
    let mut load = vec![0usize; psi];
    let mut count = vec![0usize; psi];
    let mut group_to_lc = vec![0u16; sizes.len()];
    for g in order {
        let lc = (0..psi)
            .min_by_key(|&l| (load[l], count[l], l))
            .expect("psi >= 1");
        group_to_lc[g] = lc as u16;
        load[lc] += sizes[g];
        count[lc] += 1;
    }
    group_to_lc
}

/// Iterator over the bit groups a prefix belongs to: the cross product of
/// its wildcard positions.
fn groups_of_prefix<'a, A: AddressBits>(
    bits: &'a [u8],
    prefix: Prefix<A>,
) -> impl Iterator<Item = usize> + 'a {
    // Precompute the fixed part and the wildcard positions (MSB-first in
    // group index order).
    let eta = bits.len();
    let mut fixed = 0usize;
    let mut wild_positions: Vec<usize> = Vec::new();
    for (i, &b) in bits.iter().enumerate() {
        let shift = eta - 1 - i;
        match prefix.tri_bit(b) {
            TriBit::Zero => {}
            TriBit::One => fixed |= 1 << shift,
            TriBit::Wild => wild_positions.push(shift),
        }
    }
    let count = 1usize << wild_positions.len();
    (0..count).map(move |mask| {
        let mut g = fixed;
        for (j, &shift) in wild_positions.iter().enumerate() {
            if (mask >> j) & 1 == 1 {
                g |= 1 << shift;
            }
        }
        g
    })
}

/// Partition-quality summary (Criterion 1 ↔ `total_with_replication`,
/// Criterion 2 ↔ `max_size − min_size`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStats {
    /// Prefixes in the original table.
    pub original: usize,
    /// Number of partitions.
    pub parts: usize,
    /// Smallest per-LC table.
    pub min_size: usize,
    /// Largest per-LC table.
    pub max_size: usize,
    /// Σ per-LC sizes (≥ original because of wildcard replication).
    pub total_with_replication: usize,
}

impl PartitionStats {
    /// Summarise a set of partition sizes.
    pub fn of(original: usize, sizes: impl Iterator<Item = usize>) -> Self {
        let sizes: Vec<usize> = sizes.collect();
        PartitionStats {
            original,
            parts: sizes.len(),
            min_size: sizes.iter().copied().min().unwrap_or(0),
            max_size: sizes.iter().copied().max().unwrap_or(0),
            total_with_replication: sizes.iter().sum(),
        }
    }

    /// Replication overhead: total/original − 1.
    pub fn replication_overhead(&self) -> f64 {
        if self.original == 0 {
            return 0.0;
        }
        self.total_with_replication as f64 / self.original as f64 - 1.0
    }

    /// Max/min size ratio (∞ when the smallest partition is empty).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.min_size == 0 {
            return f64::INFINITY;
        }
        self.max_size as f64 / self.min_size as f64
    }
}

/// Helper: build the raw 2^η ROT-partitions (before LC mapping), for
/// partition-quality studies.
pub fn rot_partitions(table: &RoutingTable, bits: &[u8]) -> Vec<RoutingTable> {
    let groups = 1usize << bits.len();
    let mut parts: Vec<Vec<RouteEntry>> = vec![Vec::new(); groups];
    for e in table {
        for g in groups_of_prefix(bits, e.prefix) {
            parts[g].push(*e);
        }
    }
    parts.into_iter().map(RoutingTable::from_entries).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spal_rib::{synth, NextHop, Prefix};

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
    fn paper_example_b2_b4_partitions() {
        // §3.1: bits b2,b4 give {P3,P5}, {P3,P6}, {P1,P2,P3,P7},
        // {P1,P2,P3,P4}.
        let rt = paper_example();
        let parts = rot_partitions(&rt, &[2, 4]);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![2, 2, 4, 4]);
        // P3 (next hop 3) is in every partition.
        for p in &parts {
            assert!(p.entries().iter().any(|e| e.next_hop == NextHop(3)));
        }
    }

    #[test]
    fn paper_example_b0_b4_partitions() {
        // §3.1: bits b0,b4 give {P3,P7}, {P3,P4}, {P1,P2,P5}, {P1,P2,P6}
        // — each partition has 2 or 3 prefixes.
        let rt = paper_example();
        let parts = rot_partitions(&rt, &[0, 4]);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![2, 2, 3, 3]);
    }

    #[test]
    fn home_lookup_equals_full_table_lookup() {
        // The core correctness property of SPAL: for every address, the
        // home LC's partition contains the address's longest match.
        let rt = synth::small(11);
        let bits = crate::bits::select_bits(&rt, 2);
        let part = Partitioning::new(&rt, bits, 4);
        let tables = part.forwarding_tables(&rt);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..500 {
            let addr: u32 = rng.gen();
            let home = part.home_of(addr) as usize;
            assert_eq!(
                tables[home]
                    .longest_match(addr)
                    .map(|e| (e.prefix, e.next_hop)),
                rt.longest_match(addr).map(|e| (e.prefix, e.next_hop)),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn non_power_of_two_psi() {
        let rt = synth::small(13);
        for psi in [3usize, 5, 6, 7] {
            let eta = crate::bits::eta_for(psi);
            let bits = crate::bits::select_bits(&rt, eta);
            let part = Partitioning::new(&rt, bits, psi);
            assert_eq!(part.psi(), psi);
            let tables = part.forwarding_tables(&rt);
            assert_eq!(tables.len(), psi);
            // Every LC got something and homes are in range.
            for t in &tables {
                assert!(!t.is_empty());
            }
            for addr in [0u32, 0x0A000000, 0xC0A80001, u32::MAX] {
                assert!((part.home_of(addr) as usize) < psi);
            }
            // Correctness holds for arbitrary psi too.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(psi as u64);
            for _ in 0..100 {
                let addr: u32 = rng.gen();
                let home = part.home_of(addr) as usize;
                assert_eq!(
                    tables[home].longest_match(addr).map(|e| e.next_hop),
                    rt.longest_match(addr).map(|e| e.next_hop)
                );
            }
        }
    }

    #[test]
    fn lcs_of_prefix_matches_partition_membership() {
        let rt = synth::small(23);
        let bits = crate::bits::select_bits(&rt, 3);
        let part = Partitioning::new(&rt, bits, 5);
        let tables = part.forwarding_tables(&rt);
        for e in rt.entries().iter().step_by(7) {
            let lcs = part.lcs_of_prefix(e.prefix);
            assert!(!lcs.is_empty());
            for (lc, t) in tables.iter().enumerate() {
                let member = t.entries().iter().any(|x| x.prefix == e.prefix);
                assert_eq!(
                    member,
                    lcs.contains(&(lc as u16)),
                    "prefix {} vs LC {lc}",
                    e.prefix
                );
            }
        }
    }

    #[test]
    fn psi_one_keeps_everything_local() {
        let rt = synth::small(17);
        let part = Partitioning::new(&rt, vec![], 1);
        assert_eq!(part.home_of(123456u32), 0);
        let tables = part.forwarding_tables(&rt);
        assert_eq!(tables[0].len(), rt.len());
    }

    #[test]
    fn partition_shrinks_per_lc_tables() {
        // The headline §4 effect: per-LC tables are a fraction of the
        // whole table, shrinking as ψ grows.
        let rt = synth::synthesize(&synth::SynthConfig::sized(20_000, 19));
        let bits4 = crate::bits::select_bits(&rt, 2);
        let s4 = Partitioning::new(&rt, bits4, 4).stats(&rt);
        let bits16 = crate::bits::select_bits(&rt, 4);
        let s16 = Partitioning::new(&rt, bits16, 16).stats(&rt);
        assert!(s4.max_size < rt.len() / 2, "psi=4 max {}", s4.max_size);
        assert!(
            s16.max_size < s4.max_size,
            "psi=16 {} vs psi=4 {}",
            s16.max_size,
            s4.max_size
        );
        assert!(s16.max_size < rt.len() / 8, "psi=16 max {}", s16.max_size);
        // Replication stays modest with well-chosen bits.
        assert!(
            s16.replication_overhead() < 0.6,
            "overhead {}",
            s16.replication_overhead()
        );
    }

    #[test]
    fn stats_math() {
        let s = PartitionStats::of(100, [30usize, 25, 28, 27].into_iter());
        assert_eq!(s.parts, 4);
        assert_eq!(s.min_size, 25);
        assert_eq!(s.max_size, 30);
        assert_eq!(s.total_with_replication, 110);
        assert!((s.replication_overhead() - 0.1).abs() < 1e-12);
        assert!((s.imbalance_ratio() - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn too_few_groups_rejected() {
        let rt = synth::small(1);
        let _ = Partitioning::new(&rt, vec![0], 4); // 2 groups < 4 LCs
    }

    #[test]
    #[should_panic]
    fn duplicate_bits_rejected() {
        let rt = synth::small(1);
        let _ = Partitioning::new(&rt, vec![3, 3], 4);
    }

    #[test]
    fn remap_moves_only_dead_groups_and_stays_correct() {
        let rt = synth::small(11);
        let bits = crate::bits::select_bits(&rt, 3);
        let part = Partitioning::new(&rt, bits, 4);
        let tables = part.forwarding_tables(&rt);
        let loads: Vec<usize> = tables.iter().map(|t| t.len()).collect();
        let dead = 1u16;
        let next = part.remap_without(dead, &tables[dead as usize], &loads);
        // Groups not homed on the dead LC keep their home; the dead
        // LC's groups all land on survivors.
        for g in 0..part.groups() {
            if part.lc_of_group(g) == dead {
                assert_ne!(next.lc_of_group(g), dead, "group {g} still on dead LC");
            } else {
                assert_eq!(next.lc_of_group(g), part.lc_of_group(g));
            }
        }
        // No address is ever homed on the dead LC again, and the home
        // lookup stays equal to the full-table LPM.
        let next_tables = next.forwarding_tables(&rt);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..500 {
            let addr: u32 = rng.gen();
            let home = next.home_of(addr);
            assert_ne!(home, dead);
            assert_eq!(
                next_tables[home as usize]
                    .longest_match(addr)
                    .map(|e| e.next_hop),
                rt.longest_match(addr).map(|e| e.next_hop),
                "addr {addr:#010x}"
            );
        }
        // Deterministic: same inputs, same mapping.
        let again = part.remap_without(dead, &tables[dead as usize], &loads);
        for g in 0..part.groups() {
            assert_eq!(next.lc_of_group(g), again.lc_of_group(g));
        }
    }

    #[test]
    #[should_panic]
    fn remap_rejects_single_lc() {
        let rt = synth::small(3);
        let part = Partitioning::new(&rt, vec![], 1);
        let _ = part.remap_without(0, &rt, &[rt.len()]);
    }

    #[test]
    fn group_of_addr_msb_first() {
        let rt = paper_example();
        let part = Partitioning::new(&rt, vec![0, 4], 4);
        // addr with b0=1, b4=0 → group 0b10 = 2.
        let addr = 0b1000_0000u32 << 24;
        assert_eq!(part.group_of_addr(addr), 2);
        // addr with b0=0, b4=1 → group 0b01 = 1.
        let addr = 0b0000_1000u32 << 24;
        assert_eq!(part.group_of_addr(addr), 1);
    }
}
