//! IPv6 prefixes and tables.
//!
//! The paper's conclusion argues SPAL "is feasibly applicable to IPv6" and
//! that SRAM savings grow several-fold under 128-bit addressing. This
//! module provides the 128-bit analogue of [`crate::Prefix`] /
//! [`crate::RoutingTable`], enough for the partitioner and the binary trie
//! (both generic over [`crate::AddressBits`]) to run IPv6 experiments.

use crate::bits::{AddressBits, TriBit};
use crate::table::NextHop;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt;

/// An IPv6 prefix in canonical form (bits beyond `len` are zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix6 {
    bits: u128,
    len: u8,
}

// `len` is a bit count, not a container length; `is_empty` is meaningless.
#[allow(clippy::len_without_is_empty)]
impl Prefix6 {
    /// The `::/0` default route.
    pub const DEFAULT: Prefix6 = Prefix6 { bits: 0, len: 0 };

    /// Construct, canonicalising the bits. Errors if `len > 128`.
    pub fn new(bits: u128, len: u8) -> Result<Self, crate::PrefixError> {
        if len > 128 {
            return Err(crate::PrefixError::LengthOutOfRange(len));
        }
        Ok(Prefix6 {
            bits: bits & u128::prefix_mask(len),
            len,
        })
    }

    /// The canonical prefix bits.
    #[inline]
    pub fn bits(self) -> u128 {
        self.bits
    }

    /// The prefix length.
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the default route.
    #[inline]
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// Whether `addr` lies inside this prefix.
    #[inline]
    pub fn matches(self, addr: u128) -> bool {
        addr & u128::prefix_mask(self.len) == self.bits
    }

    /// Tri-state value of bit `i` (0 = MSB), `*` beyond the length.
    #[inline]
    pub fn tri_bit(self, i: u8) -> TriBit {
        assert!(i < 128, "bit index {i} out of range");
        if i >= self.len {
            TriBit::Wild
        } else if self.bits.bit(i) {
            TriBit::One
        } else {
            TriBit::Zero
        }
    }

    /// Whether this prefix contains `other`.
    #[inline]
    pub fn contains(self, other: Prefix6) -> bool {
        self.len <= other.len && other.bits & u128::prefix_mask(self.len) == self.bits
    }

    /// The lowest address in the prefix (its canonical bits).
    #[inline]
    pub fn first_addr(self) -> u128 {
        self.bits
    }

    /// The highest address in the prefix.
    #[inline]
    pub fn last_addr(self) -> u128 {
        self.bits | !u128::prefix_mask(self.len)
    }
}

impl crate::bits::IpPrefix for Prefix6 {
    type Addr = u128;

    #[inline]
    fn bits(self) -> u128 {
        Prefix6::bits(self)
    }

    #[inline]
    fn len(self) -> u8 {
        Prefix6::len(self)
    }

    #[inline]
    fn tri_bit(self, i: u8) -> TriBit {
        Prefix6::tri_bit(self, i)
    }

    #[inline]
    fn matches(self, addr: u128) -> bool {
        Prefix6::matches(self, addr)
    }
}

impl fmt::Debug for Prefix6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix6({self})")
    }
}

impl fmt::Display for Prefix6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Full (non-compressed) colon-hex form; adequate for diagnostics.
        let groups: Vec<String> = (0..8)
            .map(|g| format!("{:x}", (self.bits >> (112 - 16 * g)) as u16))
            .collect();
        write!(f, "{}/{}", groups.join(":"), self.len)
    }
}

/// One IPv6 route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry6 {
    pub prefix: Prefix6,
    pub next_hop: NextHop,
}

/// A minimal IPv6 routing table with a linear reference matcher.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable6 {
    entries: Vec<RouteEntry6>,
}

impl RoutingTable6 {
    /// Build from entries; duplicate prefixes keep the last next hop.
    pub fn from_entries(entries: impl IntoIterator<Item = RouteEntry6>) -> Self {
        let mut map = std::collections::HashMap::new();
        for e in entries {
            map.insert(e.prefix, e.next_hop);
        }
        let mut entries: Vec<RouteEntry6> = map
            .into_iter()
            .map(|(prefix, next_hop)| RouteEntry6 { prefix, next_hop })
            .collect();
        entries.sort_by_key(|e| (e.prefix.bits(), e.prefix.len()));
        RoutingTable6 { entries }
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The routes, sorted by (bits, length).
    pub fn entries(&self) -> &[RouteEntry6] {
        &self.entries
    }

    /// Just the prefixes, in entry order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix6> + '_ {
        self.entries.iter().map(|e| e.prefix)
    }

    /// Insert or replace a route. O(n) worst case (vector shift); tables
    /// are built in bulk via [`RoutingTable6::from_entries`], this exists
    /// for the incremental-update paths.
    pub fn insert(&mut self, entry: RouteEntry6) {
        match self
            .entries
            .binary_search_by_key(&(entry.prefix.bits(), entry.prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            }) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => self.entries.insert(i, entry),
        }
    }

    /// Remove the route for `prefix`, returning it if present.
    pub fn remove(&mut self, prefix: Prefix6) -> Option<RouteEntry6> {
        match self
            .entries
            .binary_search_by_key(&(prefix.bits(), prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            }) {
            Ok(i) => Some(self.entries.remove(i)),
            Err(_) => None,
        }
    }

    /// The next hop stored for exactly `prefix`, if present. O(log n).
    pub fn get(&self, prefix: Prefix6) -> Option<NextHop> {
        self.entries
            .binary_search_by_key(&(prefix.bits(), prefix.len()), |e| {
                (e.prefix.bits(), e.prefix.len())
            })
            .ok()
            .map(|i| self.entries[i].next_hop)
    }

    /// All routes whose canonical bits fall inside `[lo, hi]`, as a
    /// contiguous sorted slice. O(log n) to locate — this is what lets
    /// the SHIP engine rebuild a single address-block bin without
    /// scanning the full table. Prefix-aligned ranges cannot partially
    /// overlap a route, so callers filter by length where needed.
    pub fn range(&self, lo: u128, hi: u128) -> &[RouteEntry6] {
        let start = self.entries.partition_point(|e| e.prefix.bits() < lo);
        let end = self.entries.partition_point(|e| e.prefix.bits() <= hi);
        &self.entries[start..end]
    }

    /// Longest match for `addr` among routes no longer than `max_len`
    /// bits. O(max_len · log n); used by incremental patch paths to
    /// recompute the default a region inherits from above.
    pub fn best_cover(&self, addr: u128, max_len: u8) -> Option<RouteEntry6> {
        for len in (0..=max_len).rev() {
            let p = Prefix6::new(addr, len).expect("masked prefix is valid");
            if let Some(nh) = self.get(p) {
                return Some(RouteEntry6 {
                    prefix: p,
                    next_hop: nh,
                });
            }
        }
        None
    }

    /// Reference longest-prefix match, O(n).
    pub fn longest_match(&self, addr: u128) -> Option<RouteEntry6> {
        self.entries
            .iter()
            .filter(|e| e.prefix.matches(addr))
            .max_by_key(|e| e.prefix.len())
            .copied()
    }

    /// The largest next-hop index present, plus one. Zero when empty.
    pub fn next_hop_count(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.next_hop.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

impl crate::bits::IpTable for RoutingTable6 {
    type Prefix = Prefix6;
    type Entry = RouteEntry6;

    fn from_entries(entries: Vec<RouteEntry6>) -> Self {
        RoutingTable6::from_entries(entries)
    }

    fn entries(&self) -> &[RouteEntry6] {
        RoutingTable6::entries(self)
    }

    fn prefix_of(entry: &RouteEntry6) -> Prefix6 {
        entry.prefix
    }
}

/// Generate a synthetic IPv6 table: global-unicast (2000::/3) allocations
/// with lengths clustered at /32 (LIR), /48 (site) and /64 (subnet),
/// mirroring early-IPv6 allocation policy.
pub fn synthesize6(target: usize, seed: u64) -> RoutingTable6 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<Prefix6> = HashSet::with_capacity(target * 2);
    let mut entries = Vec::with_capacity(target);
    const LENGTHS: [(u8, f64); 6] = [
        (24, 0.03),
        (32, 0.35),
        (40, 0.07),
        (48, 0.40),
        (56, 0.05),
        (64, 0.10),
    ];
    while entries.len() < target {
        let mut x = rng.gen_range(0.0..1.0);
        let mut len = 48u8;
        for (l, w) in LENGTHS {
            if x < w {
                len = l;
                break;
            }
            x -= w;
        }
        // Global unicast: top 3 bits = 001.
        let addr = (rng.gen::<u128>() >> 3) | (0b001u128 << 125);
        let prefix = Prefix6::new(addr, len).expect("len <= 128");
        if seen.insert(prefix) {
            entries.push(RouteEntry6 {
                prefix,
                next_hop: NextHop(rng.gen_range(0..32)),
            });
        }
    }
    RoutingTable6::from_entries(entries)
}

/// Number of IPv6 prefixes in the DFZ-2026 preset (~200k, the size of
/// the real IPv6 default-free zone in 2026).
pub const DFZ2026_V6_SIZE: usize = 200_000;

/// Length weights for the DFZ-2026 IPv6 preset, modelled on the modern
/// v6 DFZ: /48 dominates (~46 %), /32 LIR allocations are the next
/// band, with secondary modes at /29 (post-2011 RIPE default), /36, /40
/// and /44, and a filtered residue longer than /48.
const DFZ2026_V6_LENGTH_WEIGHTS: &[(u8, f64)] = &[
    (19, 0.2),
    (20, 0.4),
    (21, 0.3),
    (22, 0.6),
    (23, 0.3),
    (24, 0.8),
    (25, 0.2),
    (26, 0.3),
    (27, 0.3),
    (28, 1.2),
    (29, 5.5),
    (30, 1.0),
    (31, 0.6),
    (32, 12.5),
    (33, 0.8),
    (34, 0.6),
    (35, 0.6),
    (36, 5.0),
    (38, 0.6),
    (40, 7.5),
    (42, 0.7),
    (44, 8.0),
    (45, 1.2),
    (46, 2.0),
    (47, 1.5),
    (48, 46.0),
    (52, 0.3),
    (56, 0.4),
    (64, 0.7),
];

/// Sample a prefix length from the DFZ-2026 IPv6 distribution — also
/// used by [`update_stream6`] so churn keeps the table's shape.
pub fn sample_length6(rng: &mut StdRng) -> u8 {
    let total: f64 = DFZ2026_V6_LENGTH_WEIGHTS.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for &(len, w) in DFZ2026_V6_LENGTH_WEIGHTS {
        if x < w {
            return len;
        }
        x -= w;
    }
    48 // numerically unreachable; the dominant length is a safe fallback
}

/// A random address in the IPv6 global unicast space (2000::/3).
fn random_global_unicast6(rng: &mut StdRng) -> u128 {
    (rng.gen::<u128>() >> 3) | (0b001u128 << 125)
}

/// The DFZ-2026 IPv6 table at full size. See [`synthesize6_dfz`].
pub fn dfz2026_v6(seed: u64) -> RoutingTable6 {
    synthesize6_dfz(DFZ2026_V6_SIZE, seed)
}

/// Generate a DFZ-2026-shaped IPv6 table of `target` routes.
///
/// Structure mirrors real v6 allocation policy: a handful of RIR
/// super-blocks (/12) carve up 2000::/3; LIR allocations (/32 and /29)
/// are drawn inside them; and site routes (/33 and longer — including
/// the dominant /48 band) mostly nest inside a previously chosen LIR
/// block, producing the more-specific nesting that defeats
/// range-merging caches and exercises SHIP's per-bin grouping.
pub fn synthesize6_dfz(target: usize, seed: u64) -> RoutingTable6 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<Prefix6> = HashSet::with_capacity(target * 2);
    let mut entries = Vec::with_capacity(target);

    // RIR super-blocks: /12s like 2a00::/12, 2400::/12, 2600::/12 ...
    let rirs: Vec<Prefix6> = (0..8)
        .map(|_| Prefix6::new(random_global_unicast6(&mut rng), 12).expect("len <= 128"))
        .collect();
    // LIR allocations inside the RIRs: mostly /32, some /29.
    let n_lirs = (target / 16).clamp(64, 16_384);
    let lirs: Vec<Prefix6> = (0..n_lirs)
        .map(|_| {
            let rir = rirs[rng.gen_range(0..rirs.len())];
            let len = if rng.gen_bool(0.25) { 29 } else { 32 };
            let extra = rng.gen::<u128>() & !u128::prefix_mask(rir.len());
            Prefix6::new(rir.bits() | extra, len).expect("len <= 128")
        })
        .collect();

    while entries.len() < target {
        let len = sample_length6(&mut rng);
        let prefix = if len >= 33 && rng.gen_bool(0.85) {
            // Site route nested inside an LIR allocation.
            let lir = lirs[rng.gen_range(0..lirs.len())];
            let extra = rng.gen::<u128>() & !u128::prefix_mask(lir.len());
            Prefix6::new(lir.bits() | extra, len).expect("len <= 128")
        } else if (len == 29 || len == 32) && rng.gen_bool(0.6) {
            // Announce an LIR allocation itself: real covering
            // aggregates are in the DFZ, which is what gives the /48
            // band its more-specific nesting. (Duplicates are rejected
            // below and redrawn.)
            let mut pick = lirs[rng.gen_range(0..lirs.len())];
            for _ in 0..8 {
                if pick.len() == len && !seen.contains(&pick) {
                    break;
                }
                pick = lirs[rng.gen_range(0..lirs.len())];
            }
            if pick.len() == len && !seen.contains(&pick) {
                pick
            } else {
                let rir = rirs[rng.gen_range(0..rirs.len())];
                let extra = rng.gen::<u128>() & !u128::prefix_mask(rir.len());
                Prefix6::new(rir.bits() | extra, len).expect("len <= 128")
            }
        } else if len >= 20 {
            // Allocation-scale route inside an RIR super-block.
            let rir = rirs[rng.gen_range(0..rirs.len())];
            let extra = rng.gen::<u128>() & !u128::prefix_mask(rir.len());
            Prefix6::new(rir.bits() | extra, len).expect("len <= 128")
        } else {
            Prefix6::new(random_global_unicast6(&mut rng), len).expect("len <= 128")
        };
        if seen.insert(prefix) {
            entries.push(RouteEntry6 {
                prefix,
                next_hop: NextHop(rng.gen_range(0..64)),
            });
        }
    }
    RoutingTable6::from_entries(entries)
}

/// One IPv6 routing update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update6 {
    /// Announce (or re-announce with a new next hop) a route.
    Announce(RouteEntry6),
    /// Withdraw the route for a prefix.
    Withdraw(Prefix6),
}

/// Generate a consistent IPv6 update stream against `base`, mirroring
/// [`crate::updates::update_stream`]: withdrawals only target live
/// prefixes, roughly half of announcements re-announce an existing
/// prefix, and new prefixes follow the DFZ-2026 length shape.
pub fn update_stream6(
    base: &RoutingTable6,
    cfg: &crate::updates::UpdateStreamConfig,
) -> (Vec<Update6>, RoutingTable6) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut live: Vec<RouteEntry6> = base.entries().to_vec();
    let mut updates = Vec::with_capacity(cfg.count);
    for _ in 0..cfg.count {
        let withdraw = !live.is_empty() && rng.gen_bool(cfg.withdraw_fraction);
        if withdraw {
            let i = rng.gen_range(0..live.len());
            let e = live.swap_remove(i);
            updates.push(Update6::Withdraw(e.prefix));
        } else if !live.is_empty() && rng.gen_bool(0.5) {
            let i = rng.gen_range(0..live.len());
            let nh = NextHop(rng.gen_range(0..64));
            live[i].next_hop = nh;
            updates.push(Update6::Announce(live[i]));
        } else {
            let len = sample_length6(&mut rng);
            let prefix = Prefix6::new(random_global_unicast6(&mut rng), len).expect("len <= 128");
            let entry = RouteEntry6 {
                prefix,
                next_hop: NextHop(rng.gen_range(0..64)),
            };
            match live.iter_mut().find(|e| e.prefix == prefix) {
                Some(e) => e.next_hop = entry.next_hop,
                None => live.push(entry),
            }
            updates.push(Update6::Announce(entry));
        }
    }
    (updates, RoutingTable6::from_entries(live))
}

/// Apply an update to a table (the oracle path).
pub fn apply6(table: &mut RoutingTable6, update: Update6) {
    match update {
        Update6::Announce(e) => table.insert(e),
        Update6::Withdraw(p) => {
            table.remove(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_canonicalises() {
        let p = Prefix6::new(u128::MAX, 32).unwrap();
        assert_eq!(p.bits(), 0xFFFF_FFFFu128 << 96);
        assert!(Prefix6::new(0, 129).is_err());
    }

    #[test]
    fn matching_and_containment() {
        let p = Prefix6::new(0x2001_0db8u128 << 96, 32).unwrap();
        assert!(p.matches(0x2001_0db8u128 << 96 | 42));
        assert!(!p.matches(0x2001_0db9u128 << 96));
        let q = Prefix6::new(0x2001_0db8_0001u128 << 80, 48).unwrap();
        assert!(p.contains(q));
        assert!(!q.contains(p));
        assert!(Prefix6::DEFAULT.contains(p));
        assert!(Prefix6::DEFAULT.is_default());
    }

    #[test]
    fn tri_bits() {
        let p = Prefix6::new(1u128 << 127, 1).unwrap();
        assert_eq!(p.tri_bit(0), TriBit::One);
        assert_eq!(p.tri_bit(1), TriBit::Wild);
    }

    #[test]
    fn display() {
        let p = Prefix6::new(0x2001_0db8u128 << 96, 32).unwrap();
        assert_eq!(p.to_string(), "2001:db8:0:0:0:0:0:0/32");
    }

    #[test]
    fn synth_size_and_determinism() {
        let a = synthesize6(500, 9);
        assert_eq!(a.len(), 500);
        let b = synthesize6(500, 9);
        assert_eq!(a.entries(), b.entries());
        // All in global unicast space.
        for e in a.entries() {
            assert_eq!(e.prefix.bits() >> 125, 0b001);
        }
    }

    #[test]
    fn table_ops_mirror_v4_semantics() {
        let p32 = Prefix6::new(0x2001_0db8u128 << 96, 32).unwrap();
        let p48 = Prefix6::new(0x2001_0db8_0001u128 << 80, 48).unwrap();
        let mut t = RoutingTable6::default();
        t.insert(RouteEntry6 {
            prefix: p48,
            next_hop: NextHop(2),
        });
        t.insert(RouteEntry6 {
            prefix: p32,
            next_hop: NextHop(1),
        });
        assert_eq!(t.get(p32), Some(NextHop(1)));
        assert_eq!(t.get(p48), Some(NextHop(2)));
        // Replace keeps the size.
        t.insert(RouteEntry6 {
            prefix: p32,
            next_hop: NextHop(9),
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p32), Some(NextHop(9)));
        // Range scan over the /32's span sees both routes.
        let span = t.range(p32.first_addr(), p32.last_addr());
        assert_eq!(span.len(), 2);
        // best_cover finds the /48 inside, the /32 outside it.
        let inside48 = p48.bits() | 7;
        assert_eq!(t.best_cover(inside48, 128).unwrap().prefix, p48);
        assert_eq!(t.best_cover(inside48, 47).unwrap().prefix, p32);
        assert_eq!(t.remove(p48).unwrap().next_hop, NextHop(2));
        assert_eq!(t.remove(p48), None);
        assert_eq!(t.next_hop_count(), 10);
    }

    #[test]
    fn dfz2026_v6_shape() {
        let t = synthesize6_dfz(20_000, 11);
        assert_eq!(t.len(), 20_000);
        let mut counts = [0usize; 129];
        for e in t.entries() {
            counts[e.prefix.len() as usize] += 1;
            // Everything in global unicast.
            assert_eq!(e.prefix.bits() >> 125, 0b001);
        }
        // /48 dominates at roughly its DFZ share.
        assert!(counts[48] * 10 > t.len() * 3, "got {}", counts[48]);
        // /32 is the second band; /29 and /40/44 modes are present.
        assert!(counts[32] > counts[40]);
        assert!(counts[29] > 0 && counts[36] > 0 && counts[44] > 0);
        // Nesting: most /48s sit inside a live /32 or /29 allocation.
        let nested = t
            .entries()
            .iter()
            .filter(|e| e.prefix.len() == 48)
            .filter(|e| {
                t.best_cover(e.prefix.bits(), 47)
                    .is_some_and(|c| c.prefix.len() >= 29)
            })
            .count();
        assert!(
            nested * 2 > counts[48],
            "nested = {nested} of {}",
            counts[48]
        );
        // Deterministic.
        let u = synthesize6_dfz(20_000, 11);
        assert_eq!(t.entries(), u.entries());
    }

    #[test]
    fn update_stream6_consistent_with_final_table() {
        let base = synthesize6_dfz(2_000, 3);
        let cfg = crate::updates::UpdateStreamConfig {
            count: 1_500,
            withdraw_fraction: 0.3,
            seed: 17,
        };
        let (updates, fin) = update_stream6(&base, &cfg);
        assert_eq!(updates.len(), 1_500);
        let mut table = base.clone();
        let mut live: HashSet<Prefix6> = base.prefixes().collect();
        for &u in &updates {
            if let Update6::Withdraw(p) = u {
                assert!(live.contains(&p), "withdrew a dead prefix {p}");
            }
            match u {
                Update6::Announce(e) => {
                    live.insert(e.prefix);
                }
                Update6::Withdraw(p) => {
                    live.remove(&p);
                }
            }
            apply6(&mut table, u);
        }
        assert_eq!(table.entries(), fin.entries());
        // Deterministic.
        let (again, _) = update_stream6(&base, &cfg);
        assert_eq!(updates, again);
    }

    #[test]
    fn longest_match_reference() {
        let p32 = Prefix6::new(0x2001_0db8u128 << 96, 32).unwrap();
        let p48 = Prefix6::new(0x2001_0db8_0001u128 << 80, 48).unwrap();
        let t = RoutingTable6::from_entries([
            RouteEntry6 {
                prefix: p32,
                next_hop: NextHop(1),
            },
            RouteEntry6 {
                prefix: p48,
                next_hop: NextHop(2),
            },
        ]);
        let inside48 = 0x2001_0db8_0001u128 << 80 | 7;
        let inside32 = 0x2001_0db8_0002u128 << 80;
        assert_eq!(t.longest_match(inside48).unwrap().next_hop, NextHop(2));
        assert_eq!(t.longest_match(inside32).unwrap().next_hop, NextHop(1));
        assert!(t.longest_match(0x3000u128 << 112).is_none());
    }
}
