//! IPv6 content: the table synthesizers ([`synthesize6`],
//! [`synthesize6_dfz`], [`dfz2026_v6`], [`sample_length6`]) and the
//! `…6` spellings of the width-generic types at `u128`.
//!
//! The paper's conclusion argues SPAL "is feasibly applicable to IPv6"
//! and that SRAM savings grow several-fold under 128-bit addressing. A
//! prefix is a length plus tri-state bits at any width, so
//! [`crate::Prefix`], [`crate::RoutingTable`] and
//! [`crate::updates::Update`] are one type each, generic over
//! [`crate::AddressBits`]; what is genuinely IPv6 is the *shape* of a
//! table — allocation policy and length distribution — which is what
//! this module generates.

use crate::bits::AddressBits;
use crate::table::NextHop;
use crate::updates::ChurnAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// An IPv6 prefix.
pub type Prefix6 = crate::Prefix<u128>;
/// One IPv6 route.
pub type RouteEntry6 = crate::RouteEntry<u128>;
/// An IPv6 routing table.
pub type RoutingTable6 = crate::RoutingTable<u128>;
/// One IPv6 routing update.
pub type Update6 = crate::updates::Update<u128>;

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
/// used by [`crate::updates::update_stream`] so churn keeps the table's
/// shape.
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

impl ChurnAddr for u128 {
    const NEXT_HOPS: u16 = 64;

    /// Global unicast, DFZ-2026 length shape.
    fn fresh_prefix(rng: &mut StdRng) -> Prefix6 {
        let len = sample_length6(rng);
        Prefix6::new(random_global_unicast6(rng), len).expect("len <= 128")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
