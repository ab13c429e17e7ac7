//! Assertions pinned directly to claims in the paper's text — the
//! regression net for the reproduction itself.

use spal::cache::LrCacheConfig;
use spal::core::bits::{eta_for, select_bits};
use spal::core::partition::Partitioning;
use spal::core::{ForwardingTable, LpmAlgorithm};
use spal::lpm::model::lookup_cycles;
use spal::lpm::Lpm;
use spal::rib::stats::LengthDistribution;
use spal::rib::synth;
use spal::traffic::LcSpeed;

/// §3.1: "ψ doesn't have to be a power of 2 and can be any integer, say
/// 3, 5, 6, 7" — with η = ⌈log₂ψ⌉ bits.
#[test]
fn psi_any_integer() {
    let table = synth::synthesize(&synth::SynthConfig::sized(4_000, 21));
    for psi in [3usize, 5, 6, 7] {
        let eta = eta_for(psi);
        assert_eq!(eta, (psi as f64).log2().ceil() as usize);
        let part = Partitioning::new(&table, select_bits(&table, eta), psi);
        assert_eq!(part.forwarding_tables(&table).len(), psi);
    }
}

/// §3.1: "more than 83% [of prefixes] have length no more than 24",
/// which is what rules out high partitioning bits.
#[test]
fn synthetic_tables_match_backbone_length_profile() {
    let table = synth::synthesize(&synth::SynthConfig::sized(30_000, 22));
    let d = LengthDistribution::of(&table);
    assert!(d.fraction_at_most(24) > 0.83);
    assert_eq!(d.mode(), Some(24));
    let bits = select_bits(&table, 4);
    assert!(bits.iter().all(|&b| b < 24), "bits {bits:?}");
}

/// §5.1: 12 ns accesses + 120 ns code → 40 cycles (Lulea) / 62 (DP).
#[test]
fn fe_timing_model_reproduces_canonical_costs() {
    assert_eq!(lookup_cycles(6.6), 40);
    assert_eq!(lookup_cycles(16.0), 62);
}

/// §5.1: packet generation — 2..18 cycles at 40 Gbps, 6..74 at 10 Gbps,
/// and 300,000 packets ≈ 15 ms (40G) / 60 ms (10G) at 256 B mean.
#[test]
fn arrival_model_matches_section_5_1() {
    assert_eq!(LcSpeed::Gbps40.gap_range(), (2, 18));
    assert_eq!(LcSpeed::Gbps10.gap_range(), (6, 74));
    let duration_40g = 300_000.0 * LcSpeed::Gbps40.mean_gap() * 5e-9;
    let duration_10g = 300_000.0 * LcSpeed::Gbps10.mean_gap() * 5e-9;
    assert!((duration_40g - 15e-3).abs() < 1e-3, "{duration_40g}");
    assert!((duration_10g - 60e-3).abs() < 4e-3, "{duration_10g}");
}

/// §5.2: γ = 50 % for β ≥ 2K, 25 % for β = 1K.
#[test]
fn gamma_rule() {
    assert!((LrCacheConfig::paper(1024).mix_rem_fraction - 0.25).abs() < 1e-12);
    for beta in [2048usize, 4096, 8192] {
        assert!((LrCacheConfig::paper(beta).mix_rem_fraction - 0.5).abs() < 1e-12);
    }
    // Degree of set associativity is 4, victim cache is 8 blocks (§3.2).
    let c = LrCacheConfig::paper(4096);
    assert_eq!(c.assoc, 4);
    assert_eq!(c.victim_blocks, 8);
}

/// §4: partitioning shrinks every structure's per-LC storage by far
/// more than the LR-cache it adds (24 KB at 4K × 6 B), for all three
/// tries and both ψ values.
#[test]
fn storage_savings_dominate_lr_cache() {
    let table = synth::synthesize(&synth::SynthConfig::sized(40_000, 23));
    for algo in [LpmAlgorithm::Dp, LpmAlgorithm::Lulea, LpmAlgorithm::Lc] {
        let whole = ForwardingTable::build(algo, &table).storage_bytes();
        for psi in [4usize, 16] {
            let part = Partitioning::new(&table, select_bits(&table, eta_for(psi)), psi);
            let max = part
                .forwarding_tables(&table)
                .iter()
                .map(|t| ForwardingTable::build(algo, t).storage_bytes())
                .max()
                .unwrap();
            let saving = whole.saturating_sub(max);
            assert!(
                saving > 4096 * 6,
                "algo {algo:?} psi {psi}: saving {saving} too small"
            );
        }
    }
}

/// §4 shape: the per-LC table shrinks roughly like 1/ψ, with small
/// replication overhead under the chosen bits.
#[test]
fn partition_sizes_scale_inversely_with_psi() {
    let table = synth::synthesize(&synth::SynthConfig::sized(30_000, 24));
    let s4 = Partitioning::new(&table, select_bits(&table, 2), 4).stats(&table);
    let s16 = Partitioning::new(&table, select_bits(&table, 4), 16).stats(&table);
    assert!(s4.max_size as f64 <= table.len() as f64 * 0.35);
    assert!(s16.max_size as f64 <= table.len() as f64 * 0.10);
    assert!(s4.replication_overhead() < 0.25);
    assert!(s16.replication_overhead() < 0.40);
}

/// §2.3 / ref [1]: length-based partitions are dominated by /24.
#[test]
fn length_partitioning_is_imbalanced() {
    use spal::core::baseline::partition_by_length;
    let table = synth::synthesize(&synth::SynthConfig::sized(30_000, 25));
    let parts = partition_by_length(&table, 8);
    let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
    let max = *sizes.iter().max().unwrap();
    let min = *sizes.iter().min().unwrap();
    // The /24 class alone (≈half the table) pins one partition far above
    // a balanced share.
    assert!(max as f64 >= 2.0 * min.max(1) as f64, "sizes {sizes:?}");
}
