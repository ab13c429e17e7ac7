//! Property test for the incremental-update contract: applying a BGP
//! update stream in place to the incremental engines (DP trie, binary
//! trie) must be lookup-identical to rebuilding the engine from the
//! post-stream routing table — for arbitrary base tables, stream
//! lengths, and withdraw mixes. This is what the dataplane's RCU
//! control plane relies on when it syncs a shadow snapshot
//! incrementally instead of rebuilding it.

mod common;

use common::check_delta_stream;
use proptest::prelude::*;
use spal_lpm::binary::BinaryTrie;
use spal_lpm::dir24::Dir24_8;
use spal_lpm::dp::DpTrie;
use spal_lpm::poptrie::Poptrie;
use spal_lpm::Lpm;
use spal_rib::updates::{update_stream, Update, UpdateStreamConfig};
use spal_rib::{synth, RoutingTable};

/// Random probes plus every final-table prefix's first address and a
/// near-miss neighbour — so equivalence is exercised on exact matches,
/// covered addresses, and addresses whose best match changed or
/// vanished mid-stream.
fn probe_addrs(fin: &RoutingTable, random: &[u32]) -> Vec<u32> {
    let mut addrs: Vec<u32> = random.to_vec();
    for e in fin.entries().iter().take(300) {
        let a = e.prefix.first_addr();
        addrs.push(a);
        addrs.push(a ^ 1);
        addrs.push(a.wrapping_sub(1));
    }
    addrs
}

proptest! {
    // Each case builds four engines and replays a whole stream; the
    // probe set inside a case is wide, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_stream_matches_rebuild(
        table_size in 30usize..600,
        table_seed in 0u64..40,
        update_count in 1usize..400,
        withdraw_tenths in 0u32..=9,
        stream_seed in 0u64..1_000,
        random_probes in proptest::collection::vec(any::<u32>(), 1..=64),
    ) {
        let base = synth::synthesize(&synth::SynthConfig::sized(table_size, table_seed));
        let (updates, fin) = update_stream(&base, &UpdateStreamConfig {
            count: update_count,
            withdraw_fraction: withdraw_tenths as f64 / 10.0,
            seed: stream_seed,
        });

        let mut dp = DpTrie::build(&base);
        let mut bin = BinaryTrie::build(&base);
        for &u in &updates {
            match u {
                Update::Announce(e) => {
                    dp.insert(e.prefix, e.next_hop);
                    bin.insert(e.prefix.bits(), e.prefix.len(), e.next_hop);
                }
                Update::Withdraw(p) => {
                    dp.remove(p);
                    bin.remove(p.bits(), p.len());
                }
            }
        }
        let dp_rebuilt = DpTrie::build(&fin);
        let bin_rebuilt = BinaryTrie::build(&fin);

        for &addr in &probe_addrs(&fin, &random_probes) {
            let oracle = fin.longest_match(addr).map(|e| e.next_hop);
            prop_assert_eq!(
                dp.lookup(addr), oracle,
                "DP incremental diverged from table oracle at {:#010x}", addr
            );
            prop_assert_eq!(
                bin.lookup(addr), oracle,
                "binary incremental diverged from table oracle at {:#010x}", addr
            );
            prop_assert_eq!(
                dp.lookup(addr), dp_rebuilt.lookup(addr),
                "DP incremental vs rebuilt diverged at {:#010x}", addr
            );
            prop_assert_eq!(
                bin.lookup(addr), bin_rebuilt.lookup(addr),
                "binary incremental vs rebuilt diverged at {:#010x}", addr
            );
        }
    }
}

proptest! {
    // Two static engines × a whole stream each; modest case count.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The static engines that patch (DIR-24-8, Poptrie) must be
    /// lookup-identical to a fresh rebuild (and the table oracle) after
    /// delta-patching an arbitrary update stream in arbitrary batch
    /// sizes — the maintenance path the control plane's shadow sync
    /// takes instead of a full rebuild per batch. The engines without a
    /// patch path decline every batch, so for them this would only
    /// re-test `build`; `batch_equiv` covers that. The replay-and-compare
    /// is the shared battery's `check_delta_stream`.
    #[test]
    fn delta_patched_stream_matches_rebuild(
        table_size in 30usize..400,
        table_seed in 0u64..40,
        update_count in 1usize..200,
        withdraw_tenths in 0u32..=9,
        stream_seed in 0u64..1_000,
        batch in 1usize..24,
        random_probes in proptest::collection::vec(any::<u32>(), 1..=48),
    ) {
        let base = synth::synthesize(&synth::SynthConfig::sized(table_size, table_seed));
        let (updates, fin) = update_stream(&base, &UpdateStreamConfig {
            count: update_count,
            withdraw_fraction: withdraw_tenths as f64 / 10.0,
            seed: stream_seed,
        });
        let probes = probe_addrs(&fin, &random_probes);
        check_delta_stream(Dir24_8::build, &base, &updates, batch, &probes, batch)?;
        check_delta_stream(Poptrie::build, &base, &updates, batch, &probes, batch)?;
    }
}
