//! Golden-report regression: five fixed deterministic runs (IPv4 with
//! churn and faults on, the same IPv4 run faultless, IPv6 with churn,
//! and one LC-failover run per width) rendered through [`DataplaneReport::canonical_json`] and each pinned
//! byte-for-byte against a checked-in file. Any change to the
//! schedule, the fault stream, the cache policy, or the report shape
//! shows up as a diff here before it shows up as a mystery elsewhere.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! SPAL_BLESS=1 cargo test -p spal-dataplane --test golden_report
//! ```
//!
//! Re-bless history: coalescing fabric messages into batches changed
//! the *number of messages* the faulted run sends, and the fault
//! injector's RNG advances per message — so the same plan seed landed
//! delays/drops/duplicates on different messages and
//! `dataplane_report.json`'s pinned counters shifted. The per-address
//! semantics did not: the two faultless fixtures are the frozen output
//! of the one-message-per-event worker loop that coalescing replaced
//! (`dataplane_report_faultless.json` was blessed from it at the last
//! commit that still had it, and `dataplane6_report.json` was checked
//! against it unblessed there), and the coalescing loop reproduces
//! both byte for byte. The two failover fixtures were blessed at the
//! last commit whose remap patched both ping-pong copies by hand and
//! whose worker coalesced a recorded event stream at flush time; the
//! remap published like an update batch and the in-place coalescing
//! that replaced them reproduce both unblessed.

use spal_cache::LrCacheConfig;
use spal_dataplane::{
    run, run6, ChurnConfig, Dataplane6Config, DataplaneConfig, FailoverPlan, FaultPlan,
};
use spal_rib::synth;
use spal_rib::v6::synthesize6_dfz;
use spal_traffic::{generate6, preset, PresetName, TracePreset};

/// Compare `got` with `tests/golden/<file>`, or rewrite the file when
/// `SPAL_BLESS` is set.
fn check_golden(file: &str, got: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("SPAL_BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run once with SPAL_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "canonical report drifted from {path}; if the change is \
         intentional, re-bless with SPAL_BLESS=1"
    );
}

fn golden_churn() -> Option<ChurnConfig> {
    Some(ChurnConfig {
        updates: 200,
        updates_per_publication: 25,
        withdraw_fraction: 0.3,
        pace_us: 0,
    })
}

/// The failover fixtures' failure: LC 1 dies a fifth of the way into
/// its 2 000-packet trace, early enough that the remap is followed by
/// most of the churn stream's publications — so each ping-pong copy is
/// published, and patched, after it.
fn golden_failover() -> Option<FailoverPlan> {
    Some(FailoverPlan {
        lc: 1,
        after_packets: 400,
    })
}

/// The IPv4 run: 3 workers, D75 traffic over the small table, churn
/// on, with or without the standard fault plan and an LC failure.
fn v4_report(faults: Option<FaultPlan>, failover: Option<FailoverPlan>) -> String {
    let table = synth::small(21);
    let traces = TracePreset {
        distinct: 600,
        ..preset(PresetName::D75)
    }
    .generate(&table, 3 * 2_000, 9)
    .split(3);
    let cfg = DataplaneConfig {
        workers: 3,
        deterministic: true,
        cache: LrCacheConfig::paper(512),
        churn: golden_churn(),
        seed: 3,
        faults,
        failover,
        ..Default::default()
    };
    run(&table, &traces, &cfg).canonical_json()
}

#[test]
fn canonical_report_matches_golden_file() {
    let got = v4_report(Some(FaultPlan::standard(42)), None);
    check_golden("dataplane_report.json", &got);
}

/// The same run on a faultless fabric, where message framing cannot
/// move the report: blessed from the one-message-per-event loop.
#[test]
fn faultless_canonical_report_matches_golden_file() {
    check_golden("dataplane_report_faultless.json", &v4_report(None, None));
}

/// The IPv6 run: SHIP, 3 workers, churn on, with or without the
/// standard fault plan and an LC failure.
fn v6_report(faults: Option<FaultPlan>, failover: Option<FailoverPlan>) -> String {
    let table = synthesize6_dfz(3_000, 21);
    let traces = generate6(&table, 600, 6_000, 9).split(3);
    let cfg = Dataplane6Config {
        workers: 3,
        deterministic: true,
        cache: LrCacheConfig::paper(512),
        churn: golden_churn(),
        seed: 3,
        faults,
        failover,
        ..Default::default()
    };
    run6(&table, &traces, &cfg).canonical_json()
}

/// The faultless IPv6 run, blessed from the `runtime6.rs` fork before
/// it was folded into the family-generic runtime: the generic runtime
/// must reproduce the fork's report byte for byte.
#[test]
fn canonical_v6_report_matches_golden_file() {
    check_golden("dataplane6_report.json", &v6_report(None, None));
}

/// LC 1 dies under churn and the standard adversary; the remap's
/// publication and the ones after it are pinned at each width.
#[test]
fn failover_canonical_report_matches_golden_file() {
    let got = v4_report(Some(FaultPlan::standard(42)), golden_failover());
    check_golden("dataplane_failover_report.json", &got);
}

#[test]
fn failover_canonical_v6_report_matches_golden_file() {
    let got = v6_report(Some(FaultPlan::standard(42)), golden_failover());
    check_golden("dataplane6_failover_report.json", &got);
}
