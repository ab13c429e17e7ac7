//! Golden-report regression: three fixed deterministic runs (IPv4 with
//! churn and faults on, the same IPv4 run faultless, IPv6 with churn)
//! rendered through [`DataplaneReport::canonical_json`] and each pinned
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
//! both byte for byte.

use spal_cache::LrCacheConfig;
use spal_dataplane::{run, run6, ChurnConfig, Dataplane6Config, DataplaneConfig, FaultPlan};
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

/// The IPv4 run: 3 workers, D75 traffic over the small table, churn
/// on, with or without the standard fault plan.
fn v4_report(faults: Option<FaultPlan>) -> String {
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
        ..Default::default()
    };
    run(&table, &traces, &cfg).canonical_json()
}

#[test]
fn canonical_report_matches_golden_file() {
    let got = v4_report(Some(FaultPlan::standard(42)));
    check_golden("dataplane_report.json", &got);
}

/// The same run on a faultless fabric, where message framing cannot
/// move the report: blessed from the one-message-per-event loop.
#[test]
fn faultless_canonical_report_matches_golden_file() {
    check_golden("dataplane_report_faultless.json", &v4_report(None));
}

/// The IPv6 run (SHIP, faultless), blessed from the `runtime6.rs` fork
/// before it was folded into the family-generic runtime: the generic
/// runtime must reproduce the fork's report byte for byte.
#[test]
fn canonical_v6_report_matches_golden_file() {
    let table = synthesize6_dfz(3_000, 21);
    let traces = generate6(&table, 600, 6_000, 9).split(3);
    let cfg = Dataplane6Config {
        workers: 3,
        deterministic: true,
        cache: LrCacheConfig::paper(512),
        churn: golden_churn(),
        seed: 3,
        ..Default::default()
    };
    let got = run6(&table, &traces, &cfg).canonical_json();
    check_golden("dataplane6_report.json", &got);
}
