//! End-to-end tests of the `spal` binary.

use std::process::Command;

fn spal(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spal"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_lists_commands() {
    let out = spal(&["help"]);
    assert!(out.status.success());
    let s = stdout(&out);
    for cmd in ["gen-table", "partition", "simulate", "gen-trace", "lookup"] {
        assert!(s.contains(cmd), "missing {cmd} in help");
    }
}

#[test]
fn unknown_command_fails() {
    let out = spal(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_table_stats_partition_lookup_roundtrip() {
    let dir = std::env::temp_dir().join(format!("spal-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = dir.join("table.txt");
    let table_s = table.to_str().unwrap();

    let out = spal(&[
        "gen-table",
        "--size",
        "800",
        "--seed",
        "5",
        "--out",
        table_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = spal(&["stats", "--table", table_s]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("routes: 800"));

    let out = spal(&["partition", "--psi", "4", "--table", table_s]);
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("psi = 4"));
    assert!(s.contains("LC  3"));

    // Look up the first route's first address: must resolve via it.
    let text = std::fs::read_to_string(&table).unwrap();
    let first_prefix = text
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap();
    let addr = first_prefix.split('/').next().unwrap();
    let out = spal(&["lookup", "--table", table_s, addr]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("->"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_trace_produces_packets() {
    let out = spal(&[
        "gen-trace",
        "--size",
        "500",
        "--packets",
        "50",
        "--preset",
        "B_L",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout(&out).lines().count(), 50);
}

#[test]
fn analyze_trace_reports_profile() {
    let out = spal(&[
        "analyze-trace",
        "--size",
        "800",
        "--packets",
        "5000",
        "--preset",
        "L_92-0",
        "--max-capacity",
        "1024",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = stdout(&out);
    assert!(s.contains("packets: 5000"));
    assert!(s.contains("predicted LRU hit rate"));
    assert!(s.contains("1024"));
}

#[test]
fn simulate_reports_summary() {
    let out = spal(&[
        "simulate",
        "--psi",
        "2",
        "--beta",
        "256",
        "--packets",
        "2000",
        "--size",
        "1000",
        "--preset",
        "L_92-0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = stdout(&out);
    assert!(s.contains("mean"), "{s}");
    assert!(s.contains("fabric:"));
}

/// The plain-text summary carries the latency tail: the histograms
/// are recorded on every run, not only when `--json` asks for them.
#[test]
fn dataplane_summary_reports_p99() {
    let out = spal(&[
        "dataplane",
        "--workers",
        "2",
        "--size",
        "2000",
        "--packets",
        "2000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = stdout(&out);
    let summary = s.lines().next().expect("a summary line");
    assert!(summary.contains("pkts on 2 workers"), "{s}");
    assert!(summary.contains("| p99 "), "{s}");
}

#[test]
fn simulate_rejects_bad_kind_and_speed() {
    let out = spal(&["simulate", "--kind", "quantum"]);
    assert!(!out.status.success());
    let out = spal(&["simulate", "--speed", "100"]);
    assert!(!out.status.success());
}

/// A flag the command does not know is an error naming it, not a
/// silently applied default (`--workrs 1` used to run four workers).
#[test]
fn misspelled_flags_are_rejected_by_name() {
    for args in [
        &["dataplane", "--workrs", "1", "--packets", "100"][..],
        &["scenario", "soak", "--quik"],
        &["simulate", "--pakets", "100"],
    ] {
        let out = spal(args);
        assert!(!out.status.success(), "{args:?} ran");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

#[test]
fn lookup_requires_address() {
    let out = spal(&["lookup", "--size", "100"]);
    assert!(!out.status.success());
}
