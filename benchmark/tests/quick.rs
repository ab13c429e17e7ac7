//! The `--quick` tier (20k routes, 200k packets, one rep) through the
//! library and the command: correctness on every workload, replay
//! fidelity, the decomposition identity, the wrong-oracle self-test,
//! and that `BENCHMARK.json` says what the metric tables say.

use spal_benchmark::bench::{run_workload, Options, Outcome};
use spal_benchmark::metrics::{END_TO_END, PER_LAYER};
use spal_benchmark::{host, workload};
use std::process::Command;

fn quick(workload: &str, trace: bool) -> Outcome {
    run_workload(&Options {
        workload: workload.to_string(),
        seed: 2,
        seconds: 1,
        trace,
        quick: true,
        break_oracle: false,
    })
    .expect("known workload")
}

fn command(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spal-benchmark"))
        .args(args)
        .output()
        .expect("running the benchmark command")
}

#[test]
fn every_workload_is_correct_untraced() {
    for spec in workload::all() {
        let outcome = quick(spec.name, false);
        if spec.threads() > host::nproc() {
            assert!(!outcome.measured, "{} must refuse on this host", spec.name);
            continue;
        }
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        assert_eq!(outcome.failed, 0);
        // Warm-up (an eighth) plus one rep.
        assert_eq!(outcome.attempted, 225_000, "{}", spec.name);
        for def in END_TO_END {
            let v = outcome.values.get(def.name).expect("stated");
            assert!(v > 0.0, "{} {} = {v}", spec.name, def.name);
        }
    }
}

#[test]
fn traced_runs_replay_the_programs_work_and_the_parts_sum() {
    for spec in workload::all() {
        if spec.threads() > host::nproc() {
            continue;
        }
        let outcome = quick(spec.name, true);
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        let get = |name: &str| outcome.values.get(name).expect("stated");
        // One LC, no churn: the replay's cache saw exactly the run's
        // probe/reserve/fill sequence.
        if spec.workers == 1 && spec.churn.is_none() {
            assert_eq!(get("bench.replay_hit_rate_delta"), 0.0, "{}", spec.name);
        }
        assert_eq!(
            get("dataplane.layers_ns_per_packet") + get("dataplane.self_ns_per_packet"),
            get("dataplane.cpu_ns_per_packet"),
            "{}: layers + self = cpu",
            spec.name
        );
        assert!(get("dataplane.attributed_share") > 0.0);
        for def in PER_LAYER {
            // Every per-layer metric is stated (a refusal is stated too).
            let _ = outcome.values.get(def.name);
        }
        // 5 publications cannot carry a p99: refused, not printed.
        if spec.churn.is_some() {
            assert_eq!(outcome.values.get("dataplane.apply_p99_us"), None);
            assert!(get("dataplane.apply_p50_us") > 0.0);
        }
    }
}

#[test]
fn a_wrong_oracle_fails_the_command_and_names_an_address() {
    let out = command(&[
        "--workload",
        "stress-w1",
        "--seed",
        "2",
        "--quick",
        "--break-oracle",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("differs from the oracle's"), "{stderr}");
    assert!(stderr.contains("first divergent address"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false, "), "{last}");
}

#[test]
fn the_result_line_is_the_drivers_contract() {
    let out = command(&[
        "--workload",
        "locality-w1",
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with(
            "{\"correct\": true, \"attempted\": 225000, \"failed\": 0, \"metrics\": {"
        ),
        "{last}"
    );
    for def in END_TO_END {
        let member = format!("\"{}\": {{\"value\": ", def.name);
        assert!(last.contains(&member), "{} missing in {last}", def.name);
        assert!(last.contains(&format!("\"unit\": \"{}\"}}", def.unit)));
    }
    assert!(
        !last.contains("cache.hit_rate"),
        "untraced runs print no layers"
    );
    // The full report carries the fingerprint and the raw reps.
    let report = stdout.lines().next().expect("a report line");
    for key in [
        "\"host\": {\"nproc\": ",
        "\"rustc\": ",
        "\"git_sha\": ",
        "\"kernel\": ",
        "\"reps\": {",
    ] {
        assert!(report.contains(key), "{key} missing in {report}");
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = command(&["--workload", "no-such", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_repeats_the_metric_tables_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
    for def in END_TO_END {
        let line = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            def.name,
            def.unit,
            def.better,
            def.bound.expect("end-to-end metrics are bounded")
        );
        assert!(manifest.contains(&line), "{line}");
    }
    for def in PER_LAYER {
        let line = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            def.name, def.unit, def.better
        );
        assert!(manifest.contains(&line), "{line}");
    }
    for spec in workload::all() {
        assert!(manifest.contains(&format!("{{\"name\": \"{}\", \"why\": ", spec.name)));
    }
    let named = manifest.matches("{\"name\": ").count();
    assert_eq!(
        named,
        workload::all().len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn only_the_adapter_names_the_workspace_crates() {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    for entry in std::fs::read_dir(src).expect("src/") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|n| n == "sut.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source file");
        let leaked = text
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .any(|l| l.replace("spal_benchmark", "").contains("spal_"));
        assert!(
            !leaked,
            "{} calls into a workspace crate directly",
            path.display()
        );
    }
}
