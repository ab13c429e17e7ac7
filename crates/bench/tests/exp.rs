//! The `exp` driver's command line, and the one-list invariant: the
//! registry it prints is the list the README, DESIGN.md's E-table and
//! `results/` carry.

use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs")
}

fn names() -> Vec<String> {
    let out = exp(&["list"]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn unknown_experiment_exits_1_and_prints_the_registry() {
    let out = exp(&["fig7"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.contains("\"fig7\""), "{err}");
    for name in names() {
        assert!(err.contains(&name), "{name} missing from: {err}");
    }
}

#[test]
fn misspelled_flag_exits_1_naming_it() {
    let out = exp(&["headline", "--quik"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "ran the default tier");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.contains("--quik"), "{err}");
}

#[test]
fn the_registry_is_the_list_the_docs_and_results_carry() {
    let names = names();
    assert_eq!(names.len(), 18);
    let distinct: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "duplicate name in {names:?}");

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let results: Vec<String> = std::fs::read_dir(format!("{root}/results"))
        .expect("results/ exists")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    let readme = include_str!("../../../README.md");
    let design = include_str!("../../../DESIGN.md");
    for name in &names {
        let command = format!("`exp {name}`");
        assert!(readme.contains(&command), "README.md lacks {command}");
        assert!(design.contains(&command), "DESIGN.md lacks {command}");
        let file = format!("exp_{name}.txt");
        assert!(results.contains(&file), "results/ lacks {file}");
    }
    // And nothing in `results/` that the registry does not write (E7b's
    // RT_1 run of `fig6_scaling` is the one extra).
    for file in results.iter().filter(|f| f.starts_with("exp_")) {
        let name = file.trim_start_matches("exp_").trim_end_matches(".txt");
        assert!(
            names.iter().any(|n| n == name) || name == "fig6_scaling_rt1",
            "results/{file} has no experiment"
        );
    }
}
