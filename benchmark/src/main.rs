//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <name> --seed <n>
//! [--seconds <n>] [--trace [0|1]] [--quick] [--out <file>]`
//!
//! Prints the full report on one line and the driver's result object on
//! the last. Exit code 0: measured and correct. 1: measured, diverged.
//! 2: not measured (unknown workload, bad flag, host too small).

use spal_benchmark::bench::{run_workload, Options};
use spal_benchmark::report::{full_report, result_line};
use spal_benchmark::workload;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
    format!(
        "usage: --workload <{}> --seed <n> [--seconds <n>] [--trace [0|1]] [--quick] \
         [--out <file>] [--break-oracle]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Options, Option<String>), String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
        break_oracle: false,
    };
    let mut out = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => options.workload = value(&mut i)?.clone(),
            "--seed" => {
                options.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone is the traced run; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    options.trace = false;
                    i += 1;
                }
                Some("1") => {
                    options.trace = true;
                    i += 1;
                }
                _ => options.trace = true,
            },
            "--quick" => options.quick = true,
            "--break-oracle" => options.break_oracle = true,
            "--out" => out = Some(value(&mut i)?.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if options.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok((options, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(options, out)| Ok((run_workload(&options)?, out)));
    let (outcome, out) = match outcome {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    let report = full_report(&outcome);
    println!("{report}");
    if let Some(path) = out {
        // Appends, so a set of runs is one JSON-lines file for compare.sh.
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{report}"));
        if let Err(e) = appended {
            eprintln!("could not append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !outcome.measured {
        // A refusal is not a result: no result line, not a green exit.
        return ExitCode::from(2);
    }
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
