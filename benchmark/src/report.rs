//! What the command prints: a full report line (host fingerprint, raw
//! per-rep values, warnings, every metric with unit and bound) and, as
//! the last line, the driver's result object.

use crate::bench::Outcome;
use crate::host;
use crate::metrics::{Def, END_TO_END, PER_LAYER};

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits; `null` for what JSON cannot carry.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

fn object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let members: Vec<String> = members
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The metric tables of the mode the run was in.
fn tables(outcome: &Outcome) -> &'static [Def] {
    if outcome.options.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The driver's contract: `correct`, `attempted`, `failed`, `metrics`,
/// with a traced run stating every per-layer metric and an untraced
/// run every end-to-end one. A refused value (a p99 without ten samples
/// beyond it) reads 0 here and `null` in the full report.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = tables(outcome).iter().map(|def| {
        let value = outcome.values.get(def.name).unwrap_or(0.0);
        (
            def.name,
            object([("value", number(value)), ("unit", string(def.unit))]),
        )
    });
    object([
        ("correct", outcome.correct().to_string()),
        ("attempted", outcome.attempted.max(1).to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", object(metrics)),
    ])
}

/// Everything about the run, on one line.
pub fn full_report(outcome: &Outcome) -> String {
    let spec = &outcome.spec;
    let mut members = vec![
        ("benchmark", string("spal-reference")),
        ("workload", string(spec.name)),
        ("why", string(spec.why)),
        ("seed", outcome.options.seed.to_string()),
        (
            "tier",
            string(if outcome.options.quick {
                "quick"
            } else {
                "full"
            }),
        ),
        ("trace", outcome.options.trace.to_string()),
        ("measured", outcome.measured.to_string()),
        ("host", host::fingerprint_json()),
        (
            "inputs",
            object([
                ("routes", spec.routes.to_string()),
                ("packets_per_rep", spec.packets.to_string()),
                ("workers", spec.workers.to_string()),
                ("threads", spec.threads().to_string()),
                ("engine", string(&format!("{:?}", spec.engine))),
                ("stream", string(&format!("{:?}", spec.stream))),
                ("churn", spec.churn.is_some().to_string()),
            ]),
        ),
        (
            "warnings",
            array(outcome.warnings.iter().map(|w| string(w))),
        ),
    ];
    if outcome.measured {
        let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        members.extend([
            ("correct", outcome.correct().to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("failed_share", number(failed_share)),
            (
                "failures",
                array(outcome.failures.iter().map(|f| string(f))),
            ),
            (
                "oracle_checksum",
                string(&format!("{:#x}", outcome.oracle_checksum)),
            ),
            (
                "reps",
                object(
                    outcome
                        .raw
                        .iter()
                        .map(|(name, values)| (*name, array(values.iter().map(|&v| number(v))))),
                ),
            ),
            (
                if outcome.options.trace {
                    "per_layer"
                } else {
                    "end_to_end"
                },
                object(tables(outcome).iter().map(|def| {
                    let mut m = vec![
                        (
                            "value",
                            outcome
                                .values
                                .get(def.name)
                                .map_or("null".to_string(), number),
                        ),
                        ("unit", string(def.unit)),
                        ("better", string(def.better)),
                    ];
                    if let Some(bound) = def.bound {
                        m.push(("bound", number(bound)));
                    }
                    (def.name, object(m))
                })),
            ),
        ]);
    }
    object(members)
}
