//! The gate protocol shared by `bench_gate`, `bench_lookup`,
//! `bench_dataplane` and `spal scenario`: one verdict ledger, one
//! "can this host measure that" predicate, one row writer.
//!
//! A gate has three verdicts. `ok` and `FAIL` are what they say.
//! `UNMEASURED` is a wall-clock gate whose run kept more threads busy
//! than the host has cores — its numbers describe the scheduler's
//! time-slicing, so it neither passes nor fails; it is printed, counted,
//! and reported on the binary's last line. Correctness gates (checksums,
//! spot checks, RIB samples) are [`Gates::require`]: they hold on any
//! host and are never unmeasured.

use std::io::Write;

/// Cores this process may run on. The only thing it decides is
/// [`measured`] (and the `host_cores` a row is stamped with) — no gate
/// threshold is a function of it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether wall-clock numbers from a run that kept `busy_threads`
/// threads busy describe the code rather than the scheduler.
pub fn measured(busy_threads: usize) -> bool {
    busy_threads <= host_cores()
}

/// Append `host_cores` and `measured` to a rendered JSON object row, so
/// every committed row says where it ran and whether its wall-clock
/// fields mean anything.
pub fn stamp(row: &str, busy_threads: usize) -> String {
    let body = row
        .trim_end()
        .strip_suffix('}')
        .expect("a JSON object row")
        .trim_end();
    format!(
        "{body}, \"host_cores\": {}, \"measured\": {}}}",
        host_cores(),
        measured(busy_threads)
    )
}

/// Write rendered JSON object rows to `path` as a JSON array, each row
/// starting a line (the layout of every `BENCH_*.json`; a row that nests
/// a report spans several).
pub fn write_array(path: &str, rows: &[String]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(f, "  {row}{comma}")?;
    }
    writeln!(f, "]")?;
    f.flush()
}

/// The verdict ledger: prints one line per gate as it is graded,
/// collects the failures, counts the gates this host could not measure.
#[derive(Debug)]
pub struct Gates {
    name: String,
    failures: Vec<String>,
    unmeasured: usize,
}

impl Gates {
    /// An empty ledger for the binary (or subcommand) `name`.
    pub fn new(name: &str) -> Self {
        Gates {
            name: name.to_string(),
            failures: Vec::new(),
            unmeasured: 0,
        }
    }

    /// Wall-clock gate: `value >= floor`, from a run that kept
    /// `busy_threads` threads busy.
    pub fn floor(&mut self, what: &str, value: f64, floor: f64, busy_threads: usize) {
        let detail = format!("{value:.2} (floor {floor})");
        self.wall_clock(what, value >= floor, detail, busy_threads);
    }

    /// Wall-clock gate: `value <= ceiling`, from a run that kept
    /// `busy_threads` threads busy.
    pub fn ceiling(&mut self, what: &str, value: f64, ceiling: f64, busy_threads: usize) {
        let detail = format!("{value:.2} (ceiling {ceiling})");
        self.wall_clock(what, value <= ceiling, detail, busy_threads);
    }

    fn wall_clock(&mut self, what: &str, ok: bool, detail: String, busy_threads: usize) {
        if measured(busy_threads) {
            self.require(&format!("{what}: {detail}"), ok);
        } else {
            let why = format!("{busy_threads} busy threads on {} host cores", host_cores());
            self.unmeasured(&format!("{what}: {detail}"), &why);
        }
    }

    /// A gate that holds on any host — a correctness check, or a pure
    /// function of the table.
    pub fn require(&mut self, what: &str, ok: bool) {
        println!("  gate {what} {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    /// A gate this run cannot grade: neither passed nor failed.
    pub fn unmeasured(&mut self, what: &str, why: &str) {
        println!("  gate {what} UNMEASURED ({why})");
        self.unmeasured += 1;
    }

    /// Record failures graded elsewhere (a scenario's own hard gates).
    pub fn extend(&mut self, failures: impl IntoIterator<Item = String>) {
        self.failures.extend(failures);
    }

    /// The failures so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The last line of a passing run.
    pub fn verdict(&self) -> String {
        match self.unmeasured {
            0 => format!("{} passed", self.name),
            n => format!("{} passed, {n} gate(s) unmeasured on this host", self.name),
        }
    }

    /// Print the verdict and, on any failure, exit 1.
    pub fn finish(self) {
        if !self.failures.is_empty() {
            eprintln!("{} FAILED:", self.name);
            for f in &self.failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("{}", self.verdict());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_breached_floor_or_ceiling_fails() {
        let mut g = Gates::new("t");
        g.floor("ratio", 2.0, 1.5, 1);
        g.ceiling("apply p99 us", 10.0, 50.0, 1);
        g.require("checksum", true);
        assert!(g.failures().is_empty());
        g.floor("ratio", 1.49, 1.5, 1);
        g.ceiling("apply p99 us", 51.0, 50.0, 1);
        g.require("checksum", false);
        assert_eq!(g.failures().len(), 3);
        assert!(g.failures()[0].contains("ratio: 1.49 (floor 1.5)"));
    }

    #[test]
    fn an_unmeasured_gate_neither_passes_nor_fails_and_is_counted() {
        let mut g = Gates::new("t");
        // More busy threads than any host has cores: a breached floor
        // and a held one are both unmeasured.
        g.floor("scaling", 0.4, 1.0, usize::MAX);
        g.floor("scaling", 4.0, 1.0, usize::MAX);
        g.unmeasured("storage", "table too small");
        assert!(g.failures().is_empty());
        assert_eq!(g.verdict(), "t passed, 3 gate(s) unmeasured on this host");
    }

    #[test]
    fn an_empty_ledger_passes_and_extend_fails_it() {
        let mut g = Gates::new("spal scenario");
        assert_eq!(g.verdict(), "spal scenario passed");
        g.extend(["soak: 1 oracle divergence".to_string()]);
        assert_eq!(g.failures(), ["soak: 1 oracle divergence"]);
    }

    #[test]
    fn stamp_appends_the_host_fields() {
        let cores = host_cores();
        assert_eq!(
            stamp("{\"a\": 1}", 1),
            format!("{{\"a\": 1, \"host_cores\": {cores}, \"measured\": true}}")
        );
        assert_eq!(
            stamp("{ \"a\": [] }", usize::MAX),
            format!("{{ \"a\": [], \"host_cores\": {cores}, \"measured\": false}}")
        );
        // A row nesting a multi-line report object.
        assert_eq!(
            stamp("{\"a\": 1, \"report\": {\n  \"b\": [\n  ]\n}}", 1),
            format!(
                "{{\"a\": 1, \"report\": {{\n  \"b\": [\n  ]\n}}, \"host_cores\": {cores}, \"measured\": true}}"
            )
        );
    }
}
