//! Plain-text table rendering for experiment output, mirroring the rows
//! and series of the paper's tables and figures.

/// Accumulates rows and prints an aligned text table.
#[derive(Debug, Default)]
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        TablePrinter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells are pre-formatted).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as CSV (RFC-4180-ish: fields containing commas or quotes
    /// are quoted, quotes doubled) for downstream plotting.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let line = |cells: &[String]| {
            let row: Vec<String> = cells.iter().map(|c| field(c)).collect();
            row.join(",") + "\n"
        };
        out.push_str(&line(&self.headers));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// Write the CSV rendering to a file.
    pub fn save_csv(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// CSV drop into `results/csv/<name>.csv` under the working
    /// directory (for plotting). A failure — a read-only tree, say — is
    /// reported on stderr and the run goes on: the table itself is
    /// already on stdout.
    pub fn save_results_csv(&self, name: &str) {
        let path = format!("results/csv/{name}.csv");
        let saved = std::fs::create_dir_all("results/csv").and_then(|()| self.save_csv(&path));
        if let Err(e) = saved {
            eprintln!("warning: {path} not written: {e}");
        }
    }
}

/// Format a byte count as KiB with one decimal, as the paper's Fig. 3
/// axis does ("Total SRAM (in Kbytes)").
pub fn kbytes(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TablePrinter::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("long-name") && lines[3].contains("12345"));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn kbytes_format() {
        assert_eq!(kbytes(1024), "1.0");
        assert_eq!(kbytes(265_933), "259.7");
    }

    #[test]
    fn csv_escapes_fields() {
        let mut t = TablePrinter::new(&["name", "note"]);
        t.row(&["a".into(), "plain".into()]);
        t.row(&["b,c".into(), "has \"quotes\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "a,plain");
        assert_eq!(lines[2], "\"b,c\",\"has \"\"quotes\"\"\"");
    }
}
