//! Report formatting: aligned text tables with paper-vs-measured columns,
//! plus JSON export for downstream tooling.

use serde::Serialize;

/// A simple aligned text table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
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
                line.push_str(&format!("{:>w$}", cell, w = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with fixed precision.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a speedup ratio like the paper's figures ("2.31x").
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Writes a serializable report to a JSON file if `path` is given.
pub fn maybe_write_json<T: Serialize>(path: Option<&str>, value: &T) -> std::io::Result<()> {
    if let Some(path) = path {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer_pretty(file, value)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_serve::json::{self, Json};

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["graph", "colors"]);
        t.row(vec!["rmat-er", "12"]);
        t.row(vec!["g3", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("graph"));
        assert!(lines[2].ends_with("12"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn float_and_speedup_format() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(speedup(2.5), "2.50x");
    }

    #[test]
    fn json_written_when_path_given() {
        let dir = std::env::temp_dir().join("gcol-report-test.json");
        let path = dir.to_str().unwrap();
        maybe_write_json(Some(path), &vec![1, 2, 3]).unwrap();
        let back = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(back, Json::Arr([1.0, 2.0, 3.0].map(Json::Num).to_vec()));
        std::fs::remove_file(path).ok();
        // None path is a no-op.
        maybe_write_json(None, &42).unwrap();
    }
}
