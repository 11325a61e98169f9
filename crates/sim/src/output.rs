//! Plain-text table and CSV rendering for the experiment harness.
//!
//! The experiments print paper-shaped rows to stdout; no serialization crate
//! is needed. [`Table`] right-pads columns for terminal alignment and can
//! also render itself as CSV.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
// lint:allow(digest-coverage) reason=derived: render buffer assembled from already-digested metrics at print time
pub struct Table {
    title: String,
    header: Vec<String>,
    // lint:allow(bounded-state) reason=one row per reported table line; experiments emit a fixed row set at the end of a run
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; its length must match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{:<w$}", cell, w = width + 2);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing
    /// commas/quotes/newlines).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format a float with engineering-friendly precision (3 significant-ish
/// decimal places trimmed of trailing zeros).
pub fn num(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let s = if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    };
    let s = s.trim_end_matches('0').trim_end_matches('.').to_string();
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s
    }
}

/// Format a ratio like `12.3x`.
pub fn ratio(v: f64) -> String {
    format!("{}x", num(v))
}

/// Format a fraction as a percentage like `43.1%`.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_and_renders() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22222".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("alpha"));
        // Columns padded to the same width: both data lines equal length.
        let lines: Vec<&str> = r.lines().skip(2).collect();
        assert_eq!(lines.len(), 3); // separator + 2 rows
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("csv", &["k", "v"]);
        t.row(&["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(1234.5), "1234.5");
        assert_eq!(num(12.30), "12.3");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(ratio(12.3), "12.3x");
        assert_eq!(pct(0.431), "43.1%");
    }
}
