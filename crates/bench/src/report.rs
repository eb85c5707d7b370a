//! Console tables and JSON persistence for experiment results.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A rendered-as-text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; must match the header arity.
    ///
    /// # Panics
    /// Panics on arity mismatch (a harness bug, not a data condition).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$} | ", w = w);
            }
            s
        };
        let header = line(&self.headers, &widths);
        let rule = "-".repeat(header.len());
        let _ = writeln!(out, "{rule}");
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        let _ = writeln!(out, "{rule}");
        out
    }
}

/// Formats a float with 3 decimals for table cells.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal for table cells.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Writes any serializable result to `dir/name.json` (pretty-printed),
/// creating the directory if needed.
///
/// # Errors
/// I/O and serialization errors are returned for the caller to report.
pub fn write_json<T: Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// [`write_json`] for the `repro` CLI: reports the saved path on stdout, a
/// failure as a warning on stderr.
pub fn persist<T: Serialize>(dir: &Path, name: &str, value: &T) {
    match write_json(dir, name, value) {
        Ok(path) => println!("[saved {}]\n", path.display()),
        Err(e) => eprintln!("[warn] could not write {name}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["scheme", "K"]);
        t.push_row(vec!["uncoded".into(), "50".into()]);
        t.push_row(vec!["bcc".into(), "11.4".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("uncoded"));
        assert!(s.contains("11.4"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("bcc_bench_test");
        let path = write_json(&dir, "unit", &vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        let back: Vec<i32> = serde_json::from_str(&body).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(29.2896), "29.3");
    }
}
