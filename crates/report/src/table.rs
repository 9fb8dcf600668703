//! Aligned text tables.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple monospace table builder.
#[derive(Debug, Clone)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl TextTable {
    /// Creates a table with the given column headers. The first column
    /// is left-aligned, the rest right-aligned (the common numeric
    /// layout).
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        let aligns = (0..header.len())
            .map(|i| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        TextTable {
            header,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Appends a horizontal separator row.
    pub(crate) fn separator(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let n = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in self.rows.iter().filter(|r| !r.is_empty()) {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep_len: usize = widths.iter().sum::<usize>() + 3 * (n - 1);
        let mut out = String::new();
        self.render_row(&mut out, &self.header, &widths);
        let _ = writeln!(out, "{}", "-".repeat(sep_len));
        for row in &self.rows {
            if row.is_empty() {
                let _ = writeln!(out, "{}", "-".repeat(sep_len));
            } else {
                self.render_row(&mut out, row, &widths);
            }
        }
        out
    }

    fn render_row(&self, out: &mut String, cells: &[String], widths: &[usize]) {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            match self.aligns[i] {
                Align::Left => {
                    let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                }
                Align::Right => {
                    let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                }
            }
        }
        out.push('\n');
    }
}

/// Formats a float with `digits` decimal places.
pub(crate) fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
        // Numbers right-aligned: "22" ends the last line.
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn separator_rows() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into()]);
        t.separator();
        t.row(vec!["2".into()]);
        assert_eq!(t.rows.iter().filter(|r| !r.is_empty()).count(), 2);
        assert_eq!(t.render().lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn wrong_arity_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(10.0, 0), "10");
    }
}
