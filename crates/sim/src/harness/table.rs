//! Plain-text table rendering and the shared statistics helpers.
//!
//! Shared so every `tw` subcommand and the paper's figures format
//! results the same way.

/// A plain-text table printer with right-aligned numeric columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cells[i], w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float to 2 decimal places.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with sign to one decimal place.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Percent change from `from` to `to`.
#[must_use]
pub fn percent_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

/// Arithmetic mean (0 for an empty input).
#[must_use]
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t.row(vec!["long-name".into(), "123.45".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(10.0), "+10.0%");
        assert!((percent_change(10.0, 12.0) - 20.0).abs() < 1e-12);
        assert!((percent_change(10.0, 9.0) + 10.0).abs() < 1e-12);
        assert_eq!(percent_change(0.0, 5.0), 0.0);
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean([]), 0.0);
    }
}
