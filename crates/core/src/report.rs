//! Plain-text table and CSV formatting shared by the regeneration
//! binaries in `nc-bench`.

use std::fmt::Write as _;

/// A simple fixed-width text table builder.
///
/// # Examples
///
/// ```
/// use nc_core::report::TextTable;
/// let mut t = TextTable::new(&["design", "area (mm²)"]);
/// t.row(&["MLP", "6.36"]);
/// let s = t.render();
/// assert!(s.contains("design"));
/// assert!(s.contains("6.36"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty; extra cells are kept).
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<width$}  ", width = w);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Serializes `(x, series...)` rows as CSV with headers — the format the
/// figure binaries emit so results can be plotted externally.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(&["a", "bbbb"]);
        t.row(&["xxxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    fn table_tolerates_ragged_rows() {
        let mut t = TextTable::new(&["a"]);
        t.row(&["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
    }

    #[test]
    fn csv_round_trips_simple_rows() {
        let s = csv(
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(s, "x,y\n1,2\n3,4\n");
    }

    #[test]
    fn formatters_are_stable() {
        assert_eq!(pct(0.9182), "91.82%");
    }
}
