//! Minimal fixed-width text tables for experiment output.

/// A simple text table: a header row plus data rows, rendered with
/// padded columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Convenience for `&str` cells.
    pub fn row_str(&mut self, cells: &[&str]) {
        self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Machine-readable form: an array of objects, one per row, keyed by
    /// the column headers. Cells stay strings (tables hold pre-formatted
    /// text); emit raw numbers separately when consumers need them.
    pub fn to_json(&self) -> orc11::Json {
        orc11::Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    self.header
                        .iter()
                        .zip(row.iter())
                        .fold(orc11::Json::obj(), |j, (h, c)| j.set(h, c.as_str()))
                })
                .collect(),
        )
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                s.push_str("| ");
                s.push_str(c);
                for _ in c.chars().count()..widths[i] {
                    s.push(' ');
                }
                s.push(' ');
            }
            s.push('|');
            s
        };
        let sep: String = {
            let mut s = String::new();
            for w in &widths {
                s.push('+');
                s.push_str(&"-".repeat(w + 2));
            }
            s.push('+');
            s
        };
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Human formatting for nanosecond durations (table cells).
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_padded_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row_str(&["a", "1"]);
        t.row_str(&["longer-name", "22"]);
        let s = t.render();
        assert!(s.contains("| name        | value |"));
        assert!(s.contains("| longer-name | 22    |"));
        // All lines same width.
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row_str(&["x"]);
        assert!(t.render().contains("| x | "));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(1_500), "1.500 us");
        assert_eq!(format_ns(2_500_000), "2.500 ms");
        assert_eq!(format_ns(3_000_000_000), "3.000 s");
    }
}
