//! Series/table printing for the figure binaries.
//!
//! Every figure harness produces one [`SeriesTable`] — the same rows the
//! paper plots — printed as aligned TSV so the output can be piped
//! straight into a plotting script or diffed across runs.

use std::fmt::Write as _;

/// A tabular experiment result: one x-column plus named y-columns.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Experiment title (e.g. "Fig. 7 (left): Q1 RMSE vs a, R2").
    pub title: String,
    /// Label of the x column.
    pub x_label: String,
    /// Labels of the y columns.
    pub y_labels: Vec<String>,
    /// Rows: `(x, [y...])`, one y per label.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl SeriesTable {
    /// Create an empty table.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_labels: Vec<String>,
    ) -> Self {
        SeriesTable {
            title: title.into(),
            x_label: x_label.into(),
            y_labels,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if `ys.len()` does not match the number of y labels.
    pub fn push(&mut self, x: f64, ys: Vec<f64>) {
        assert_eq!(ys.len(), self.y_labels.len(), "row width mismatch");
        self.rows.push((x, ys));
    }

    /// Render as a titled, tab-separated block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{}", self.x_label);
        for l in &self.y_labels {
            let _ = write!(out, "\t{l}");
        }
        let _ = writeln!(out);
        for (x, ys) in &self.rows {
            let _ = write!(out, "{x:.6}");
            for y in ys {
                let _ = write!(out, "\t{y:.6}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_and_rows() {
        let mut t = SeriesTable::new("Fig X", "a", vec!["llm".into(), "reg".into()]);
        t.push(0.1, vec![0.5, 1.2]);
        t.push(0.2, vec![0.6, 1.1]);
        let s = t.render();
        assert!(s.starts_with("# Fig X\n"));
        assert!(s.contains("a\tllm\treg\n"));
        assert!(s.contains("0.100000\t0.500000\t1.200000\n"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut t = SeriesTable::new("t", "x", vec!["y".into()]);
        t.push(0.0, vec![1.0, 2.0]);
    }
}
