//! The rectangular results table every runner prints, rendered as
//! aligned text, CSV, or a serde value (for the JSON reports).
//!
//! Moved here from `cnet-bench` so the CLI and the bench suites share
//! one implementation.

use std::fmt::Write as _;

use serde::{Deserialize, Error, Serialize, Value};

/// A rectangular results table with row and column labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultTable {
    title: String,
    column_labels: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl ResultTable {
    /// Creates an empty table titled `title` with the given column
    /// labels (the row-label column is implicit).
    #[must_use]
    pub fn new(title: impl Into<String>, column_labels: &[impl AsRef<str>]) -> Self {
        ResultTable {
            title: title.into(),
            column_labels: column_labels
                .iter()
                .map(|s| s.as_ref().to_string())
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of column
    /// labels.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.column_labels.len(),
            "row width must match the column labels"
        );
        self.rows.push((label.into(), cells));
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders an aligned text table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.column_labels.iter().map(String::len).collect();
        let mut label_width = 0;
        for (label, cells) in &self.rows {
            label_width = label_width.max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:label_width$}", "");
        for (i, l) in self.column_labels.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", l, w = widths[i]);
        }
        out.push('\n');
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:label_width$}");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "  {:>w$}", c, w = widths[i]);
            }
            out.push('\n');
        }
        out
    }

    /// Renders RFC-4180-ish CSV with the title as a comment line.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "row,{}", self.column_labels.join(","));
        for (label, cells) in &self.rows {
            let _ = writeln!(out, "{label},{}", cells.join(","));
        }
        out
    }
}

impl Serialize for ResultTable {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("title".to_string(), self.title.to_value()),
            ("columns".to_string(), self.column_labels.to_value()),
            (
                "rows".to_string(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|(label, cells)| {
                            Value::Object(vec![
                                ("label".to_string(), label.to_value()),
                                ("cells".to_string(), cells.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for ResultTable {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let rows = match v.get("rows") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|r| Ok((r.field("label")?, r.field("cells")?)))
                .collect::<Result<Vec<_>, Error>>()?,
            _ => return Err(Error::new("expected a `rows` array")),
        };
        Ok(ResultTable {
            title: v.field("title")?,
            column_labels: v.field("columns")?,
            rows,
        })
    }
}

/// Formats a ratio as a percentage with two decimals ("1.23%").
#[must_use]
pub fn percent(ratio: f64) -> String {
    format!("{:.2}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text() {
        let mut t = ResultTable::new("demo", &["n=4", "n=16"]);
        t.push_row("W=100", vec!["0.00%".into(), "1.23%".into()]);
        t.push_row("W=1000", vec!["4.5%".into(), "0.1%".into()]);
        let text = t.to_text();
        assert!(text.contains("# demo"));
        assert!(text.contains("n=4"));
        assert!(text.contains("W=1000"));
    }

    #[test]
    fn table_renders_csv() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row("r1", vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("row,a,b"));
        assert!(csv.contains("r1,1,2"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = ResultTable::new("demo", &["a"]);
        t.push_row("r", vec!["1".into(), "2".into()]);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.0), "0.00%");
        assert_eq!(percent(0.1234), "12.34%");
    }

    #[test]
    fn table_serde_round_trip() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row("r1", vec!["1".into(), "2".into()]);
        t.push_row("r2", vec!["3".into(), "4".into()]);
        let back = ResultTable::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }
}
