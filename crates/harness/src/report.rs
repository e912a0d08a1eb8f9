//! The per-suite JSON report: every sweep's [`GridReport`] plus the
//! rendered tables, written next to the text artifacts in `results/`.

use std::io;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::record::GridReport;
use crate::table::ResultTable;

/// Accumulates everything one suite measured, then serializes it.
///
/// The report's `wall_ms` spans from construction to serialization, so
/// it covers all sweeps the suite ran — the number to compare across
/// `--threads` values.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    threads: usize,
    started: Instant,
    grids: Vec<GridReport>,
    tables: Vec<ResultTable>,
}

impl BenchReport {
    /// Starts a report (and its wall-clock) for the suite named
    /// `name`.
    #[must_use]
    pub fn new(name: impl Into<String>, threads: usize) -> Self {
        BenchReport {
            name: name.into(),
            threads,
            started: Instant::now(),
            grids: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Records a sweep.
    pub fn push_grid(&mut self, grid: GridReport) {
        self.grids.push(grid);
    }

    /// Records a rendered table (for suites whose sweeps are not
    /// plain grids).
    pub fn push_table(&mut self, table: &ResultTable) {
        self.tables.push(table.clone());
    }

    /// The report as a serde value, stamping the total wall-clock.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            (
                "wall_ms".to_string(),
                (self.started.elapsed().as_secs_f64() * 1e3).to_value(),
            ),
            ("grids".to_string(), self.grids.to_value()),
            ("tables".to_string(), self.tables.to_value()),
        ])
    }

    /// Writes the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, serde::json::to_string_pretty(&self.to_value()))
    }

    /// Writes the report to `path` and says so on stderr — or nowhere,
    /// silently, when there is no path.
    ///
    /// # Errors
    ///
    /// Propagates a failure to write the report, naming the path.
    pub fn emit(&self, path: Option<&Path>) -> io::Result<()> {
        if let Some(path) = path {
            self.write(path)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_grids_and_tables() {
        let mut report = BenchReport::new("demo", 2);
        report.push_grid(crate::record::tests::grid("g", vec![]));
        let mut t = ResultTable::new("t", &["a"]);
        t.push_row("r", vec!["1".into()]);
        report.push_table(&t);
        let v = report.to_value();
        assert_eq!(v.get("name"), Some(&Value::Str("demo".into())));
        let text = serde::json::to_string_pretty(&v);
        assert!(text.contains("\"grids\""));
        assert!(text.contains("\"tables\""));
        assert!(serde::json::from_str(&text).is_ok());
    }

    #[test]
    fn emit_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join("cnet-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let report = BenchReport::new("demo", 1);
        report.emit(Some(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde::json::from_str(&text).unwrap();
        assert_eq!(v.get("threads"), Some(&Value::Uint(1)));
    }
}
