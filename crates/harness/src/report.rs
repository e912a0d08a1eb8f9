//! The per-suite JSON report: every sweep's [`GridReport`] plus the
//! rendered tables, written next to the text artifacts in `results/`.

use std::io;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::args::BenchArgs;
use crate::baseline::Baseline;
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

    /// Writes the report to the destination [`BenchArgs::json_path`]
    /// resolves — or nowhere, silently, when there is none.
    ///
    /// When the invocation carries `--baseline PATH`, the run is then
    /// compared cell-by-cell against that committed report (see
    /// [`crate::baseline`]) and the delta table is written to `out`.
    /// The caller decides what each [`Emitted`] outcome does to the
    /// process.
    ///
    /// # Errors
    ///
    /// Propagates a failure to write the report or the delta table.
    pub fn emit(&self, args: &BenchArgs, out: &mut dyn io::Write) -> io::Result<Emitted> {
        if let Some(path) = args.json_path() {
            self.write(&path)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        let Some(path) = &args.baseline else {
            return Ok(Emitted::Written);
        };
        let baseline = match Baseline::load(path) {
            Ok(b) => b,
            Err(e) => return Ok(Emitted::BaselineUnloadable(e)),
        };
        let cmp = baseline.compare(&self.grids);
        writeln!(out, "{}", cmp.table.to_text())?;
        writeln!(
            out,
            "baseline: {} matched, {} unmatched, {} regressed",
            cmp.matched,
            cmp.unmatched,
            cmp.regressions.len()
        )?;
        Ok(if cmp.regressions.is_empty() {
            Emitted::Written
        } else {
            Emitted::Regressed(cmp.regressions)
        })
    }
}

/// How [`BenchReport::emit`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Emitted {
    /// The report is written and the baseline, if one was given, holds.
    Written,
    /// The `--baseline` file would not load; carries the reader's error.
    BaselineUnloadable(String),
    /// Cells ran slower than the baseline by more than
    /// [`crate::baseline::REGRESSION_FACTOR`]; one line per cell.
    Regressed(Vec<String>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_grids_and_tables() {
        let mut report = BenchReport::new("demo", 2);
        report.push_grid(crate::baseline::tests::grid("g", vec![]));
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

    /// A one-cell report whose cell took `wall_ms`, and `emit`'s outcome
    /// and delta output when judged against `baseline`.
    fn emit_against(baseline: &Path, wall_ms: f64, json: &Path) -> (Emitted, String) {
        use crate::baseline::tests::{grid, record};
        let mut report = BenchReport::new("demo", 1);
        report.push_grid(grid("g", vec![record("cell", 1000, wall_ms)]));
        let raw = [
            "--json",
            json.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
        ]
        .map(String::from);
        let args = BenchArgs::parse_from("demo", &["--json", "--baseline"], &raw).unwrap();
        let mut out = Vec::new();
        let emitted = report.emit(&args, &mut out).unwrap();
        (emitted, String::from_utf8(out).unwrap())
    }

    #[test]
    fn emit_returns_the_baseline_verdict_instead_of_exiting() {
        let dir = std::env::temp_dir().join("cnet-harness-emit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (baseline, json) = (dir.join("baseline.json"), dir.join("run.json"));

        // exit 2: the report is written, then the baseline will not load
        let (emitted, out) = emit_against(&dir.join("absent.json"), 1.0, &baseline);
        assert!(
            matches!(&emitted, Emitted::BaselineUnloadable(e) if e.contains("absent.json")),
            "{emitted:?}"
        );
        assert!(out.is_empty(), "no delta table without a baseline: {out}");

        // exit 0: 2x slower is inside the 3x gate
        let (emitted, out) = emit_against(&baseline, 2.0, &json);
        assert_eq!(emitted, Emitted::Written);
        assert!(out.contains("baseline: 1 matched, 0 unmatched, 0 regressed"));

        // exit 3: 10x slower names the cell
        let (emitted, out) = emit_against(&baseline, 10.0, &json);
        let Emitted::Regressed(cells) = emitted else {
            panic!("a 10x slower cell must regress: {emitted:?}");
        };
        assert_eq!(cells.len(), 1);
        assert!(cells[0].starts_with("g cell:"), "{}", cells[0]);
        assert!(out.contains("baseline: 1 matched, 0 unmatched, 1 regressed"));
    }

    #[test]
    fn write_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join("cnet-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let report = BenchReport::new("demo", 1);
        report.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde::json::from_str(&text).unwrap();
        assert_eq!(v.get("threads"), Some(&Value::Uint(1)));
    }
}
