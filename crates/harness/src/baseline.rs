//! Perf-regression comparison against a committed `BENCH_*.json`.
//!
//! Every bench suite emits a JSON report whose per-cell records carry
//! host wall-clock (`wall_ms`). Committing those reports under
//! `results/` turns them into perf baselines: a later run of the same
//! suite with `--baseline results/BENCH_<suite>.json` loads the old
//! report, matches cells by `(sweep title, cell label)`, and renders a
//! delta table of per-operation wall-clock and simulated throughput.
//!
//! Comparisons are *per operation*, not per cell: `wall_ms` is divided
//! by the cell's `total_ops` on both sides, so a `--ops 500` smoke run
//! can be judged against a committed 5000-op baseline. Simulated
//! throughput (ops per simulated cycle) is reported as a sanity column
//! but never gates: it is deterministic, so it only moves when the
//! simulated behaviour itself changed.
//!
//! Wall-clock on shared CI runners is noisy — multi-× swings between
//! identical runs are routine — so the regression gate is deliberately
//! coarse: a cell regresses only when it is more than
//! [`REGRESSION_FACTOR`]× slower per op than the baseline. The gate
//! catches accidental algorithmic regressions (dropping back to a
//! pre-optimization code path), not percent-level drift.
//!
//! Cells whose record carries the schema-v4 `noisy` flag — on either
//! side of the comparison — widen to [`NOISY_REGRESSION_FACTOR`]×.
//! The flag means the measuring host could not supply the parallelism
//! the cell models (e.g. a multi-thread race on one hardware thread),
//! where observed run-to-run swings approach 5× even at best-of-5; a
//! 3× gate on such a cell compares the baseline's scheduler luck
//! against the run's. The widened gate still catches
//! order-of-magnitude regressions while letting jitter through.

use std::collections::HashMap;
use std::path::Path;

use cnet_obs::{SloPolicy, SloReport};
use serde::{impl_serde_struct, Deserialize as _, Serialize as _, Value};

use crate::record::GridReport;
use crate::table::ResultTable;

/// A run regresses when a cell's per-op wall-clock exceeds the
/// baseline's by more than this factor. Coarse by design: CI
/// wall-clock noise routinely spans 2×.
pub const REGRESSION_FACTOR: f64 = 3.0;

/// The gate for cells flagged `noisy` (host parallelism shortfall) in
/// either the baseline or the run. Wide enough to absorb the ~5×
/// scheduler jitter such cells show between identical runs, narrow
/// enough to still trip on an order-of-magnitude algorithmic slide.
pub const NOISY_REGRESSION_FACTOR: f64 = 9.0;

/// One cell of a loaded baseline report.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// Sweep title the cell belongs to.
    pub grid: String,
    /// Cell label within the sweep (e.g. `"W=100,n=4"`).
    pub label: String,
    /// Operations the baseline cell ran.
    pub total_ops: usize,
    /// Host wall-clock of the baseline cell, in milliseconds.
    pub wall_ms: f64,
    /// Simulated throughput (ops per simulated cycle) of the baseline.
    pub throughput: f64,
    /// Whether the baseline cell was flagged noisy by its producer.
    pub noisy: bool,
}

/// A parsed `BENCH_*.json` report, ready to compare runs against.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// The `name` field of the loaded report.
    pub name: String,
    cells: HashMap<(String, String), BaselineCell>,
}

/// The outcome of comparing a run against a [`Baseline`].
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// The rendered delta table (one row per matched cell).
    pub table: ResultTable,
    /// Human-readable descriptions of every regressed cell.
    pub regressions: Vec<String>,
    /// Cells present in both the run and the baseline.
    pub matched: usize,
    /// Run cells with no baseline counterpart (new sweeps/labels).
    pub unmatched: usize,
}

impl Baseline {
    /// Loads a report previously written by
    /// [`crate::report::BenchReport`].
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable, is not JSON, or
    /// has no `grids` array.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value: Value = serde::json::from_str(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Self::from_report(&value).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Builds a baseline from an already-parsed report value.
    ///
    /// # Errors
    ///
    /// Returns a message when the value has no well-formed `grids`
    /// array.
    pub fn from_report(value: &Value) -> Result<Self, String> {
        let name: String = value.field("name").map_err(|e| e.to_string())?;
        let Some(Value::Array(grids)) = value.get("grids") else {
            return Err("report has no `grids` array".to_string());
        };
        let mut cells = HashMap::new();
        for g in grids {
            let grid = GridReport::from_value(g).map_err(|e| e.to_string())?;
            for r in grid.records {
                cells.insert(
                    (grid.title.clone(), r.label.clone()),
                    BaselineCell {
                        grid: grid.title.clone(),
                        label: r.label,
                        total_ops: r.total_ops,
                        wall_ms: r.wall_ms,
                        throughput: r.stats.throughput,
                        noisy: r.noisy,
                    },
                );
            }
        }
        Ok(Baseline { name, cells })
    }

    /// The baseline cell for `(grid title, label)`, if recorded.
    #[must_use]
    pub fn cell(&self, grid: &str, label: &str) -> Option<&BaselineCell> {
        self.cells.get(&(grid.to_string(), label.to_string()))
    }

    /// Number of cells in the baseline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the baseline holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Compares a run's sweeps cell-by-cell against this baseline.
    ///
    /// Cells are matched on `(sweep title, cell label)`; matched cells
    /// get a delta row, unmatched run cells are counted but not
    /// judged. A cell whose per-op wall-clock exceeds the baseline's
    /// by more than [`REGRESSION_FACTOR`] lands in `regressions` —
    /// widened to [`NOISY_REGRESSION_FACTOR`] when either side of the
    /// cell is flagged noisy.
    #[must_use]
    pub fn compare(&self, grids: &[GridReport]) -> BaselineComparison {
        let mut table = ResultTable::new(
            format!("vs baseline `{}` (per-op wall-clock)", self.name),
            &[
                "base ms/kop",
                "now ms/kop",
                "ratio",
                "base thpt",
                "now thpt",
            ],
        );
        let mut regressions = Vec::new();
        let mut matched = 0;
        let mut unmatched = 0;
        for grid in grids {
            for r in &grid.records {
                let Some(base) = self.cell(&grid.title, &r.label) else {
                    unmatched += 1;
                    continue;
                };
                matched += 1;
                let base_per_op = per_op(base.wall_ms, base.total_ops);
                let now_per_op = per_op(r.wall_ms, r.total_ops);
                let ratio = if base_per_op > 0.0 {
                    now_per_op / base_per_op
                } else {
                    1.0
                };
                table.push_row(
                    format!("{} {}", grid.title, r.label),
                    vec![
                        format!("{:.3}", base_per_op * 1e3),
                        format!("{:.3}", now_per_op * 1e3),
                        format!("{ratio:.2}x"),
                        format!("{:.5}", base.throughput),
                        format!("{:.5}", r.stats.throughput),
                    ],
                );
                let noisy = base.noisy || r.noisy;
                let allowed = if noisy {
                    NOISY_REGRESSION_FACTOR
                } else {
                    REGRESSION_FACTOR
                };
                if ratio > allowed {
                    let qualifier = if noisy { ", noisy cell" } else { "" };
                    regressions.push(format!(
                        "{} {}: {:.3} ms/kop vs baseline {:.3} ms/kop ({ratio:.2}x > {allowed}x{qualifier})",
                        grid.title,
                        r.label,
                        now_per_op * 1e3,
                        base_per_op * 1e3,
                    ));
                }
            }
        }
        BaselineComparison {
            table,
            regressions,
            matched,
            unmatched,
        }
    }
}

fn per_op(wall_ms: f64, total_ops: usize) -> f64 {
    if total_ops == 0 {
        0.0
    } else {
        wall_ms / total_ops as f64
    }
}

/// A committed `results/SLO_soak.json`: the declarative policy plus
/// the reference windowed metrics of a known-good local soak.
///
/// The comparison mirrors the per-op wall-clock gate above: each SLO
/// dimension (violation rate, worst magnitude, p99 sojourn) regresses
/// only when the run exceeds **both** the policy threshold and
/// [`REGRESSION_FACTOR`]× the reference measurement — widened to
/// [`NOISY_REGRESSION_FACTOR`]× when either side is flagged noisy.
/// Judging against `max(policy, factor × reference)` keeps the gate
/// meaningful when the reference measured a clean zero (any policy
/// breach still trips) while absorbing host jitter when the reference
/// itself saw violations. Live breach transitions recorded by the run
/// (`breaches > 0`) always regress: the service already judged itself
/// against its own policy, window by window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBaseline {
    /// Thresholds the soak must hold.
    pub policy: SloPolicy,
    /// Totals of the reference soak this baseline was generated from.
    pub reference: SloReport,
    /// Whether the reference soak ran on a host that could not supply
    /// the modeled parallelism (see [`crate::native_cell_reps`]).
    pub noisy: bool,
}

impl_serde_struct!(SloBaseline {
    policy,
    reference,
    noisy,
});

impl SloBaseline {
    /// Loads a committed `SLO_soak.json`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable, is not JSON, or
    /// does not have the baseline shape.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value: Value = serde::json::from_str(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Self::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Serializes and writes the baseline (pretty-printed, trailing
    /// newline) — how `cnet drive --write-slo-baseline` commits a
    /// reference soak.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = serde::json::to_string_pretty(&self.to_value());
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Judges a run's SLO report against this baseline.
    ///
    /// `run_noisy` marks the measuring host (widens the gate exactly
    /// like the per-op wall-clock comparison).
    #[must_use]
    pub fn compare(&self, run: &SloReport, run_noisy: bool) -> SloComparison {
        let noisy = self.noisy || run_noisy;
        let factor = if noisy {
            NOISY_REGRESSION_FACTOR
        } else {
            REGRESSION_FACTOR
        };
        let base = &self.reference.total;
        let now = &run.total;
        let mut regressions = Vec::new();
        let mut table = ResultTable::new(
            format!(
                "vs SLO baseline (gate = max(policy, {factor}x reference){})",
                if noisy { ", noisy" } else { "" }
            ),
            &["policy", "reference", "now", "verdict"],
        );
        let mut judge = |dim: &str, policy: f64, reference: f64, now_v: f64| {
            let allowed = policy.max(factor * reference);
            let regressed = now_v > allowed;
            table.push_row(
                dim.to_string(),
                vec![
                    format!("{policy:.4}"),
                    format!("{reference:.4}"),
                    format!("{now_v:.4}"),
                    if regressed { "REGRESSED" } else { "ok" }.to_string(),
                ],
            );
            if regressed {
                regressions.push(format!(
                    "{dim}: {now_v:.4} exceeds max(policy {policy:.4}, {factor}x reference {reference:.4})"
                ));
            }
        };
        judge(
            "violation_rate",
            self.policy.max_violation_rate,
            base.violation_rate(),
            now.violation_rate(),
        );
        judge(
            "magnitude_max",
            self.policy.max_magnitude as f64,
            base.magnitude_max as f64,
            now.magnitude_max as f64,
        );
        judge(
            "p99_latency_ns",
            self.policy.p99_latency_ns as f64,
            base.p99_latency_ns() as f64,
            now.p99_latency_ns() as f64,
        );
        if run.breaches > 0 {
            regressions.push(format!(
                "live policy breached {} time(s) during the run (first onsets at {:?} ms)",
                run.breaches, run.breach_timestamps_ms
            ));
        }
        SloComparison { table, regressions }
    }
}

/// The outcome of judging a run against an [`SloBaseline`].
#[derive(Debug, Clone)]
pub struct SloComparison {
    /// The rendered per-dimension verdict table.
    pub table: ResultTable,
    /// Human-readable descriptions of every regressed dimension.
    pub regressions: Vec<String>,
}

impl SloComparison {
    /// Whether every dimension held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::RunRecord;
    use cnet_proteus::{RunStats, Workload};
    use serde::Serialize;

    pub(crate) fn record(label: &str, ops: usize, wall_ms: f64) -> RunRecord {
        let stats = RunStats {
            operations: vec![],
            completed_by: vec![],
            output_counts: cnet_topology::OutputCounts::zeros(2),
            sim_time: 1000,
            toggle_count: 2,
            toggle_wait_total: 20,
            diffraction_pairs: 0,
            node_visits: 2,
            node_wait_total: 20,
            max_lock_queue: 1,
            fabric: cnet_proteus::FabricStats::default(),
            nonlinearizable: 0,
            metrics: None,
        };
        RunRecord::measure(
            label,
            "Bitonic Counting Network",
            &Workload {
                total_ops: ops,
                ..Workload::paper(4, 25, 100)
            },
            42,
            &stats,
            wall_ms,
        )
    }

    pub(crate) fn grid(title: &str, records: Vec<RunRecord>) -> GridReport {
        GridReport {
            title: title.to_string(),
            base_seed: 1,
            threads: 1,
            wall_ms: 0.0,
            records,
        }
    }

    fn report_value(grids: &[GridReport]) -> Value {
        Value::Object(vec![
            ("name".to_string(), "demo".to_value()),
            ("threads".to_string(), 1usize.to_value()),
            ("wall_ms".to_string(), 1.0.to_value()),
            (
                "grids".to_string(),
                Value::Array(grids.iter().map(Serialize::to_value).collect()),
            ),
            ("tables".to_string(), Value::Array(vec![])),
        ])
    }

    #[test]
    fn loads_from_a_written_report() {
        let dir = std::env::temp_dir().join("cnet-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_demo.json");
        let grids = vec![grid("Figure 5", vec![record("W=100,n=4", 5000, 10.0)])];
        std::fs::write(&path, serde::json::to_string_pretty(&report_value(&grids))).unwrap();
        let base = Baseline::load(&path).unwrap();
        assert_eq!(base.name, "demo");
        assert_eq!(base.len(), 1);
        let cell = base.cell("Figure 5", "W=100,n=4").unwrap();
        assert_eq!(cell.total_ops, 5000);
        assert!((cell.wall_ms - 10.0).abs() < 1e-12);
    }

    #[test]
    fn load_failures_are_described() {
        let missing = Baseline::load(Path::new("/nonexistent/BENCH.json")).unwrap_err();
        assert!(missing.contains("cannot read"));
        let dir = std::env::temp_dir().join("cnet-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(Baseline::load(&bad).unwrap_err().contains("not valid JSON"));
        let nogrids = dir.join("nogrids.json");
        std::fs::write(&nogrids, "{\"name\": \"x\"}").unwrap();
        assert!(Baseline::load(&nogrids)
            .unwrap_err()
            .contains("no `grids` array"));
    }

    #[test]
    fn comparison_normalizes_per_op() {
        // baseline at 5000 ops, run at 500 ops, same per-op speed:
        // ratio 1, no regression
        let base = Baseline::from_report(&report_value(&[grid(
            "Figure 5",
            vec![record("W=100,n=4", 5000, 10.0)],
        )]))
        .unwrap();
        let run = [grid("Figure 5", vec![record("W=100,n=4", 500, 1.0)])];
        let cmp = base.compare(&run);
        assert_eq!(cmp.matched, 1);
        assert_eq!(cmp.unmatched, 0);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert!(cmp.table.to_text().contains("1.00x"));
    }

    #[test]
    fn slow_cells_regress_and_fast_cells_do_not() {
        let base = Baseline::from_report(&report_value(&[grid(
            "Figure 5",
            vec![
                record("W=100,n=4", 5000, 10.0),
                record("W=100,n=16", 5000, 10.0),
            ],
        )]))
        .unwrap();
        let run = [grid(
            "Figure 5",
            vec![
                record("W=100,n=4", 5000, 50.0),  // 5x slower: regression
                record("W=100,n=16", 5000, 20.0), // 2x slower: inside the gate
            ],
        )];
        let cmp = base.compare(&run);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("W=100,n=4"));
        assert!(cmp.regressions[0].contains("5.00x"));
    }

    #[test]
    fn noisy_cells_gate_at_the_widened_factor() {
        let mut noisy_base = record("W=100,n=4", 5000, 10.0);
        noisy_base.noisy = true;
        let base = Baseline::from_report(&report_value(&[grid(
            "Figure 5",
            vec![noisy_base, record("W=100,n=16", 5000, 10.0)],
        )]))
        .unwrap();
        // 5x slower: trips the quiet 3x gate but sits inside the noisy
        // 9x gate, whichever side carries the flag
        let mut noisy_run = record("W=100,n=16", 5000, 50.0);
        noisy_run.noisy = true;
        let run = [grid(
            "Figure 5",
            vec![record("W=100,n=4", 5000, 50.0), noisy_run],
        )];
        let cmp = base.compare(&run);
        assert_eq!(cmp.matched, 2);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        // 12x slower trips even the widened gate, and says so
        let run = [grid("Figure 5", vec![record("W=100,n=4", 5000, 120.0)])];
        let cmp = base.compare(&run);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("9x, noisy cell"));
    }

    fn slo_report(violating: &[(u64, u64, u64)], sojourn_ns: u64) -> cnet_obs::SloReport {
        // a clean op, then the caller's (start, end, value) triples
        let mut ev = cnet_obs::SloEvaluator::new(cnet_obs::SloPolicy::unbounded(), 4);
        ev.record(0, 1, 10, sojourn_ns, 0, 0);
        for &(start, end, value) in violating {
            ev.record(start, end, value, sojourn_ns, 0, 0);
        }
        ev.snapshot(1000)
    }

    fn slo_baseline(max_rate: f64) -> SloBaseline {
        SloBaseline {
            policy: cnet_obs::SloPolicy {
                max_violation_rate: max_rate,
                max_magnitude: 4,
                p99_latency_ns: 1 << 14,
            },
            reference: slo_report(&[], 100),
            noisy: false,
        }
    }

    #[test]
    fn slo_gate_passes_a_clean_run() {
        let base = slo_baseline(0.0);
        let cmp = base.compare(&slo_report(&[], 100), false);
        assert!(cmp.passed(), "{:?}", cmp.regressions);
        assert!(cmp.table.to_text().contains("violation_rate"));
    }

    #[test]
    fn slo_gate_trips_on_each_dimension() {
        let base = slo_baseline(0.0);
        // a magnitude-10 violation: rate 0.5 > policy 0, magnitude
        // 10 > policy 4 — two dimensions regress
        let cmp = base.compare(&slo_report(&[(2, 3, 0)], 100), false);
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0].contains("violation_rate"));
        assert!(cmp.regressions[1].contains("magnitude_max"));
        // clean ops but each sojourn blows the p99 budget
        let cmp = base.compare(&slo_report(&[], 1 << 20), false);
        assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
        assert!(cmp.regressions[0].contains("p99_latency_ns"));
    }

    #[test]
    fn slo_gate_widens_against_a_violating_reference() {
        // reference soak itself saw rate 0.5 and magnitude 10; policy
        // tolerates rate 0.6 and magnitude 4
        let base = SloBaseline {
            reference: slo_report(&[(2, 3, 0)], 100),
            ..slo_baseline(0.6)
        };
        // a run at the same rate/magnitude sits within 3x reference,
        // even though magnitude 10 exceeds the policy's 4 on its own
        let cmp = base.compare(&slo_report(&[(2, 3, 0)], 100), false);
        assert!(cmp.passed(), "{:?}", cmp.regressions);
    }

    #[test]
    fn slo_gate_noisy_widening_matches_the_wall_clock_gate() {
        // magnitude is the judged axis: reference saw 10, the run sees
        // 40 — 4x the reference trips the quiet 3x gate
        // (max(policy 4, 3x10) = 30 < 40) but passes the noisy 9x one
        // (max(4, 9x10) = 90 >= 40)
        let reference = slo_report(&[(2, 3, 0)], 100);
        let run = {
            let mut ev = cnet_obs::SloEvaluator::new(cnet_obs::SloPolicy::unbounded(), 4);
            ev.record(0, 1, 40, 100, 0, 0); // finishes holding 40
            ev.record(2, 3, 0, 100, 0, 0); // magnitude-40 violation
            ev.snapshot(1000)
        };
        let quiet = SloBaseline {
            policy: cnet_obs::SloPolicy {
                max_violation_rate: 0.6,
                max_magnitude: 4,
                p99_latency_ns: 1 << 14,
            },
            reference,
            noisy: false,
        };
        let cmp = quiet.compare(&run, false);
        assert!(!cmp.passed(), "3x gate should trip on 4x magnitude");
        let noisy = SloBaseline {
            noisy: true,
            ..quiet.clone()
        };
        let cmp = noisy.compare(&run, false);
        assert!(cmp.passed(), "{:?}", cmp.regressions);
        // the run-side flag widens identically
        let cmp = quiet.compare(&run, true);
        assert!(cmp.passed(), "{:?}", cmp.regressions);
    }

    #[test]
    fn slo_gate_always_trips_on_live_breaches() {
        let base = slo_baseline(1.0);
        // tight live policy: the violating window breaches during the
        // run even though the baseline policy tolerates any rate
        let mut ev = cnet_obs::SloEvaluator::new(
            cnet_obs::SloPolicy {
                max_violation_rate: 0.0,
                max_magnitude: u64::MAX,
                p99_latency_ns: u64::MAX,
            },
            1,
        );
        ev.record(0, 1, 10, 100, 0, 0);
        ev.record(2, 3, 0, 100, 0, 7);
        let run = ev.snapshot(1000);
        assert_eq!(run.breaches, 1);
        let cmp = base.compare(&run, false);
        assert_eq!(cmp.regressions.len(), 2, "{:?}", cmp.regressions);
        assert!(cmp.regressions.iter().any(|r| r.contains("live policy")));
    }

    #[test]
    fn slo_baseline_round_trips_through_save_and_load() {
        let dir = std::env::temp_dir().join("cnet-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("SLO_soak.json");
        let base = slo_baseline(0.25);
        base.save(&path).unwrap();
        let back = SloBaseline::load(&path).unwrap();
        assert_eq!(back, base);
        assert!(std::fs::read_to_string(&path).unwrap().ends_with('\n'));
    }

    #[test]
    fn unmatched_cells_are_counted_not_judged() {
        let base = Baseline::from_report(&report_value(&[grid(
            "Figure 5",
            vec![record("W=100,n=4", 5000, 10.0)],
        )]))
        .unwrap();
        let run = [grid("Figure 6", vec![record("W=100,n=4", 5000, 1000.0)])];
        let cmp = base.compare(&run);
        assert_eq!(cmp.matched, 0);
        assert_eq!(cmp.unmatched, 1);
        assert!(cmp.regressions.is_empty());
    }
}
