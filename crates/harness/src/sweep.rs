//! The best-of-N sweep shared by the host-time suites (`native`,
//! `frontend`, `saturation`): one [`BackendSpec`] over a list of
//! cells, the fastest run of each recorded — and the open-loop gap
//! ladder with its knee rule, shared by the `saturation` suite and
//! `cnet saturate`.

use std::fmt;
use std::time::Instant;

use cnet_engine::{ArrivalProcess, RunRecord, SpecError, Workload, WorkloadError};
use cnet_obs::OpenLoopMetrics;
use cnet_topology::Topology;

use crate::record::{native_cell_reps, GridReport};
use crate::table::ResultTable;
use crate::BackendSpec;

/// Mean inter-arrival gaps of an open-loop saturation sweep,
/// nanoseconds, subcritical first. The offered rate of a cell is
/// ≈ 10^9 / gap operations per second; the bottom of the ladder offers
/// well past the serialized service rate (~4 Mops/s on the reference
/// host), so every sweep crosses its knee.
pub const GAP_LADDER: [u64; 8] = [16_000, 4_000, 1_000, 500, 250, 125, 60, 30];

/// A sweep's knee is the smallest gap whose completion span stayed
/// within this factor of the arrival span.
pub const KNEE_TOLERANCE: f64 = 1.25;

/// One finished [`NativeSweep::gap_ladder`].
#[derive(Debug, Clone)]
pub struct GapLadder {
    /// The sweep's report; record `i` is the cell of `GAP_LADDER[i]`.
    pub grid: GridReport,
    /// The open-loop curve, one row per gap.
    pub curve: ResultTable,
    knee: Option<usize>,
}

impl GapLadder {
    /// The knee: the smallest gap still inside [`KNEE_TOLERANCE`], with
    /// its open-loop block — `None` when every gap saturated.
    #[must_use]
    pub fn knee(&self) -> Option<(u64, &OpenLoopMetrics)> {
        let open = self.grid.records[self.knee?].open_loop.as_ref();
        Some((GAP_LADDER[self.knee?], open.expect("checked by gap_ladder")))
    }
}

/// Why a [`NativeSweep`] stopped before its last cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The network cannot host the sweep's spec.
    Spec(SpecError),
    /// [`Workload::check`] refused the cell under this label.
    Cell {
        /// The cell's label, as its record would have carried it.
        label: String,
        /// Why the check refused it.
        error: WorkloadError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(e) => e.fmt(f),
            SweepError::Cell { label, error } => write!(f, "cell {label}: {error}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A histogram bound in nanoseconds as microseconds, one decimal.
#[must_use]
pub fn micros(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// One sweep of a native bench: which backend, over which network,
/// under which titles.
#[derive(Debug, Clone, Copy)]
pub struct NativeSweep<'a> {
    /// Sweep title (the grid the report files the cells under).
    pub title: &'a str,
    /// Network description recorded in every cell.
    pub kind: &'a str,
    /// The network every cell runs over.
    pub net: &'a Topology,
    /// The backend every cell builds, freshly, from its own seed.
    pub spec: &'a BackendSpec,
    /// Runs per cell; the fastest is recorded — the standard defense
    /// against scheduler noise on shared runners. A cell the host
    /// cannot give its parallelism ([`native_cell_reps`]) takes at
    /// least five.
    pub best_of: usize,
    /// Base seed the report declares (the caller derives each cell's
    /// seed from it, see [`crate::derive_cell_seed`]).
    pub base_seed: u64,
    /// Worker threads the report declares.
    pub threads: usize,
}

impl NativeSweep<'_> {
    /// Runs every `(label, seed, workload)` cell and assembles the
    /// grid report, records in cell order.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] when the network cannot host the
    /// spec, and [`SweepError::Cell`] for the first cell whose workload
    /// [`Workload::check`] refuses; the cells before it have run.
    ///
    /// # Panics
    ///
    /// Panics if a run loses the counting property.
    pub fn run(
        &self,
        cells: impl IntoIterator<Item = (String, u64, Workload)>,
    ) -> Result<GridReport, SweepError> {
        let title = self.title;
        let started = Instant::now();
        let mut records = Vec::new();
        for (label, seed, workload) in cells {
            let reps = native_cell_reps(self.spec.client_threads(&workload), self.best_of);
            let workload = match workload.check() {
                Ok(workload) => workload,
                Err(error) => return Err(SweepError::Cell { label, error }),
            };
            let backend = self.spec.build(self.net, seed).map_err(SweepError::Spec)?;
            if reps > self.best_of {
                eprintln!("note: {title} {label}: single hardware thread, best-of-{reps}");
            }
            let mut best: Option<RunRecord> = None;
            for _ in 0..reps {
                let outcome = backend.run_checked(&workload);
                assert!(
                    outcome.counts_exactly(),
                    "{title} {label}: counting property violated"
                );
                let record =
                    RunRecord::from_outcome(label.as_str(), self.kind, &workload, seed, &outcome);
                if best.as_ref().is_none_or(|b| record.wall_ms < b.wall_ms) {
                    best = Some(record);
                }
            }
            records.push(best.expect("reps >= 1"));
        }
        Ok(GridReport {
            title: title.to_string(),
            base_seed: self.base_seed,
            threads: self.threads,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            records,
        })
    }

    /// Sweeps [`GAP_LADDER`] with open arrivals — `ops` operations per
    /// gap over `clients` logical clients, cell `i` seeded `seed(i)` —
    /// and locates the knee.
    ///
    /// # Errors
    ///
    /// As for [`NativeSweep::run`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's runs carry no open-loop telemetry (only the
    /// async executor schedules open arrivals).
    pub fn gap_ladder(
        &self,
        curve_title: String,
        clients: usize,
        ops: usize,
        seed: impl Fn(usize) -> u64,
    ) -> Result<GapLadder, SweepError> {
        let cells = GAP_LADDER.iter().enumerate().map(|(i, &gap)| {
            let workload = Workload {
                total_ops: ops,
                arrival: ArrivalProcess::Open { mean_gap: gap },
                ..Workload::paper(clients, 0, 0)
            };
            (format!("gap={gap}ns"), seed(i), workload)
        });
        let grid = self.run(cells)?;
        let mut curve = ResultTable::new(
            curve_title,
            &[
                "offered kops/s",
                "achieved kops/s",
                "lag",
                "p50 us",
                "p99 us",
                "saturated",
            ],
        );
        let mut knee = None;
        for (i, record) in grid.records.iter().enumerate() {
            let open = record
                .open_loop
                .as_ref()
                .expect("open-loop async runs carry telemetry");
            let saturated = open.is_saturated(KNEE_TOLERANCE);
            curve.push_row(
                record.label.clone(),
                vec![
                    format!("{:.1}", open.offered_rate() / 1e3),
                    format!("{:.1}", open.achieved_rate() / 1e3),
                    format!("{:.3}", open.lag_ratio()),
                    micros(open.latency.quantile_upper_bound(0.50)),
                    micros(open.latency.quantile_upper_bound(0.99)),
                    if saturated { "yes" } else { "no" }.to_string(),
                ],
            );
            // the ladder descends, so the last unsaturated gap is the smallest
            if !saturated {
                knee = Some(i);
            }
        }
        Ok(GapLadder { grid, curve, knee })
    }
}
