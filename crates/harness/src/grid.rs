//! Declarative parameter sweeps and their parallel executor.

use std::time::Instant;

use cnet_engine::{Backend, RunRecord, RunStats, WaitMode, Workload};
use cnet_proteus::{SimBackend, SimConfig};
use cnet_topology::{constructions, Topology};

use crate::record::GridReport;
use crate::seed::derive_cell_seed;
use crate::table::{percent, ResultTable};
use crate::{pool, PAPER_CONCURRENCY, PAPER_WAITS, PAPER_WIDTH};

/// Which of the paper's two network implementations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// `Bitonic[w]` with queue-lock balancers.
    Bitonic,
    /// The diffracting tree (prism arrays + queue-lock toggles).
    DiffractingTree,
}

impl NetworkKind {
    /// Human-readable label used in tables and records.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetworkKind::Bitonic => "Bitonic Counting Network",
            NetworkKind::DiffractingTree => "Diffracting Tree",
        }
    }

    /// Builds the width-`width` network of this kind.
    ///
    /// # Panics
    ///
    /// Panics on a width the construction rejects (non-power-of-two).
    #[must_use]
    pub fn build(self, width: usize) -> Topology {
        match self {
            NetworkKind::Bitonic => constructions::bitonic(width).expect("valid width"),
            NetworkKind::DiffractingTree => {
                constructions::counting_tree(width).expect("valid width")
            }
        }
    }

    /// The simulator configuration the paper pairs with this network.
    #[must_use]
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            NetworkKind::Bitonic => SimConfig::queue_lock(seed),
            NetworkKind::DiffractingTree => SimConfig::diffracting(seed),
        }
    }
}

/// One fully specified simulator run: a network (by index into the
/// topology slab handed to [`run_jobs_report`]), a configuration whose
/// seed is already derived, and a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Cell label within the sweep (e.g. `"W=100,n=4"`).
    pub label: String,
    /// Network description recorded in the cell's [`RunRecord`].
    pub kind: String,
    /// Index into the `nets` slice passed to [`run_jobs_report`].
    pub net: usize,
    /// Simulator configuration (with the derived per-cell seed).
    pub config: SimConfig,
    /// The workload to run.
    pub workload: Workload,
}

/// Executes `jobs` over `threads` workers and returns, in submission
/// order and independent of the thread count, what `keep` made of each
/// cell, beside the sweep's [`GridReport`].
///
/// The worker that ran a cell builds its [`RunRecord`] (into
/// `report.records`, in the same order as the returned vector) and then
/// hands the cell's [`RunStats`] to `keep` before it takes the next job.
/// The operation trace is dropped there unless `keep` returns it, so at
/// most `threads` traces are alive at once. [`Grid::run`] keeps
/// nothing; `cnet-bench`'s `consistency` and `fabric` suites keep the
/// few numbers they read off the trace.
///
/// # Panics
///
/// Panics if a job's `net` index is out of bounds for `nets`.
#[must_use]
pub fn run_jobs_report<K, F>(
    title: &str,
    base_seed: u64,
    nets: &[Topology],
    jobs: &[Job],
    threads: usize,
    keep: F,
) -> (Vec<K>, GridReport)
where
    K: Send,
    F: Fn(RunStats) -> K + Sync,
{
    let started = Instant::now();
    let cells = pool::run_indexed(jobs.len(), threads, |i| {
        let job = &jobs[i];
        // the engine's simulator backend reproduces the cell timing
        // window this executor always had: simulation + metric
        // *recording* inside, snapshot export outside — this is what
        // the perf baselines and the obs-on overhead numbers in
        // EXPERIMENTS.md measure
        let outcome = SimBackend::new(&nets[job.net], job.config).run(&job.workload);
        let record = RunRecord::from_outcome(
            job.label.clone(),
            job.kind.clone(),
            &job.workload,
            job.config.seed,
            &outcome,
        );
        (record, keep(outcome.stats))
    });
    let (records, kept) = cells.into_iter().unzip();
    let report = GridReport {
        title: title.to_string(),
        base_seed,
        threads,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        records,
    };
    (kept, report)
}

/// A declarative `(W, n)` sweep over one network kind — the shape of
/// the paper's Figures 5–7 and of the control/ablation variants.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Sweep title (used for the printed table and the report).
    pub title: String,
    /// Which network to run.
    pub kind: NetworkKind,
    /// Network width.
    pub width: usize,
    /// Delayed fraction `F` in percent.
    pub delayed_percent: u32,
    /// The `W` values (table rows).
    pub wait_values: Vec<u64>,
    /// The `n` values (table columns).
    pub concurrency: Vec<usize>,
    /// Operations per cell.
    pub total_ops: usize,
    /// Fixed or uniform-random waits.
    pub wait_mode: WaitMode,
    /// Experiment base seed; each cell derives its own from it.
    pub base_seed: u64,
}

impl Grid {
    /// The paper's Section 5 grid: width 32,
    /// `W ∈ {100, 1000, 10000, 100000}`, `n ∈ {4, 16, 64, 128, 256}`.
    #[must_use]
    pub fn paper(
        kind: NetworkKind,
        delayed_percent: u32,
        total_ops: usize,
        base_seed: u64,
    ) -> Self {
        Grid {
            title: kind.label().to_string(),
            kind,
            width: PAPER_WIDTH,
            delayed_percent,
            wait_values: PAPER_WAITS.to_vec(),
            concurrency: PAPER_CONCURRENCY.to_vec(),
            total_ops,
            wait_mode: WaitMode::Fixed,
            base_seed,
        }
    }

    /// The cells of this grid, rows (`W`) outer, columns (`n`) inner,
    /// each with its own derived seed.
    #[must_use]
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.wait_values.len() * self.concurrency.len());
        for &wait_cycles in &self.wait_values {
            for &processors in &self.concurrency {
                let seed = derive_cell_seed(
                    self.base_seed,
                    self.kind.label(),
                    self.delayed_percent,
                    wait_cycles,
                    processors,
                );
                jobs.push(Job {
                    label: format!("W={wait_cycles},n={processors}"),
                    kind: self.kind.label().to_string(),
                    net: 0,
                    config: self.kind.config(seed),
                    workload: Workload {
                        total_ops: self.total_ops,
                        wait_mode: self.wait_mode,
                        ..Workload::paper(processors, self.delayed_percent, wait_cycles)
                    },
                });
            }
        }
        jobs
    }

    /// Runs the whole grid over `threads` workers and keeps each
    /// cell's [`RunRecord`] only: every cell's trace is dropped in the
    /// worker that ran it ([`run_jobs_report`]).
    #[must_use]
    pub fn run(&self, threads: usize) -> GridOutcome {
        let nets = [self.kind.build(self.width)];
        let (_, report) = run_jobs_report(
            &self.title,
            self.base_seed,
            &nets,
            &self.jobs(),
            threads,
            drop,
        );
        GridOutcome {
            wait_values: self.wait_values.clone(),
            concurrency: self.concurrency.clone(),
            report,
        }
    }
}

/// A finished grid run: the sweep axes (for table layout) and the
/// serializable report, whose `records` are the cells, rows outer,
/// columns inner. It holds no operation trace; a caller that needs one
/// runs [`Grid::jobs`] through [`run_jobs_report`] with a `keep` that
/// returns it.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// The `W` axis, in row order.
    pub wait_values: Vec<u64>,
    /// The `n` axis, in column order.
    pub concurrency: Vec<usize>,
    /// The serializable report, one record per cell.
    pub report: GridReport,
}

impl GridOutcome {
    /// The cell at `(W, n)`.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are not part of the grid.
    #[must_use]
    pub fn cell(&self, wait_cycles: u64, processors: usize) -> &RunRecord {
        self.report
            .records
            .iter()
            .find(|r| r.wait_cycles == wait_cycles && r.processors == processors)
            .expect("coordinates inside the grid")
    }

    /// The non-linearizability-ratio table (Figures 5/6): one row per
    /// `W`, one column per `n`.
    #[must_use]
    pub fn ratio_table(&self, title: &str) -> ResultTable {
        self.table(title, |r| percent(r.stats.nonlinearizable_ratio))
    }

    /// The average-`c2/c1` table (Figure 7).
    #[must_use]
    pub fn average_ratio_table(&self, title: &str) -> ResultTable {
        self.table(title, |r| format!("{:.2}", r.stats.average_ratio))
    }

    fn table(&self, title: &str, cell: impl Fn(&RunRecord) -> String) -> ResultTable {
        let columns: Vec<String> = self.concurrency.iter().map(|n| format!("n={n}")).collect();
        let mut table = ResultTable::new(title, &columns);
        for &w in &self.wait_values {
            let row = self
                .concurrency
                .iter()
                .map(|&n| cell(self.cell(w, n)))
                .collect();
            table.push_row(format!("W={w}"), row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid(kind: NetworkKind) -> Grid {
        Grid {
            title: "tiny".to_string(),
            wait_values: vec![100, 1000],
            concurrency: vec![4, 8],
            width: 8,
            total_ops: 200,
            ..Grid::paper(kind, 50, 200, 0xD0)
        }
    }

    #[test]
    fn kinds_build_their_networks() {
        assert_eq!(NetworkKind::Bitonic.build(8).depth(), 6);
        assert_eq!(NetworkKind::DiffractingTree.build(8).depth(), 3);
        assert!(NetworkKind::Bitonic.config(0).prism.is_none());
        assert!(NetworkKind::DiffractingTree.config(0).prism.is_some());
    }

    #[test]
    fn grid_covers_all_cells_with_distinct_seeds() {
        let grid = tiny_grid(NetworkKind::Bitonic);
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 4);
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.config.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "every cell gets its own seed");
        let outcome = grid.run(1);
        assert_eq!(outcome.report.records.len(), 4);
        for record in &outcome.report.records {
            assert_eq!(record.stats.completed_ops, 200);
        }
        let t = outcome.ratio_table("t");
        assert!(t.to_text().contains("W=1000"));
        let t = outcome.average_ratio_table("t");
        assert!(t.to_csv().contains("n=8"));
    }

    #[test]
    fn parallel_grid_matches_sequential_cell_for_cell() {
        // The satellite determinism check: a 2x2, 200-op grid must be
        // identical cell-for-cell whether run on 1 worker or many.
        for kind in [NetworkKind::Bitonic, NetworkKind::DiffractingTree] {
            let grid = tiny_grid(kind);
            let sequential = grid.run(1);
            for threads in [2, 4, 8] {
                let parallel = grid.run(threads);
                assert_eq!(
                    parallel.report.canonical(),
                    sequential.report.canonical(),
                    "{} at {threads} threads",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn grid_run_and_job_list_share_one_executor() {
        // `Grid::run` is `run_jobs_report` over `Grid::jobs`: the two
        // entry points must not drift apart
        for kind in [NetworkKind::Bitonic, NetworkKind::DiffractingTree] {
            let grid = tiny_grid(kind);
            let nets = [kind.build(grid.width)];
            for threads in [1, 4] {
                let (kept, report) = run_jobs_report(
                    &grid.title,
                    grid.base_seed,
                    &nets,
                    &grid.jobs(),
                    threads,
                    |stats| stats.operations.len(),
                );
                assert_eq!(kept, vec![200; 4], "{} at {threads}", kind.label());
                assert_eq!(
                    grid.run(threads).report.canonical(),
                    report.canonical(),
                    "{} at {threads} threads",
                    kind.label()
                );
            }
        }
    }
}
