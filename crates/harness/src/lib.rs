//! The experiment harness shared by every `cnet-bench` suite and the
//! CLI's simulation paths.
//!
//! The harness owns the concerns the runners used to hand-roll:
//!
//! * **grids** — a declarative [`Grid`] (or an explicit [`Job`] list)
//!   describing a parameter sweep, with each cell's PRNG seed derived
//!   from the experiment base seed and the cell coordinates
//!   ([`seed::derive_seed`]), so no two cells share a jitter stream;
//! * **parallel execution** — [`pool::run_indexed`] fans cells out over
//!   a bounded `std::thread::scope` worker pool and merges results back
//!   into submission order, so a grid's measurements are identical for
//!   any `--threads` value (wall-clock timings are the one exception);
//! * **records** — serde-serializable [`RunRecord`]/[`GridReport`]
//!   summaries of every cell, with per-cell wall-clock, emitted as JSON
//!   next to the aligned-text/CSV tables;
//! * **uniform flags** — [`BenchArgs`] gives every suite the same
//!   `--ops`, `--seed`, `--threads`, `--json <path>` surface, and
//!   refuses the ones a suite does not read;
//! * **native sweeps** — [`NativeSweep`] runs one
//!   [`cnet_engine::BackendSpec`] best-of-N over a list of cells, the
//!   loop the host-time suites share, and owns the open-loop gap
//!   ladder and knee rule (`cnet-bench saturation`, `cnet saturate`).
//!
//! The harness compares no run with another: host time is judged from
//! outside by the repository benchmark (`BENCHMARK.json`,
//! `benchmark/`), behaviour by each suite's own assertions and its
//! committed table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod grid;
pub mod pool;
pub mod record;
pub mod report;
pub mod seed;
pub mod sweep;
pub mod table;

pub use args::BenchArgs;
pub use grid::{run_jobs_report, CellRun, Grid, GridOutcome, Job, NetworkKind};
pub use record::{native_cell_reps, GridReport, RunRecord, SchemaVersion, SCHEMA_VERSION};
pub use report::BenchReport;
pub use seed::{derive_cell_seed, derive_seed};
pub use sweep::{GapLadder, NativeSweep, GAP_LADDER, KNEE_TOLERANCE};
pub use table::{percent, ResultTable};

/// The concurrency levels used throughout the paper's Section 5.
pub const PAPER_CONCURRENCY: [usize; 5] = [4, 16, 64, 128, 256];

/// The wait values `W` used throughout the paper's Section 5.
pub const PAPER_WAITS: [u64; 4] = [100, 1000, 10_000, 100_000];

/// The network width used in the paper's Section 5.
pub const PAPER_WIDTH: usize = 32;
