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
//! * **reports** — a serde-serializable [`GridReport`] over every
//!   cell's [`RunRecord`] (the engine's record of a run), with per-cell
//!   wall-clock, emitted as JSON next to the aligned-text/CSV tables;
//! * **one command-line grammar** — [`ParsedArgs`] parses the
//!   arguments of every `cnet` command and every `cnet-bench` suite
//!   against the options it reads, and refuses any other by name;
//! * **the backend registry** — [`BackendSpec`] names every backend
//!   family, the simulator's and the engine's native ones, as one
//!   parseable value (`sim`, `shm-batch:8`, `async`, …);
//! * **native sweeps** — [`NativeSweep`] runs one
//!   [`BackendSpec`] best-of-N over a list of cells, the
//!   loop the host-time suites share, and owns the open-loop gap
//!   ladder and knee rule (`cnet-bench saturation`).
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
pub mod spec;
pub mod sweep;
pub mod table;

pub use args::{CliError, ParsedArgs};
pub use grid::{run_jobs_report, Grid, GridOutcome, Job, NetworkKind};
// the engine's record under the name the repository benchmark imports
pub use cnet_engine::RunRecord;
pub use record::{native_cell_reps, GridReport};
pub use report::BenchReport;
pub use seed::{derive_cell_seed, derive_seed};
pub use spec::BackendSpec;
pub use sweep::{GapLadder, NativeSweep, SweepError, GAP_LADDER, KNEE_TOLERANCE};
pub use table::{percent, ResultTable};

/// The concurrency levels used throughout the paper's Section 5.
pub const PAPER_CONCURRENCY: [usize; 5] = [4, 16, 64, 128, 256];

/// The wait values `W` used throughout the paper's Section 5.
pub const PAPER_WAITS: [u64; 4] = [100, 1000, 10_000, 100_000];

/// The network width used in the paper's Section 5.
pub const PAPER_WIDTH: usize = 32;
