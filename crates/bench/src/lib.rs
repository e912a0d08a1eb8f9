//! The bench driver: every table and figure of the paper's evaluation
//! as a named suite of one binary, `cnet-bench <suite>`.
//!
//! A suite re-runs its experiment through the shared [`cnet_harness`]
//! crate and writes the measured series to stdout as aligned text
//! tables (the artifacts committed as `results/<suite>.txt`) and CSV,
//! plus a machine-readable `results/BENCH_<suite>.json`. [`SUITES`] is
//! the registry — `cnet-bench list` prints it — and [`drive`] is the
//! whole program short of the process exit code:
//!
//! * `figure5` / `figure6` — non-linearizability ratios, `F = 25% / 50%`;
//! * `figure7` — the average `c2/c1 = (Tog + W)/Tog` table;
//! * `controls` — the paper's control runs, all violation-free;
//! * `section4`, `threshold`, `ablation_prefix` — the adversarial
//!   executions of Section 4 replayed through the timed executor;
//! * `consistency`, `scaling`, `ablation_balancer`, `ablation_jitter`,
//!   `ablation_prism`, `fabric` — simulator sweeps beyond the figures;
//! * `native`, `frontend`, `saturation` — host wall-clock sweeps over
//!   the native counters; their numbers are reported, not judged here
//!   (the repository benchmark under `benchmark/` is what compares
//!   host time between two commits).
//!
//! Flags: `--ops N --seed S --threads T --json PATH`, parsed by the
//! `cnet` grammar ([`ParsedArgs`]); a suite refuses the ones it does
//! not read. The stdout of a suite whose
//! [`Suite::host_time`] is false is a function of its arguments alone,
//! which `tests/results.rs` holds to the committed tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod native;
mod replay;
mod sim;

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use cnet_engine::{RunRecord, RunStats, Workload, WorkloadError};
use cnet_harness::{
    run_jobs_report, BenchReport, CliError, Job, ParsedArgs, ResultTable, SweepError,
};
use cnet_topology::Topology;

/// One named experiment of the driver.
#[derive(Debug)]
pub struct Suite {
    /// The name on the command line and in `results/`.
    pub name: &'static str,
    /// The published base seed (`--seed` overrides it).
    pub seed: u64,
    /// The flags the suite reads, of [`FLAGS`]; any other is a usage
    /// error.
    pub reads: &'static [&'static str],
    /// Whether stdout carries host wall-clock (and so differs run to
    /// run); such a suite is checked by its own assertions only, the
    /// others also byte for byte against `results/<name>.txt`.
    pub host_time: bool,
    body: fn(&mut Run<'_>) -> Result<(), DriveError>,
}

/// Every flag a suite can read, with its value placeholder, in usage
/// order.
pub const FLAGS: [(&str, &str); 4] = [
    ("ops", "N"),
    ("seed", "S"),
    ("threads", "T"),
    ("json", "PATH"),
];

const ALL: &[&str] = &["ops", "seed", "threads", "json"];
/// Fixed constructions: nothing to size and nothing to seed.
const REPLAY: &[&str] = &["threads", "json"];
/// Real-thread sweeps over the native counters: each cell spawns its
/// own client threads. The suites on this surface are the ones
/// [`DriveError::LiveProbes`] guards.
const NATIVE: &[&str] = &["ops", "seed", "json"];

/// The registry, in the order EXPERIMENTS.md presents the results.
pub static SUITES: [Suite; 16] = [
    suite("figure5", 0xF165, ALL, false, sim::figure5),
    suite("figure6", 0xF166, ALL, false, sim::figure6),
    suite("figure7", 0xF167, ALL, false, sim::figure7),
    suite("controls", 0xC0, ALL, false, sim::controls),
    suite("section4", 0, REPLAY, false, replay::section4),
    suite("consistency", 0xCC, ALL, false, sim::consistency),
    suite("scaling", 0x5C, ALL, false, sim::scaling),
    suite("threshold", 0, REPLAY, false, replay::threshold),
    suite("ablation_prefix", 0xA9, ALL, false, replay::ablation_prefix),
    suite("ablation_prism", 0xAB, ALL, false, sim::ablation_prism),
    suite(
        "ablation_balancer",
        0xBA,
        ALL,
        false,
        sim::ablation_balancer,
    ),
    suite("ablation_jitter", 0xA1, ALL, false, sim::ablation_jitter),
    suite("fabric", 0xFAB, ALL, false, sim::fabric),
    suite("native", 0x7A7E, NATIVE, true, native::native),
    suite("frontend", 0xF207, NATIVE, true, native::frontend),
    suite("saturation", 0x5A70, NATIVE, true, native::saturation),
];

const fn suite(
    name: &'static str,
    seed: u64,
    reads: &'static [&'static str],
    host_time: bool,
    body: fn(&mut Run<'_>) -> Result<(), DriveError>,
) -> Suite {
    Suite {
        name,
        seed,
        reads,
        host_time,
        body,
    }
}

/// One invocation of a suite: its arguments, where its tables go, and
/// the report they accumulate in.
struct Run<'a> {
    /// Operations per cell (`--ops`, default 5000 — the paper's count).
    ops: usize,
    /// Worker threads (`--threads`, default 1). Any value produces the
    /// same measurements; more threads only change wall-clock.
    threads: usize,
    /// The base seed: `--seed`, or the suite's published default.
    seed: u64,
    out: &'a mut dyn Write,
    report: BenchReport,
}

/// One executed cell of a suite: its record and what the suite kept of
/// its trace (`()` for every suite but `consistency` and `fabric`).
struct Cell<K> {
    record: RunRecord,
    kept: K,
}

impl Run<'_> {
    /// Runs an explicit job list on the harness pool, records the sweep
    /// in the report, and returns each cell's record beside what `keep`
    /// made of its stats in the worker that ran it ([`run_jobs_report`]).
    fn jobs<K: Send>(
        &mut self,
        title: &str,
        nets: &[Topology],
        jobs: &[Job],
        keep: impl Fn(RunStats) -> K + Sync,
    ) -> Vec<Cell<K>> {
        let (kept, grid) = run_jobs_report(title, self.seed, nets, jobs, self.threads, keep);
        let cells = grid
            .records
            .iter()
            .cloned()
            .zip(kept)
            .map(|(record, kept)| Cell { record, kept })
            .collect();
        self.report.push_grid(grid);
        cells
    }

    /// Prints `table` as aligned text and records it in the report.
    fn table(&mut self, table: &ResultTable) -> Result<(), DriveError> {
        self.report.push_table(table);
        Ok(writeln!(self.out, "{}", table.to_text())?)
    }

    /// [`Run::table`], then the same table as CSV.
    fn table_csv(&mut self, table: &ResultTable) -> Result<(), DriveError> {
        self.table(table)?;
        Ok(writeln!(self.out, "{}", table.to_csv())?)
    }
}

/// The table most sweeps print: one row per cell, labelled by the cell.
fn cell_table<K>(
    title: impl Into<String>,
    columns: &[&str],
    cells: &[Cell<K>],
    row: impl Fn(&Cell<K>) -> Vec<String>,
) -> ResultTable {
    let mut table = ResultTable::new(title, columns);
    for cell in cells {
        table.push_row(cell.record.label.clone(), row(cell));
    }
    table
}

/// Why [`drive`] ran no suite to the end.
#[derive(Debug)]
pub enum DriveError {
    /// A malformed invocation, or one whose cells no run can hold. The
    /// message names what was refused; a flag the suite does not read
    /// comes with the suite's usage line, an unknown suite with the
    /// registry.
    Usage(String),
    /// Writing the tables or the JSON report failed.
    Io(io::Error),
    /// The named suite times native counters, and this binary was built
    /// with the live probe layer ([`cnet_engine::PROBES_LIVE`]): every
    /// number it printed would be the probes' clock reads, not the
    /// operation. Build with `cargo build --release -p cnet-bench`
    /// alone — an invocation that also builds `cnet-cli` unifies the
    /// `obs` feature into this crate.
    LiveProbes(&'static str),
}

impl From<io::Error> for DriveError {
    fn from(e: io::Error) -> Self {
        DriveError::Io(e)
    }
}

/// A flag the grammar refuses is a malformed invocation.
impl From<CliError> for DriveError {
    fn from(e: CliError) -> Self {
        DriveError::Usage(e.to_string())
    }
}

/// A native cell the workload check refuses is a malformed invocation.
impl From<SweepError> for DriveError {
    fn from(e: SweepError) -> Self {
        DriveError::Usage(e.to_string())
    }
}

/// Runs `cnet-bench <argv>` with `out` as its stdout: `list`, or a
/// suite followed by its flags.
///
/// # Errors
///
/// Returns [`DriveError::Usage`] or [`DriveError::LiveProbes`] before
/// anything ran, or [`DriveError::Io`] when an output could not be
/// written.
///
/// # Panics
///
/// Panics when a suite's own assertion fails (a run that lost tokens,
/// an atlas sweep without a knee); nothing is written to `results/`
/// then.
pub fn drive(argv: &[String], out: &mut dyn Write) -> Result<(), DriveError> {
    let names = || SUITES.each_ref().map(|s| s.name).join(" ");
    let Some((name, flags)) = argv.split_first() else {
        return Err(DriveError::Usage(format!(
            "name a suite, or `list`\nusage: cnet-bench <suite> [flags]\nsuites: {}",
            names()
        )));
    };
    if name == "list" && flags.is_empty() {
        for suite in &SUITES {
            writeln!(out, "{}", suite.name)?;
        }
        return Ok(());
    }
    let Some(suite) = SUITES.iter().find(|s| s.name == name) else {
        return Err(DriveError::Usage(format!(
            "unknown suite `{name}`\nsuites: {}",
            names()
        )));
    };
    let command = format!("cnet-bench {}", suite.name);
    let synopsis: Vec<String> = FLAGS
        .iter()
        .filter(|(flag, _)| suite.reads.contains(flag))
        .map(|(flag, value)| format!("[--{flag} {value}]"))
        .collect();
    let args = ParsedArgs::parse(flags, &command, &synopsis.join(" "), suite.reads)?;
    if let Some(extra) = args.positional_opt(0) {
        return Err(DriveError::Usage(format!(
            "`{command}` takes no argument `{extra}`"
        )));
    }
    let ops = args.num("ops")?.unwrap_or(5000);
    let threads = args.num("threads")?.unwrap_or(1);
    if ops == 0 {
        return Err(DriveError::Usage(
            "--ops must be at least 1 (a 0-op sweep measures nothing)".into(),
        ));
    }
    if ops > Workload::MAX_OPS {
        return Err(DriveError::Usage(format!(
            "--ops {ops}: {}",
            WorkloadError::TooManyOps
        )));
    }
    if threads == 0 {
        return Err(DriveError::Usage("--threads must be at least 1".into()));
    }
    // the report goes to --json, or into `results/` when the working
    // directory has one
    let json = args.str_opt("json").map(PathBuf::from).or_else(|| {
        let results = Path::new("results");
        results
            .is_dir()
            .then(|| results.join(format!("BENCH_{}.json", suite.name)))
    });
    if cnet_engine::PROBES_LIVE && suite.reads == NATIVE {
        return Err(DriveError::LiveProbes(suite.name));
    }
    let mut run = Run {
        ops,
        threads,
        seed: args.num("seed")?.unwrap_or(suite.seed),
        report: BenchReport::new(suite.name, threads),
        out,
    };
    (suite.body)(&mut run)?;
    Ok(run.report.emit(json.as_deref())?)
}
