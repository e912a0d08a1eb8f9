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
//! * `perf`, `native`, `frontend`, `saturation` — host wall-clock
//!   sweeps; their numbers are reported, not judged here (the
//!   repository benchmark under `benchmark/` is what compares host
//!   time between two commits).
//!
//! Flags: `--ops N --seed S --threads T --json PATH`; a suite refuses
//! the ones it does not read. The stdout of a suite whose
//! [`Suite::host_time`] is false is a function of its arguments alone,
//! which `tests/results.rs` holds to the committed tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod native;
mod replay;
mod sim;

use std::io::{self, Write};

use cnet_harness::{run_jobs_report, BenchArgs, BenchReport, CellRun, Job, ResultTable};
use cnet_topology::Topology;

/// One named experiment of the driver.
#[derive(Debug)]
pub struct Suite {
    /// The name on the command line and in `results/`.
    pub name: &'static str,
    /// The published base seed (`--seed` overrides it).
    pub seed: u64,
    /// The harness flags the suite reads; any other is a usage error.
    pub reads: &'static [&'static str],
    /// Whether stdout carries host wall-clock (and so differs run to
    /// run); such a suite is checked by its own assertions only, the
    /// others also byte for byte against `results/<name>.txt`.
    pub host_time: bool,
    body: fn(&mut Run<'_>) -> io::Result<()>,
}

const ALL: &[&str] = &["--ops", "--seed", "--threads", "--json"];
/// Fixed constructions: nothing to size and nothing to seed.
const REPLAY: &[&str] = &["--threads", "--json"];
/// Real-thread sweeps over the native counters: each cell spawns its
/// own client threads. The suites on this surface are the ones
/// [`DriveError::LiveProbes`] guards.
const NATIVE: &[&str] = &["--ops", "--seed", "--json"];

/// The registry, in the order EXPERIMENTS.md presents the results.
pub static SUITES: [Suite; 17] = [
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
    suite("perf", 0x9EBF, ALL, true, sim::perf),
    suite("native", 0x7A7E, NATIVE, true, native::native),
    suite("frontend", 0xF207, NATIVE, true, native::frontend),
    suite("saturation", 0x5A70, NATIVE, true, native::saturation),
];

const fn suite(
    name: &'static str,
    seed: u64,
    reads: &'static [&'static str],
    host_time: bool,
    body: fn(&mut Run<'_>) -> io::Result<()>,
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
    args: BenchArgs,
    /// The base seed: `--seed`, or the suite's published default.
    seed: u64,
    out: &'a mut dyn Write,
    report: BenchReport,
}

impl Run<'_> {
    /// Runs an explicit job list on the harness pool and records the
    /// sweep in the report.
    fn jobs(&mut self, title: &str, nets: &[Topology], jobs: &[Job]) -> Vec<CellRun> {
        let (cells, grid) = run_jobs_report(title, self.seed, nets, jobs, self.args.threads);
        self.report.push_grid(grid);
        cells
    }

    /// Prints `table` as aligned text and records it in the report.
    fn table(&mut self, table: &ResultTable) -> io::Result<()> {
        self.report.push_table(table);
        writeln!(self.out, "{}", table.to_text())
    }

    /// [`Run::table`], then the same table as CSV.
    fn table_csv(&mut self, table: &ResultTable) -> io::Result<()> {
        self.table(table)?;
        writeln!(self.out, "{}", table.to_csv())
    }
}

/// The table most sweeps print: one row per cell, labelled by the cell.
fn cell_table(
    title: impl Into<String>,
    columns: &[&str],
    cells: &[CellRun],
    row: impl Fn(&CellRun) -> Vec<String>,
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
    /// A malformed invocation; the message ends with the usage line of
    /// the suite, or with the registry when no suite was named.
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
    let args = BenchArgs::parse_from(suite.name, suite.reads, flags).map_err(|msg| {
        let usage = BenchArgs::usage(suite.name, suite.reads);
        DriveError::Usage(format!("{msg}\n{usage}"))
    })?;
    if cnet_engine::PROBES_LIVE && suite.reads == NATIVE {
        return Err(DriveError::LiveProbes(suite.name));
    }
    let mut run = Run {
        seed: args.seed.unwrap_or(suite.seed),
        report: BenchReport::new(suite.name, args.threads),
        args,
        out,
    };
    (suite.body)(&mut run)?;
    Ok(run.report.emit(&run.args)?)
}
