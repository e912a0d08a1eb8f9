//! The `cnet` command-line tool.
//!
//! Every subcommand is a pure function from parsed arguments to a
//! report string, so the whole CLI is unit-testable; `main` only parses
//! `std::env::args`, dispatches, and prints.
//!
//! ```text
//! cnet topo <kind> <width> [--pad N] [--arity D] [--dot]
//! cnet measure <kind> <width> --c1 C1 --c2 C2 [--json PATH]
//! cnet simulate <kind> <width> --n N --f PCT --w CYCLES [--ops N] [--prism] [--seed S] [--threads T] [--json PATH]
//! cnet run <kind> <width> [--backend FLAVOR,...] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--open GAP | --bursty B,GAP | --trace FILE] [--seed S] [--json PATH]
//! cnet scenario <file.json> [--json PATH]
//! cnet saturate <kind> <width> [--n N] [--ops N] [--threads T] [--seed S] [--json PATH]
//! cnet observe [kind] [--width W] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--prism] [--seed S] [--json [PATH]]
//! cnet attack <intro|tree|bitonic|wave> --width W --c1 C1 --c2 C2 [--svg]
//! cnet threshold <kind> <width> --c1 C1 --c2 C2 [--json PATH]
//! cnet check <trace.csv>
//! cnet run-schedule <kind> <width> <schedule.csv> [--svg]
//! cnet serve <kind> <width> --socket PATH [--window OPS] [--slo RATE,MAG,P99NS] [--dump PATH]
//! cnet drive --socket PATH [--clients N] [--rate REQ_PER_S] [--duration SECS] [--baseline PATH]
//! ```
//!
//! Exit codes: 0 success, 2 usage/operation failure, 3 a `drive` run
//! regressed its committed SLO baseline, 4 a `serve` lifetime ended in
//! breach of its live SLO policy.
//!
//! Network kinds: `bitonic`, `periodic`, `tree`, `merger`, `block`,
//! `single`. Backend flavors: the grammar of
//! [`cnet_engine::BackendSpec`], which `cnet help` prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod scenario;

pub use args::{CliError, ParsedArgs};

/// Parses raw arguments (without the program name) and runs the
/// requested subcommand, returning its report.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage or a failed operation.
pub fn run(raw: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = raw.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    let args = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "topo" => commands::topo(&args),
        "measure" => commands::measure(&args),
        "simulate" => commands::simulate(&args),
        "run" => commands::run(&args),
        "scenario" => scenario::scenario(&args),
        "saturate" => commands::saturate(&args),
        "observe" => commands::observe(&args),
        "attack" => commands::attack(&args),
        "threshold" => commands::threshold(&args),
        "interleave" => commands::interleave_cmd(&args),
        "search" => commands::search(&args),
        "verify" => commands::verify(&args),
        "windows" => commands::windows_cmd(&args),
        "check" => commands::check(&args),
        "run-schedule" => commands::run_schedule(&args),
        "serve" => commands::serve(&args),
        "drive" => commands::drive_cmd(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    let mut text = "cnet — counting networks and their practical linearizability

usage:
  cnet topo <kind> <width> [--pad N] [--arity D] [--dot]
  cnet measure <kind> <width> --c1 C1 --c2 C2 [--json PATH]
  cnet simulate <kind> <width> [trace.csv] --n N --f PCT --w CYCLES [--ops N] [--prism] [--seed S] [--threads T] [--json PATH]
  cnet run <kind> <width> [--backend FLAVOR,...] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--open GAP | --bursty B,GAP | --trace FILE] [--hop-spin S] [--seed S] [--json PATH]
  cnet scenario <file.json> [--json PATH]
  cnet saturate <kind> <width> [--n N] [--ops N] [--threads T] [--seed S] [--json PATH]
  cnet observe [kind] [--width W] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--prism] [--seed S] [--json [PATH]]
  cnet attack <intro|tree|bitonic|wave> --width W --c1 C1 --c2 C2 [--svg]
  cnet threshold <kind> <width> --c1 C1 --c2 C2 [--json PATH]
  cnet interleave <kind> <width> [--tokens N] [--budget N]
  cnet search <kind> <width> --c1 C1 --c2 C2 [--tokens N] [--budget N]
  cnet verify <kind> <width> [--budget N]
  cnet check <trace.csv>
  cnet windows <trace.csv> [--w WIDTH]
  cnet run-schedule <kind> <width> <schedule.csv> [--svg]
  cnet serve <kind> <width> --socket PATH [--window OPS] [--slo RATE,MAG,P99NS] [--dump PATH] [--dump-every SECS] [--history OPS] [--label L] [--seed S]
  cnet drive --socket PATH [--clients N] [--rate REQ_PER_S] [--duration SECS] [--batch K] [--window OPS] [--slo RATE,MAG,P99NS] [--baseline PATH] [--write-slo-baseline] [--seed S] [--json PATH]

network kinds: bitonic periodic tree merger block single, or `file <path>`
for a topology in the cnet-topology text format
backend flavors: "
        .to_string();
    text.push_str(&cnet_engine::BackendSpec::grammar().replace('|', " "));
    text.push('\n');
    text
}
