//! The `cnet` command-line tool.
//!
//! Every subcommand is a pure function from parsed arguments to a
//! report string, so the whole CLI is unit-testable; `main` only parses
//! `std::env::args`, dispatches, and prints.
//!
//! [`COMMANDS`] is the one list of subcommands — dispatch and `cnet
//! help` both read it, so run `cnet help` for every synopsis, the
//! network kinds and the backend flavors (the grammar of
//! [`cnet_engine::BackendSpec`]).
//!
//! Exit codes: 0 success, 2 usage/operation failure, 3 a `drive` run
//! broke its `--slo` policy, 4 a `serve` lifetime ended in breach of
//! its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod scenario;

pub use args::{CliError, ParsedArgs};

/// A subcommand's body: parsed arguments to a report.
pub type Body = fn(&ParsedArgs) -> Result<String, CliError>;

/// Every subcommand, in the order `cnet help` lists them: its name, the
/// synopsis printed after it, and its body.
#[rustfmt::skip] // one row per command
pub const COMMANDS: &[(&str, &str, Body)] = &[
    ("topo", "<kind> <width> [--pad N] [--arity D] [--dot]", commands::topo),
    ("measure", "<kind> <width> --c1 C1 --c2 C2 [--json PATH]", commands::measure),
    ("simulate", "<kind> <width> [trace.csv] --n N --f PCT --w CYCLES [--ops N] [--prism] [--seed S] [--threads T] [--json PATH]", commands::simulate),
    ("run", "<kind> <width> [--backend FLAVOR,...] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--open GAP | --bursty B,GAP | --trace FILE] [--hop-spin S] [--seed S] [--json PATH]", commands::run),
    ("scenario", "<file.json> [--json PATH]", scenario::scenario),
    ("saturate", "<kind> <width> [--n N] [--ops N] [--threads T] [--seed S] [--json PATH]", commands::saturate),
    ("observe", "[kind] [--width W] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--prism] [--seed S] [--json [PATH]]", commands::observe),
    ("attack", "<intro|tree|bitonic|wave> --width W --c1 C1 --c2 C2 [--svg]", commands::attack),
    ("threshold", "<kind> <width> --c1 C1 --c2 C2 [--json PATH]", commands::threshold),
    ("interleave", "<kind> <width> [--tokens N] [--budget N]", commands::interleave_cmd),
    ("search", "<kind> <width> --c1 C1 --c2 C2 [--tokens N] [--budget N]", commands::search),
    ("verify", "<kind> <width> [--budget N]", commands::verify),
    ("check", "<trace.csv>", commands::check),
    ("windows", "<trace.csv> [--w WIDTH]", commands::windows_cmd),
    ("run-schedule", "<kind> <width> <schedule.csv> [--svg]", commands::run_schedule),
    ("serve", "<kind> <width> --socket PATH [--window OPS] [--slo RATE,MAG,P99NS] [--dump PATH] [--dump-every SECS] [--history OPS] [--label L] [--seed S]", commands::serve),
    ("drive", "--socket PATH [--clients N] [--rate REQ_PER_S] [--duration SECS] [--batch K] [--window OPS] [--slo RATE,MAG,P99NS] [--seed S] [--json PATH]", commands::drive_cmd),
];

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
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((.., body)) => body(&args),
        None => Err(CliError::Usage(format!(
            "unknown command `{command}`\n\n{}",
            usage()
        ))),
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    let mut text =
        "cnet — counting networks and their practical linearizability\n\nusage:\n".to_string();
    for (name, synopsis, _) in COMMANDS {
        text.push_str(&format!("  cnet {name} {synopsis}\n"));
    }
    text.push_str(
        "\nnetwork kinds: bitonic periodic tree merger block single, or `file <path>`\n\
         for a topology in the cnet-topology text format\nbackend flavors: ",
    );
    text.push_str(&cnet_engine::BackendSpec::grammar().replace('|', " "));
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_dispatches_and_an_unknown_one_lists_them_all() {
        let unknown = run(&["frobnicate".to_string()]).unwrap_err().to_string();
        assert!(
            unknown.starts_with("unknown command `frobnicate`"),
            "{unknown}"
        );
        for (name, ..) in COMMANDS {
            assert!(
                unknown.contains(&format!("\n  cnet {name} ")),
                "{name}: {unknown}"
            );
            // with no arguments a command either runs (`observe`) or
            // reports what it misses; neither is the registry's error
            if let Err(e) = run(&[(*name).to_string()]) {
                assert!(matches!(e, CliError::Usage(_)), "{name}: {e}");
                assert!(!e.to_string().contains("unknown command"), "{name}: {e}");
            }
        }
        assert_eq!(run(&["help".to_string()]).unwrap(), usage());
    }
}
