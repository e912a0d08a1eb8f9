//! The `cnet` command-line tool.
//!
//! Every subcommand is a pure function from parsed arguments to a
//! report string, so the whole CLI is unit-testable; `main` only parses
//! `std::env::args`, dispatches, and prints.
//!
//! [`COMMANDS`] is the one list of subcommands — dispatch and `cnet
//! help` both read it, so run `cnet help` for every synopsis, the
//! network kinds and the backend flavors (the grammar of
//! [`cnet_harness::BackendSpec`]). Its `reads` column is what a command
//! accepts: an option or switch outside it is a usage error naming it,
//! so a stale flag is never ignored.
//!
//! Exit codes: 0 success, 2 usage/operation failure, 3 a `drive` run
//! broke its `--slo` policy, 4 a `serve` lifetime ended in breach of
//! its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cell;
pub mod commands;

pub use args::{CliError, ParsedArgs};

/// A subcommand's body: parsed arguments to a report.
pub type Body = fn(&ParsedArgs) -> Result<String, CliError>;

/// Every subcommand, in the order `cnet help` lists them: its name, the
/// synopsis printed after it, the options and switches it reads (any
/// other is a usage error), and its body. `pad` and `arity` shape the
/// network of every command that builds one from `<kind> <width>`;
/// the help footer names them once.
#[rustfmt::skip] // one row per command
pub const COMMANDS: &[(&str, &str, &[&str], Body)] = &[
    ("measure", "<kind> <width> --c1 C1 --c2 C2 [--json PATH]",
        &["pad", "arity", "c1", "c2", "json"], commands::measure),
    ("simulate", "<kind> <width> [trace.csv] --n N --f PCT --w CYCLES [--ops N] [--random-wait] [--prism] [--seed S] [--json PATH]",
        &["pad", "arity", "n", "f", "w", "ops", "random-wait", "prism", "seed", "json"], cell::simulate),
    ("run", "<kind> <width> [--backend FLAVOR,...] [--n N] [--f PCT] [--w CYCLES] [--ops N] [--open GAP | --bursty B,GAP | --trace FILE] [--prism] [--seed S] [--json PATH]",
        &["pad", "arity", "backend", "n", "f", "w", "ops", "open", "bursty", "trace", "prism", "seed", "json"], commands::run),
    ("scenario", "<file.json> [--json PATH]",
        &["json"], cell::scenario),
    ("saturate", "<kind> <width> [--n N] [--ops N] [--threads T] [--seed S] [--json PATH]",
        &["pad", "arity", "n", "ops", "threads", "seed", "json"], commands::saturate),
    ("attack", "<intro|tree|bitonic|wave> --width W --c1 C1 --c2 C2 [--svg]",
        &["width", "c1", "c2", "svg"], commands::attack),
    ("threshold", "<kind> <width> --c1 C1 --c2 C2 [--json PATH]",
        &["pad", "arity", "c1", "c2", "json"], commands::threshold),
    ("interleave", "<kind> <width> [--tokens N] [--budget N]",
        &["pad", "arity", "tokens", "budget"], commands::interleave_cmd),
    ("search", "<kind> <width> --c1 C1 --c2 C2 [--tokens N] [--budget N]",
        &["pad", "arity", "c1", "c2", "tokens", "budget"], commands::search),
    ("serve", "<kind> <width> --socket PATH [--window OPS] [--slo RATE,MAG,P99NS] [--dump PATH] [--dump-every SECS] [--history OPS] [--label L] [--seed S]",
        &["pad", "arity", "socket", "window", "slo", "dump", "dump-every", "history", "label", "seed"], commands::serve),
    ("drive", "--socket PATH [--clients N] [--rate REQ_PER_S] [--duration SECS] [--batch K] [--window OPS] [--slo RATE,MAG,P99NS] [--seed S] [--json PATH]",
        &["socket", "clients", "rate", "duration", "batch", "window", "slo", "seed", "json"], commands::drive_cmd),
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
        Some((name, synopsis, reads, body)) => match args.unread(reads) {
            Some(flag) => Err(CliError::Usage(format!(
                "`cnet {name}` does not read --{flag}\nusage: cnet {name} {synopsis}"
            ))),
            None => body(&args),
        },
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
    for (name, synopsis, ..) in COMMANDS {
        text.push_str(&format!("  cnet {name} {synopsis}\n"));
    }
    text.push_str(
        "\nnetwork kinds: bitonic periodic tree merger block single, or `file <path>`\n\
         for a topology in the cnet-topology text format; every <kind> <width>\n\
         also takes [--pad N] [--arity D]\nbackend flavors: ",
    );
    text.push_str(&cnet_harness::BackendSpec::grammar().replace('|', " "));
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
            // with no arguments a command reports what it misses, which
            // is not the registry's error
            let e = run(&[(*name).to_string()]).unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{name}: {e}");
            assert!(!e.to_string().contains("unknown command"), "{name}: {e}");
        }
        assert_eq!(run(&["help".to_string()]).unwrap(), usage());
    }

    #[test]
    fn every_command_refuses_an_option_it_does_not_read() {
        let strs = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        let footer = usage();
        let footer = &footer[footer.find("\nnetwork kinds:").unwrap()..];
        for (name, synopsis, reads, _) in COMMANDS {
            // the synopsis offers nothing the command ignores
            let offered: Vec<&str> = synopsis
                .split([' ', '[', ']'])
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            for flag in &offered {
                assert!(reads.contains(flag), "{name}: --{flag}");
            }
            // and names everything it reads, or the footer does
            for flag in *reads {
                let in_footer =
                    matches!(*flag, "pad" | "arity") && footer.contains(&format!("[--{flag} "));
                assert!(offered.contains(flag) || in_footer, "{name}: --{flag}");
            }
            // what it reads passes the gate, as an option or a switch
            for flag in *reads {
                for raw in [
                    strs(&[&format!("--{flag}"), "1"]),
                    strs(&[&format!("--{flag}")]),
                ] {
                    if let Ok(args) = ParsedArgs::parse(&raw) {
                        assert_eq!(args.unread(reads), None, "{name}: {raw:?}");
                    }
                }
            }
            // anything else is refused by name, before the body runs
            for bogus in [&["--bogus-flag"][..], &["--bogus-option", "x"]] {
                let e = run(&strs(&[&[*name], bogus].concat())).unwrap_err();
                assert!(matches!(e, CliError::Usage(_)), "{name}: {e}");
                assert!(
                    e.to_string()
                        .starts_with(&format!("`cnet {name}` does not read {}", bogus[0])),
                    "{name}: {e}"
                );
            }
        }
        // the two ROADMAP 5(d) names: a stale gate and an unknown switch
        let e = run(&strs(&[
            "drive",
            "--socket",
            "/nonexistent",
            "--baseline",
            "x",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("does not read --baseline"), "{e}");
        let e = run(&strs(&["measure", "bitonic", "4", "--bogus-flag"])).unwrap_err();
        assert!(e.to_string().contains("does not read --bogus-flag"), "{e}");
        // no command reads --hop-spin
        let e = run(&strs(&["run", "bitonic", "4", "--hop-spin", "5"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        assert!(e.to_string().contains("does not read --hop-spin"), "{e}");
    }
}
