//! The command-line grammar of both binaries, `cnet` and `cnet-bench`:
//! positionals, `--key value` options and `--flag` switches, parsed
//! against the options a command reads, so an option it does not read
//! is refused by name instead of ignored.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Command-line failure: bad usage, a failed underlying operation, or
/// a tripped quality gate.
#[derive(Debug)]
pub enum CliError {
    /// The invocation was malformed; the payload is a help message.
    Usage(String),
    /// The requested operation failed.
    Failed(Box<dyn Error + Send + Sync>),
    /// The operation ran to completion but a quality gate tripped
    /// (an SLO breach). The dedicated exit code lets CI distinguish
    /// "the service misbehaved" from "the tool broke".
    Gate {
        /// Process exit code for `main` (3 = a `drive` run broke its
        /// `--slo` policy, 4 = a `serve` lifetime did).
        code: i32,
        /// The full verdict, including the evidence tables.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Failed(e) => write!(f, "error: {e}"),
            CliError::Gate { message, .. } => write!(f, "{message}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Usage(_) | CliError::Gate { .. } => None,
            CliError::Failed(e) => Some(e.as_ref()),
        }
    }
}

impl CliError {
    /// Wraps any operation error.
    pub fn failed<E: Error + Send + Sync + 'static>(e: E) -> Self {
        CliError::Failed(Box::new(e))
    }

    /// A usage error with a custom message.
    #[must_use]
    pub fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Gate { code, .. } => *code,
            _ => 2,
        }
    }
}

/// Positional arguments plus `--key value` options and `--flag`
/// switches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// The switches: options that take no value. Every other option a
/// command reads takes one.
pub const SWITCHES: &[&str] = &["prism", "random-wait", "svg"];

impl ParsedArgs {
    /// Splits the arguments of `command` (`cnet run`, `cnet-bench
    /// figure5`) into positionals, options and switches, against the
    /// options and switches it `reads`; `synopsis` is the rest of its
    /// usage line.
    ///
    /// # Errors
    ///
    /// Returns a usage error when an option is one the command does not
    /// read, is given twice, or is missing its value.
    pub fn parse(
        raw: &[String],
        command: &str,
        synopsis: &str,
        reads: &[&str],
    ) -> Result<Self, CliError> {
        let mut out = ParsedArgs::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                out.positional.push(a.clone());
                continue;
            };
            if !reads.contains(&flag) {
                return Err(CliError::usage(format!(
                    "`{command}` does not read --{flag}\nusage: {command} {synopsis}"
                )));
            }
            if out.options.contains_key(flag) || out.flag(flag) {
                return Err(CliError::usage(format!("--{flag} is given twice")));
            }
            if SWITCHES.contains(&flag) {
                out.flags.push(flag.to_string());
            } else if let Some(value) = it.next_if(|v| !v.starts_with("--")) {
                out.options.insert(flag.to_string(), value.clone());
            } else {
                return Err(CliError::usage(format!("--{flag} needs a value")));
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    ///
    /// Returns a usage error naming the missing argument.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, CliError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| CliError::usage(format!("missing <{name}> argument")))
    }

    /// A required numeric option, parsed straight into `T`.
    ///
    /// # Errors
    ///
    /// Returns a usage error if absent, or as [`ParsedArgs::num`].
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.num(name)?
            .ok_or_else(|| CliError::usage(format!("--{name} is required")))
    }

    /// An optional numeric option, parsed straight into `T`, so a value
    /// `T` cannot hold is refused rather than wrapped by a cast.
    ///
    /// # Errors
    ///
    /// Returns a usage error naming the option if its value is not a
    /// `T`.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.options
            .get(name)
            .map(|v| {
                v.parse().map_err(|_| {
                    let ty = std::any::type_name::<T>();
                    CliError::usage(format!("--{name} expects a {ty} number, got `{v}`"))
                })
            })
            .transpose()
    }

    /// The `i`-th positional argument, if present.
    #[must_use]
    pub fn positional_opt(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// An optional string-valued option (e.g. `--json <path>`).
    #[must_use]
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether a boolean flag was passed.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the test command reads.
    const READS: &[&str] = &["c1", "n", "f", "ops", "json", "threads", "prism", "svg"];

    /// Parses `raw` as the arguments of `cnet test`.
    fn parse(raw: &[&str]) -> Result<ParsedArgs, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| (*s).to_string()).collect();
        ParsedArgs::parse(&raw, "cnet test", "<kind> [--c1 C1]", READS)
    }

    #[test]
    fn parses_mixed_arguments() {
        let a = parse(&["tree", "--c1", "10", "--svg", "8"]).unwrap();
        assert_eq!(a.positional(0, "scenario").unwrap(), "tree");
        assert_eq!(a.positional(1, "extra").unwrap(), "8");
        assert_eq!(a.required::<u64>("c1").unwrap(), 10);
        assert!(a.flag("svg"));
        assert!(!a.flag("prism"));
    }

    #[test]
    fn an_option_the_command_does_not_read_is_refused_at_parse() {
        let e = parse(&["tree", "--random-wait"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "`cnet test` does not read --random-wait\nusage: cnet test <kind> [--c1 C1]"
        );
        // before its value is looked at, so the value is not the error
        let e = parse(&["--seed"]).unwrap_err();
        assert!(e.to_string().contains("does not read --seed"), "{e}");
    }

    #[test]
    fn missing_value_is_usage_error() {
        for raw in [
            &["--c1"][..],
            &["--json", "--ops", "10"],
            &["--ops", "--json"],
        ] {
            let e = parse(raw).unwrap_err();
            assert!(
                e.to_string().contains(&format!("{} needs a value", raw[0])),
                "{e}"
            );
        }
    }

    #[test]
    fn missing_positional_is_usage_error() {
        let a = parse(&[]).unwrap();
        let e = a.positional(0, "kind").unwrap_err();
        assert!(e.to_string().contains("<kind>"));
    }

    #[test]
    fn a_value_its_type_cannot_hold_is_usage_error() {
        let a = parse(&["--n", "ten", "--f", "4294967321"]).unwrap();
        assert!(matches!(a.num::<u64>("n"), Err(CliError::Usage(_))));
        let e = a.num::<u32>("f").unwrap_err().to_string();
        assert_eq!(e, "--f expects a u32 number, got `4294967321`");
        assert_eq!(a.num::<u64>("f").unwrap(), Some(4_294_967_321));
    }

    #[test]
    fn missing_required_option() {
        let a = parse(&[]).unwrap();
        let e = a.required::<u64>("c1").unwrap_err();
        assert!(e.to_string().contains("--c1 is required"));
        assert_eq!(a.num::<u64>("n").unwrap(), None);
    }

    #[test]
    fn a_repeated_option_or_switch_is_usage_error() {
        for raw in [&["--n", "4", "--n", "64"][..], &["--prism", "--prism"]] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.to_string(), format!("{} is given twice", raw[0]));
        }
    }

    #[test]
    fn json_and_threads_take_values() {
        let a = parse(&["--json", "out.json", "--threads", "4"]).unwrap();
        assert_eq!(a.str_opt("json"), Some("out.json"));
        assert_eq!(a.num::<usize>("threads").unwrap(), Some(4));
        assert_eq!(a.str_opt("absent"), None);
    }
}
