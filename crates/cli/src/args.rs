//! Tiny dependency-free argument parser.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// CLI failure: bad usage, a failed underlying operation, or a tripped
/// quality gate.
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

/// The option keys that take a value; everything else starting with
/// `--` is a boolean flag.
const VALUED: &[&str] = &[
    "c1",
    "c2",
    "n",
    "f",
    "w",
    "ops",
    "seed",
    "pad",
    "arity",
    "width",
    "tokens",
    "budget",
    "threads",
    "json",
    "backend",
    "open",
    "bursty",
    "trace",
    "socket",
    "window",
    "slo",
    "clients",
    "rate",
    "duration",
    "dump",
    "dump-every",
    "batch",
    "history",
    "label",
];

/// Valued options that may also appear bare, as a flag (`--json path`
/// writes a file, a trailing `--json` selects stdout).
const FLAG_OR_VALUED: &[&str] = &["json"];

impl ParsedArgs {
    /// Splits raw arguments into positionals, options, and flags.
    ///
    /// # Errors
    ///
    /// Returns a usage error when a valued option is missing its value.
    pub fn parse(raw: &[String]) -> Result<Self, CliError> {
        let mut out = ParsedArgs::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if VALUED.contains(&name) {
                    let next_is_value = it.peek().is_some_and(|v| !v.starts_with("--"));
                    if next_is_value {
                        let value = it.next().expect("peeked");
                        out.options.insert(name.to_string(), value.clone());
                    } else if FLAG_OR_VALUED.contains(&name) {
                        out.flags.push(name.to_string());
                    } else {
                        return Err(CliError::usage(format!("--{name} needs a value")));
                    }
                } else {
                    out.flags.push(name.to_string());
                }
            } else {
                out.positional.push(a.clone());
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

    /// A required numeric option.
    ///
    /// # Errors
    ///
    /// Returns a usage error if absent or non-numeric.
    pub fn required_u64(&self, name: &str) -> Result<u64, CliError> {
        self.u64_opt(name)?
            .ok_or_else(|| CliError::usage(format!("--{name} is required")))
    }

    /// An optional numeric option.
    ///
    /// # Errors
    ///
    /// Returns a usage error if present but non-numeric.
    pub fn u64_opt(&self, name: &str) -> Result<Option<u64>, CliError> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("--{name} expects a number, got `{v}`"))),
        }
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

    /// The first option or switch passed that is not in `reads` (names
    /// without the leading `--`), if any.
    #[must_use]
    pub fn unread(&self, reads: &[&str]) -> Option<&str> {
        self.options
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .find(|name| !reads.contains(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_mixed_arguments() {
        let a = ParsedArgs::parse(&strs(&["bitonic", "8", "--c1", "10", "--dot"])).unwrap();
        assert_eq!(a.positional(0, "kind").unwrap(), "bitonic");
        assert_eq!(a.positional(1, "width").unwrap(), "8");
        assert_eq!(a.required_u64("c1").unwrap(), 10);
        assert!(a.flag("dot"));
        assert!(!a.flag("svg"));
    }

    #[test]
    fn missing_value_is_usage_error() {
        let e = ParsedArgs::parse(&strs(&["--c1"])).unwrap_err();
        assert!(e.to_string().contains("--c1 needs a value"));
    }

    #[test]
    fn missing_positional_is_usage_error() {
        let a = ParsedArgs::parse(&[]).unwrap();
        let e = a.positional(0, "kind").unwrap_err();
        assert!(e.to_string().contains("<kind>"));
    }

    #[test]
    fn bad_number_is_usage_error() {
        let a = ParsedArgs::parse(&strs(&["--c1", "ten"])).unwrap();
        assert!(a.required_u64("c1").is_err());
    }

    #[test]
    fn missing_required_option() {
        let a = ParsedArgs::parse(&[]).unwrap();
        let e = a.required_u64("c2").unwrap_err();
        assert!(e.to_string().contains("--c2 is required"));
    }

    #[test]
    fn optional_absent_is_none() {
        let a = ParsedArgs::parse(&[]).unwrap();
        assert_eq!(a.u64_opt("seed").unwrap(), None);
    }

    #[test]
    fn json_and_threads_take_values() {
        let a = ParsedArgs::parse(&strs(&["--json", "out.json", "--threads", "4"])).unwrap();
        assert_eq!(a.str_opt("json"), Some("out.json"));
        assert_eq!(a.u64_opt("threads").unwrap(), Some(4));
        assert_eq!(a.str_opt("absent"), None);
    }

    #[test]
    fn bare_json_is_a_flag() {
        // trailing
        let a = ParsedArgs::parse(&strs(&["--ops", "10", "--json"])).unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.str_opt("json"), None);
        // followed by another option
        let a = ParsedArgs::parse(&strs(&["--json", "--ops", "10"])).unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.u64_opt("ops").unwrap(), Some(10));
    }

    #[test]
    fn other_valued_options_still_require_values() {
        let e = ParsedArgs::parse(&strs(&["--ops", "--json"])).unwrap_err();
        assert!(e.to_string().contains("--ops needs a value"));
    }
}
