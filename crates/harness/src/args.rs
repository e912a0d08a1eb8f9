//! The flag surface of the bench driver:
//! `--ops N --seed S --threads T --json PATH`.
//!
//! A suite names the subset of [`FLAGS`] it reads; any other argument —
//! a typo, or a real flag the suite would ignore — is an error, so no
//! invocation silently runs the default experiment.

use std::path::PathBuf;

/// Every harness flag with its value placeholder, in usage order.
pub const FLAGS: [(&str, &str); 4] = [
    ("--ops", "N"),
    ("--seed", "S"),
    ("--threads", "T"),
    ("--json", "PATH"),
];

/// Parsed harness arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    suite: String,
    /// Operations per cell (`--ops`, default 5000 — the paper's count).
    pub ops: usize,
    /// Base-seed override (`--seed`) of the suite's published default.
    pub seed: Option<u64>,
    /// Worker threads (`--threads`, default 1). Any value produces the
    /// same measurements; more threads only change wall-clock.
    pub threads: usize,
    /// JSON report destination (`--json`). When absent, the report goes
    /// to `results/BENCH_<suite>.json` if `results/` exists.
    pub json: Option<PathBuf>,
}

impl BenchArgs {
    /// The usage line of `suite`, which reads the flags in `reads`.
    #[must_use]
    pub fn usage(suite: &str, reads: &[&str]) -> String {
        let mut line = format!("usage: cnet-bench {suite}");
        for (flag, value) in FLAGS.iter().filter(|(flag, _)| reads.contains(flag)) {
            line.push_str(&format!(" [{flag} {value}]"));
        }
        line
    }

    /// Parses the arguments of `suite`, which reads the flags in
    /// `reads` (a subset of [`FLAGS`]).
    ///
    /// # Errors
    ///
    /// Returns a message on unknown arguments, flags the suite does not
    /// read, missing values, non-numeric numbers, or degenerate values
    /// (`--ops 0`, `--threads 0`) that would silently measure nothing.
    pub fn parse_from(suite: &str, reads: &[&str], raw: &[String]) -> Result<Self, String> {
        let mut args = BenchArgs {
            suite: suite.to_string(),
            ops: 5000,
            seed: None,
            threads: 1,
            json: None,
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if !FLAGS.iter().any(|(flag, _)| flag == a) {
                return Err(format!("unknown argument `{a}`"));
            }
            if !reads.contains(&a.as_str()) {
                return Err(format!("`{suite}` does not read `{a}`"));
            }
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            match a.as_str() {
                "--ops" => args.ops = parse_num(a, v)?,
                "--seed" => args.seed = Some(parse_num(a, v)?),
                "--threads" => args.threads = parse_num(a, v)?,
                _ => args.json = Some(PathBuf::from(v)),
            }
        }
        if args.ops == 0 {
            return Err("--ops must be at least 1 (a 0-op sweep measures nothing)".to_string());
        }
        if args.threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        Ok(args)
    }

    /// Where the JSON report should go: the `--json` override, or
    /// `results/BENCH_<suite>.json` when a `results/` directory exists
    /// in the working directory, or nowhere.
    #[must_use]
    pub fn json_path(&self) -> Option<PathBuf> {
        if let Some(p) = &self.json {
            return Some(p.clone());
        }
        let results = PathBuf::from("results");
        results
            .is_dir()
            .then(|| results.join(format!("BENCH_{}.json", self.suite)))
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [&str; 4] = ["--ops", "--seed", "--threads", "--json"];

    fn parse(v: &[&str]) -> Result<BenchArgs, String> {
        let raw: Vec<String> = v.iter().map(|s| (*s).to_string()).collect();
        BenchArgs::parse_from("x", &ALL, &raw)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.ops, 5000);
        assert_eq!(a.threads, 1);
        assert_eq!(a.seed, None);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--ops",
            "200",
            "--seed",
            "7",
            "--threads",
            "4",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(a.ops, 200);
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.threads, 4);
        assert_eq!(a.json_path(), Some(PathBuf::from("out.json")));
    }

    #[test]
    fn rejects_degenerate_values() {
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .contains("--threads must be at least 1"));
        assert!(parse(&["--ops", "0"])
            .unwrap_err()
            .contains("--ops must be at least 1"));
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&["--opps", "5"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse(&["--ops"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--ops", "many"])
            .unwrap_err()
            .contains("expects a number"));
    }
}
