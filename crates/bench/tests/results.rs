//! The driver against the committed artifacts: every deterministic
//! suite regenerates `results/<suite>.txt` byte for byte, the registry
//! and `results/` name the same suites, and the flag surface refuses
//! what a suite does not read.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cnet_bench::{drive, DriveError, SUITES};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A scratch path for a run's JSON report, so no test writes into the
/// committed `results/`.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("cnet-bench-results-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// `cnet-bench <argv>` in-process: the outcome and what went to stdout.
fn bench(argv: &[&str]) -> (Result<(), DriveError>, String) {
    let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
    let mut out = Vec::new();
    let outcome = drive(&argv, &mut out);
    (outcome, String::from_utf8(out).unwrap())
}

fn usage_error(argv: &[&str]) -> String {
    match bench(argv) {
        (Err(DriveError::Usage(msg)), out) if out.is_empty() => msg,
        other => panic!("{argv:?} must be a usage error before any output: {other:?}"),
    }
}

#[test]
fn every_deterministic_suite_regenerates_its_committed_table() {
    for suite in SUITES.iter().filter(|s| !s.host_time) {
        let json = scratch(&format!("BENCH_{}.json", suite.name));
        let (outcome, out) = bench(&[suite.name, "--json", &json]);
        assert!(outcome.is_ok(), "{}: {outcome:?}", suite.name);
        let path = results().join(format!("{}.txt", suite.name));
        let committed = std::fs::read_to_string(&path).unwrap();
        let mut lines = out.lines().zip(committed.lines()).enumerate();
        if let Some((i, (now, then))) = lines.find(|(_, (now, then))| now != then) {
            panic!(
                "{}:{}: regenerated differs\n  now:       {now}\n  committed: {then}",
                path.display(),
                i + 1
            );
        }
        assert_eq!(out.len(), committed.len(), "{}: length", path.display());
    }
}

#[test]
fn the_registry_and_the_committed_artifacts_name_the_same_suites() {
    let registered: BTreeSet<&str> = SUITES.iter().map(|s| s.name).collect();
    assert_eq!(registered.len(), SUITES.len(), "suite names are unique");
    let (outcome, listed) = bench(&["list"]);
    assert!(outcome.is_ok());
    assert_eq!(
        listed.lines().collect::<Vec<_>>(),
        SUITES.iter().map(|s| s.name).collect::<Vec<_>>()
    );

    for name in &registered {
        for artifact in [format!("{name}.txt"), format!("BENCH_{name}.json")] {
            assert!(results().join(&artifact).is_file(), "results/{artifact}");
        }
    }
    for entry in std::fs::read_dir(results()).unwrap() {
        let file = entry.unwrap().file_name();
        let file = file.to_str().unwrap();
        let suite = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"));
        if let Some(suite) = suite {
            assert!(registered.contains(suite), "results/{file} names no suite");
        }
    }
}

#[test]
fn stdout_is_the_same_on_one_worker_and_on_four() {
    let json = scratch("threads.json");
    let run = |threads| {
        let (outcome, out) = bench(&[
            "figure5",
            "--ops",
            "200",
            "--threads",
            threads,
            "--json",
            &json,
        ]);
        assert!(outcome.is_ok(), "{outcome:?}");
        out
    };
    let one = run("1");
    assert!(one.contains("# Diffracting Tree"), "{one}");
    assert_eq!(one, run("4"));
}

#[test]
fn a_flag_the_suite_does_not_read_is_a_usage_error() {
    for (argv, flag) in [
        (["section4", "--ops", "9"], "--ops"),
        (["threshold", "--seed", "1"], "--seed"),
        (["native", "--threads", "8"], "--threads"),
    ] {
        let msg = usage_error(&argv);
        let suite = argv[0];
        assert!(
            msg.starts_with(&format!("`cnet-bench {suite}` does not read {flag}\n")),
            "{msg}"
        );
        let usage = msg.lines().last().unwrap();
        assert!(
            usage.starts_with(&format!("usage: cnet-bench {suite} [")),
            "{msg}"
        );
        assert!(!usage.contains(flag), "{msg}");
    }
}

/// A native suite on a live-probe build (this test binary is one under
/// `cargo test --workspace`, where `cnet-cli` unifies the engine's
/// `obs` feature on) is refused before anything runs; on a probes-off
/// build (`cargo test -p cnet-bench`) it runs and no record it writes
/// carries a `metrics` block.
#[test]
fn native_suites_run_only_without_the_live_probe_layer() {
    let json = scratch("probes.json");
    if cnet_engine::PROBES_LIVE {
        for suite in ["native", "frontend", "saturation"] {
            let (outcome, out) = bench(&[suite, "--ops", "64", "--json", &json]);
            assert!(
                matches!(outcome, Err(DriveError::LiveProbes(name)) if name == suite),
                "{suite}: {outcome:?}"
            );
            assert!(out.is_empty(), "{suite}: refused before any output");
        }
    } else {
        let (outcome, out) = bench(&["native", "--ops", "64", "--json", &json]);
        assert!(outcome.is_ok(), "{outcome:?}");
        assert!(out.contains("# Native shm WaitFree"), "{out}");
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(!report.contains("\"metrics\""), "{report}");
    }
}

#[test]
fn degenerate_values_and_unknown_names_are_usage_errors() {
    assert!(usage_error(&["figure5", "--ops", "0"]).contains("--ops must be at least 1"));
    assert!(usage_error(&["figure5", "--threads", "0"]).contains("--threads must be at least 1"));
    assert!(usage_error(&["figure5", "--opps", "5"]).contains("does not read --opps"));
    // the driver compares no run with another: the flag that did is gone
    assert!(usage_error(&["figure5", "--baseline", "x"]).contains("does not read --baseline"));
    // the grammar of `cnet`: a flag once, and no positional
    assert_eq!(
        usage_error(&["figure5", "--ops", "5", "--ops", "6"]),
        "--ops is given twice"
    );
    assert!(usage_error(&["figure5", "extra"]).contains("takes no argument `extra`"));
    for argv in [&["figure8"][..], &[], &["list", "figure5"]] {
        let msg = usage_error(argv);
        let listed = msg.lines().last().unwrap();
        for suite in &SUITES {
            assert!(listed.contains(suite.name), "{msg}");
        }
    }
}

/// An op count whose records no allocation can hold is refused when
/// the flags are read, on every suite that reads `--ops`.
#[test]
fn an_op_count_no_run_can_hold_is_a_usage_error() {
    for suite in ["figure5", "saturation"] {
        let msg = usage_error(&[suite, "--ops", "18446744073709551615"]);
        assert!(
            msg.contains("more operations than one run can record"),
            "{suite}: {msg}"
        );
    }
}

/// An op count a run could hold whose open-loop ladder overflows the
/// arrival clock is refused by the cell's check before the atlas
/// prints anything. Only a probes-off build runs the native suites.
#[test]
fn a_saturation_ladder_past_half_the_clock_is_a_usage_error() {
    if cnet_engine::PROBES_LIVE {
        return;
    }
    let json = scratch("overflow.json");
    let msg = usage_error(&["saturation", "--ops", "1000000000000000", "--json", &json]);
    assert!(msg.contains("u64::MAX / 2"), "{msg}");
}
