//! `cnet-e2e compare A.json B.json`: applies each end-to-end metric's
//! bound per workload to two reports written by `cnet-e2e run`, A being
//! the parent and B the change.

use serde::Value;

use crate::host::COMPARABLE_FIELDS;
use crate::metrics::{self, Better, Metric};
use crate::stats::{median, spread};

/// Fewer runs per side than this cannot show a spread.
const MIN_RUNS: usize = 3;
/// Differences of `setup_s` below this are ignored: a set-up of
/// microseconds moves by more than its bound with the timer alone.
const SETUP_FLOOR_S: f64 = 0.001;

/// The pairs the benchmark gates. The driver prints and bounds every
/// end-to-end metric on every workload; a pair that is not gated still
/// gets its row and verdict here, but cannot fail the comparison.
/// `ops_per_s` on `serve_next` is four threads' sleep/wake tail, which
/// is scheduler noise; `op_p50_us` on the pass-based workloads is read
/// off the program's own report of a part of the pass.
fn gated(workload: &str, metric: &str) -> bool {
    match metric {
        "ops_per_s" => workload != "serve_next",
        "op_p50_us" => workload.starts_with("serve_"),
        _ => true,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the parent by more than the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The run-to-run spread of a side exceeds the bound (or a side has
    /// too few runs to show one), and the change's runs are not all
    /// better than all of the parent's: neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
}

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

/// Judges one (workload, metric) pair from each side's per-run values.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Row {
    let bound = metric.bound.expect("an end-to-end metric has a bound");
    let floor = if metric.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let (median_a, median_b) = (median(a), median(b));
    let toward_worse = match metric.better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    let under_floor = toward_worse.abs() < floor;
    let worse = if under_floor {
        0.0
    } else {
        toward_worse / median_a.abs()
    };
    let enough = a.len() >= MIN_RUNS && b.len() >= MIN_RUNS;
    let (spread_a, spread_b) = if enough {
        (spread(a), spread(b))
    } else {
        (f64::NAN, f64::NAN)
    };
    let steady = enough && spread_a <= bound && spread_b <= bound;
    let every_run_better = a.iter().all(|&x| {
        b.iter().all(|&y| match metric.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if under_floor {
        Verdict::Ok
    } else if steady {
        if worse > bound {
            Verdict::Regression
        } else {
            Verdict::Ok
        }
    } else if every_run_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    };
    Row {
        median_a,
        median_b,
        worse,
        spread_a,
        spread_b,
        verdict,
    }
}

/// Any increase in the share of failed operations is a regression.
pub fn judge_failures(a: (u64, u64), b: (u64, u64)) -> Verdict {
    let share = |(failed, attempted): (u64, u64)| failed as f64 / attempted.max(1) as f64;
    if share(b) > share(a) {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Parses a report `cnet-e2e run` wrote; `--quick` reports are refused.
fn parse_report(text: &str) -> Result<Value, String> {
    let report = serde::json::from_str(text).map_err(|e| e.to_string())?;
    if report.get("quick") != Some(&Value::Bool(false)) {
        return Err(
            "a --quick report (or not a `cnet-e2e run` report); quick runs are smoke tests and are not compared"
                .to_string(),
        );
    }
    Ok(report)
}

fn load(path: &str) -> Result<Value, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_report(&text))
        .map_err(|e| format!("{path}: {e}"))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Uint(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn workloads(report: &Value) -> &[Value] {
    match report.get("workloads") {
        Some(Value::Array(w)) => w,
        _ => &[],
    }
}

fn runs(workload: &Value) -> &[Value] {
    match workload.get("runs") {
        Some(Value::Array(r)) => r,
        _ => &[],
    }
}

fn metric_values(workload: &Value, name: &str) -> Vec<f64> {
    runs(workload)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(name)?.get("value").and_then(number))
        .collect()
}

fn failures(workload: &Value) -> (u64, u64) {
    let sum = |key: &str| -> u64 {
        runs(workload)
            .iter()
            .filter_map(|run| run.get(key).and_then(number))
            .sum::<f64>() as u64
    };
    (sum("failed"), sum("attempted"))
}

/// Four decimals, or four significant digits for a set-up of microseconds.
fn readable(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

/// Prints one row per (workload, metric) pair; returns the process exit
/// code: 0, 2 for an unusable report, 3 for a regression.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    for key in COMPARABLE_FIELDS {
        let of = |r: &Value| r.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if of(&a) != of(&b) {
            eprintln!(
                "compare: warning: `{key}` differs: {:?} vs {:?}",
                of(&a).unwrap_or(Value::Null),
                of(&b).unwrap_or(Value::Null)
            );
        }
    }
    for key in ["seed", "seconds"] {
        if a.get(key) != b.get(key) {
            eprintln!("compare: warning: the reports were run with different `{key}`");
        }
    }

    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "A iqr", "B iqr"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for wa in workloads(&a) {
        let name = match wa.get("name") {
            Some(Value::Str(n)) => n.as_str(),
            _ => continue,
        };
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("name") == wa.get("name"))
        else {
            eprintln!("compare: warning: {path_b} has no workload `{name}`");
            unresolved += 1;
            continue;
        };
        for metric in metrics::end_to_end() {
            let (va, vb) = (
                metric_values(wa, &metric.name),
                metric_values(wb, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                eprintln!("compare: warning: `{}` missing on `{name}`", metric.name);
                unresolved += 1;
                continue;
            }
            let row = judge(metric, &va, &vb);
            let counts = gated(name, &metric.name);
            let verdict = match (row.verdict, counts) {
                (Verdict::Ok, true) => "ok",
                (Verdict::Regression, true) => {
                    regressions += 1;
                    "REGRESSION"
                }
                (Verdict::Unresolved, true) => {
                    unresolved += 1;
                    "unresolved"
                }
                (Verdict::Ok, false) => "ok (not gated)",
                (Verdict::Regression, false) => "worse (not gated)",
                (Verdict::Unresolved, false) => "unresolved (not gated)",
            };
            println!(
                "{:<14} {:<12} {:>14} {:>14} {:>+7.1}% {:>6.0}% {:>7.1}% {:>7.1}%  {verdict}",
                name,
                metric.name,
                readable(row.median_a),
                readable(row.median_b),
                row.worse * 100.0,
                metric.bound.unwrap_or(f64::NAN) * 100.0,
                row.spread_a * 100.0,
                row.spread_b * 100.0,
            );
        }
        let (fa, fb) = (failures(wa), failures(wb));
        let verdict = match judge_failures(fa, fb) {
            Verdict::Regression => {
                regressions += 1;
                "REGRESSION"
            }
            _ => "ok",
        };
        println!(
            "{:<14} {:<12} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  {verdict}",
            name,
            "failed_share",
            format!("{}/{}", fa.0, fa.1),
            format!("{}/{}", fb.0, fb.1),
            "",
            "0%",
            "",
            ""
        );
    }
    println!("{regressions} regressed, {unresolved} unresolved");
    if regressions > 0 {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: Better, bound: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: String::new(),
            better,
            bound: Some(bound),
        }
    }

    fn latency() -> Metric {
        metric("op_p50_us", Better::Lower, 0.10)
    }

    #[test]
    fn the_bound_is_a_share_of_the_parents_median() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let within = judge(&latency(), &a, &[10.9, 10.8, 10.95, 10.9, 10.85]);
        assert_eq!(within.verdict, Verdict::Ok);
        assert!((within.worse - 0.09).abs() < 1e-9);
        let beyond = judge(&latency(), &a, &[11.2, 11.1, 11.25, 11.2, 11.15]);
        assert_eq!(beyond.verdict, Verdict::Regression);
        // direction: a higher-is-better metric regresses downwards only
        let rate_metric = metric("ops_per_s", Better::Higher, 0.10);
        let rate = [1000.0, 1005.0, 995.0];
        assert_eq!(
            judge(&rate_metric, &rate, &[1200.0, 1190.0, 1210.0]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&rate_metric, &rate, &[880.0, 885.0, 875.0]).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&rate_metric, &rate, &[920.0, 915.0, 925.0]).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn differences_under_the_floor_are_ignored() {
        // 180 us -> 420 us is +133%, but under a millisecond
        let setup = metric("setup_s", Better::Lower, 0.25);
        let row = judge(
            &setup,
            &[0.00018, 0.00019, 0.00017],
            &[0.00042, 0.00040, 0.00044],
        );
        assert_eq!(row.verdict, Verdict::Ok);
        assert_eq!(row.worse, 0.0);
        // the same ratio above the floor is a regression
        let row = judge(&setup, &[0.018, 0.019, 0.017], &[0.042, 0.040, 0.044]);
        assert_eq!(row.verdict, Verdict::Regression);
    }

    #[test]
    fn a_spread_beyond_the_bound_is_unresolved_not_unchanged() {
        // A's quartiles are 30% of its median apart
        let noisy = [8.0, 10.0, 11.0, 9.0, 12.0];
        let row = judge(&latency(), &noisy, &[10.2, 10.1, 10.3, 10.2, 10.25]);
        assert!(row.spread_a > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // even a median past the bound is not called a regression then
        let row = judge(&latency(), &noisy, &[12.5, 11.9, 12.6, 12.4, 12.7]);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // unless every run of the change beats every run of the parent
        let row = judge(&latency(), &noisy, &[7.0, 7.5, 7.2, 7.9, 7.1]);
        assert_eq!(row.verdict, Verdict::Ok);
        // and too few runs cannot show a spread at all
        let row = judge(&latency(), &[10.0, 10.0], &[10.1, 10.1]);
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn any_increase_in_failures_regresses() {
        assert_eq!(judge_failures((0, 1000), (0, 900)), Verdict::Ok);
        assert_eq!(
            judge_failures((0, 1000), (1, 1_000_000)),
            Verdict::Regression
        );
        assert_eq!(judge_failures((2, 1000), (2, 2000)), Verdict::Ok);
    }

    #[test]
    fn quick_reports_are_refused() {
        assert!(parse_report("{\"quick\": true, \"workloads\": []}")
            .unwrap_err()
            .contains("quick"));
        assert!(parse_report("{\"workloads\": []}").is_err());
        assert!(parse_report("{\"quick\": false, \"workloads\": []}").is_ok());
    }
}
