//! `cnet simulate` and `cnet scenario` are two loaders of one simulated
//! cell. The committed Figure 5 cells replay through `simulate`, a
//! scenario file and the same cell spelled as flags give one record,
//! and the report carries the probe layer's contention table and live
//! `(Tog+W)/Tog`. Also the command surface, and the flag parser's
//! refusal of a value its type cannot hold and of a repeated flag.

use std::path::{Path, PathBuf};

use cnet_cli::cell::ScenarioSpec;
use cnet_cli::CliError;
use cnet_engine::RunRecord;
use cnet_harness::GridReport;
use counting_networks::engine::{WaitMode, Workload};
use counting_networks::proteus::SimConfig;
use serde::{Deserialize, Serialize, Value};

fn cnet(args: &[&str]) -> Result<String, CliError> {
    let raw: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
    cnet_cli::run(&raw)
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnet-cell-{}-{name}", std::process::id()))
}

/// Runs `cnet` with `--json` and returns the one record it wrote.
fn record(args: &[&str], name: &str) -> RunRecord {
    let path = temp(name);
    let json = path.to_str().unwrap();
    cnet(&[args, &["--json", json]].concat()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let grid = GridReport::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
    let [record] = <[RunRecord; 1]>::try_from(grid.records).expect("one record");
    record
}

#[test]
fn committed_figure5_cells_replay_through_simulate() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_figure5.json");
    let report = serde::json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Value::Array(grids)) = report.get("grids") else {
        panic!("no grids");
    };
    let networks: [&[&str]; 2] = [&["bitonic", "32"], &["tree", "32", "--prism"]];
    assert_eq!(grids.len(), networks.len());
    for (grid, network) in grids.iter().zip(networks) {
        let Some(Value::Array(records)) = grid.get("records") else {
            panic!("no records");
        };
        // the first, a middle and the last cell of the (W, n) grid
        for committed in [&records[0], &records[7], &records[records.len() - 1]] {
            let committed = RunRecord::from_value(committed).unwrap();
            let (n, f, w, ops, seed) = (
                committed.processors.to_string(),
                committed.delayed_percent.to_string(),
                committed.wait_cycles.to_string(),
                committed.total_ops.to_string(),
                committed.seed.to_string(),
            );
            let flags = [
                "--n", &n, "--f", &f, "--w", &w, "--ops", &ops, "--seed", &seed,
            ];
            let replay = record(&[&["simulate"], network, &flags].concat(), "figure5.json");
            assert_eq!(
                replay.stats, committed.stats,
                "{network:?} {}",
                committed.label
            );
        }
    }
}

#[test]
fn scenario_and_simulate_take_one_path() {
    let seed = 41;
    let spec = ScenarioSpec {
        name: "degenerate".to_string(),
        kind: "bitonic".to_string(),
        width: 8,
        config: SimConfig::queue_lock(seed),
        workload: Workload {
            total_ops: 400,
            wait_mode: WaitMode::Fixed,
            ..Workload::paper(16, 50, 1000)
        },
    };
    let file = temp("spec.json");
    std::fs::write(&file, serde::json::to_string_pretty(&spec.to_value())).unwrap();
    let from_file = record(&["scenario", file.to_str().unwrap()], "scenario.json");
    let _ = std::fs::remove_file(&file);
    let from_flags = record(
        &[
            "simulate", "bitonic", "8", "--n", "16", "--f", "50", "--w", "1000", "--ops", "400",
            "--seed", "41",
        ],
        "simulate.json",
    );
    assert_eq!(from_file.stats, from_flags.stats);
    assert!(from_file.metrics.is_some());
    assert_eq!(from_file.metrics, from_flags.metrics);
}

#[test]
fn help_lists_exactly_the_eleven_commands() {
    let help = cnet(&["help"]).unwrap();
    let names: Vec<&str> = help
        .lines()
        .filter_map(|line| line.strip_prefix("  cnet "))
        .map(|rest| rest.split(' ').next().unwrap())
        .collect();
    assert_eq!(
        names.join(" "),
        "measure simulate run scenario saturate attack threshold interleave search serve drive"
    );
    for gone in [
        "observe",
        "topo",
        "verify",
        "check",
        "windows",
        "run-schedule",
    ] {
        let e = cnet(&[gone, "bitonic", "8"]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{gone}: {e:?}");
        assert!(
            e.to_string()
                .starts_with(&format!("unknown command `{gone}`")),
            "{e}"
        );
    }
}

#[test]
fn a_flag_its_type_cannot_hold_or_given_twice_is_a_usage_error() {
    // 2^32 + 25 used to wrap to 25, and 2^32 + 100 to 100
    for command in ["simulate", "run"] {
        let e = cnet(&[
            command,
            "bitonic",
            "8",
            "--n",
            "4",
            "--f",
            "4294967321",
            "--w",
            "100",
            "--ops",
            "200",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{command}: {e:?}");
        assert!(e.to_string().starts_with("--f "), "{e}");
    }
    let e = cnet(&[
        "run",
        "bitonic",
        "8",
        "--n",
        "4",
        "--n",
        "64",
        "--ops",
        "200",
        "--backend",
        "sim",
    ])
    .unwrap_err();
    assert!(matches!(e, CliError::Usage(_)), "{e:?}");
    assert!(e.to_string().contains("--n"), "{e}");
}

#[test]
fn simulate_reports_per_balancer_contention() {
    let out = cnet(&[
        "simulate", "bitonic", "8", "--n", "16", "--f", "25", "--w", "1000", "--ops", "400",
    ])
    .unwrap();
    assert!(
        out.contains("per-balancer contention (bitonic width 8, n=16,F=25%,W=1000)"),
        "{out}"
    );
    assert!(out.contains("\nnode 0 "), "{out}");
    assert!(out.contains("(Tog+W)/Tog"), "{out}");
    assert!(out.contains("live avg c2/c1"), "{out}");
}

#[test]
fn simulate_prism_counts_diffractions() {
    let out = cnet(&[
        "simulate", "tree", "8", "--prism", "--n", "32", "--f", "25", "--w", "1000", "--ops", "500",
    ])
    .unwrap();
    assert!(out.contains("per-balancer contention (tree"), "{out}");
    assert!(!out.contains("diffracted pairs: 0 "), "{out}");
}

#[test]
fn simulate_is_deterministic_for_a_seed() {
    let cell = [
        "simulate", "bitonic", "8", "--n", "64", "--f", "25", "--w", "1000", "--ops", "300",
        "--seed", "7",
    ];
    assert_eq!(cnet(&cell).unwrap(), cnet(&cell).unwrap());
}

#[test]
fn simulate_refuses_an_unknown_kind() {
    let e = cnet(&["simulate", "torus", "8", "--n", "4", "--f", "0", "--w", "0"]).unwrap_err();
    assert!(matches!(e, CliError::Usage(_)), "{e:?}");
}

#[test]
fn simulate_json_carries_the_metrics_snapshot() {
    let record = record(
        &[
            "simulate", "bitonic", "8", "--n", "8", "--f", "25", "--w", "1000", "--ops", "200",
        ],
        "metrics.json",
    );
    let metrics = record.metrics.expect("the probe layer is compiled in");
    assert_eq!(metrics.schema_version, cnet_obs::METRICS_SCHEMA_VERSION);
    assert_eq!(metrics.network.operations, 200);
    assert!(!metrics.balancers.is_empty());
}

#[test]
fn live_ratio_equals_the_offline_one() {
    // EXPERIMENTS.md "Observability", n = 4
    let out = cnet(&[
        "simulate", "bitonic", "32", "--n", "4", "--f", "25", "--w", "1000", "--ops", "5000",
        "--seed", "2910",
    ])
    .unwrap();
    let line = out
        .lines()
        .find(|l| l.starts_with("live Tog:"))
        .expect("the live line is printed");
    let (live, offline) = line
        .split_once("(Tog+W)/Tog: ")
        .and_then(|(_, rest)| rest.split_once("  offline (RunStats): "))
        .expect("live and offline ratios");
    assert_eq!((live, offline), ("5.9773", "5.9773"), "{line}");
}
