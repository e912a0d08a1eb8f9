//! Every committed JSON artifact loads through the strict reader that
//! owns its schema, and the shapes that older files had are refused
//! with an error naming the field.
//!
//! There is one record schema ([`SCHEMA_VERSION`]) and no fallback for
//! a missing field: a file that predates a field was migrated, not
//! guessed at. This suite is what keeps a hand-edited or stale artifact
//! from being committed.

use std::path::{Path, PathBuf};

use cnet_cli::cell::ScenarioSpec;
use cnet_engine::{Backend, BalancerKind, RunRecord, ShmBackend, Workload, SCHEMA_VERSION};
use cnet_harness::GridReport;
use counting_networks::proteus::SimConfig;
use serde::{Deserialize, Serialize, Value};

fn root(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("artifact is readable");
    serde::json::from_str(&text).expect("artifact is JSON")
}

/// The committed `results/<prefix>*.json`, sorted.
fn committed_json(prefix: &str) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root("results"))
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with(prefix) && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn every_bench_report_loads_and_round_trips_at_the_current_schema() {
    // which reports must exist is the bench registry's to say
    // (crates/bench/tests/results.rs); this holds whatever is committed
    for path in committed_json("BENCH_") {
        let report = json(&path);
        let Some(Value::Array(grids)) = report.get("grids") else {
            panic!("{}: no grids array", path.display());
        };
        for grid in grids {
            let parsed = GridReport::from_value(grid).unwrap_or_else(|e| panic!("{e}"));
            // nothing in the file is outside the schema: what the
            // reader kept is everything that was written
            assert_eq!(&parsed.to_value(), grid, "{}", path.display());
            let Some(Value::Array(records)) = grid.get("records") else {
                panic!("{}: grid without records", path.display());
            };
            for record in records {
                assert_eq!(
                    record.get("schema_version"),
                    Some(&SCHEMA_VERSION.to_value()),
                    "{}",
                    path.display()
                );
            }
        }
    }
}

/// A host-time report is a statement about what an operation costs,
/// and a record with a `metrics` block was written by a live-probe
/// build — one whose per-balancer clock reads cost more than the
/// operation (`cnet-bench` built in one cargo invocation with
/// `cnet-cli` gets the `obs` feature by unification). The binary
/// refuses to run the native suites that way; this keeps such a
/// regeneration from being committed by any other route.
#[test]
fn no_host_time_baseline_was_written_by_a_live_probe_build() {
    let mut probed = Vec::new();
    for suite in ["native", "frontend", "saturation"] {
        let file = format!("results/BENCH_{suite}.json");
        let report = json(&root(&file));
        let Some(Value::Array(grids)) = report.get("grids") else {
            panic!("{file}: no grids array");
        };
        for grid in grids {
            let grid = GridReport::from_value(grid).unwrap_or_else(|e| panic!("{file}: {e}"));
            let live = grid.records.iter().filter(|r| r.metrics.is_some());
            probed.extend(live.map(|r| format!("{file}: {} {}", grid.title, r.label)));
        }
    }
    assert!(
        probed.is_empty(),
        "{} records carry a `metrics` block; regenerate from \
         `cargo build --release -p cnet-bench` alone:\n{}",
        probed.len(),
        probed.join("\n")
    );
}

/// `RunRecord::noisy` widened a regression gate that no longer exists;
/// the reader would skip a leftover key in silence, so the files are
/// held to not having one.
#[test]
fn no_committed_record_carries_a_noisy_key() {
    for path in committed_json("") {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("\"noisy\""), "{}", path.display());
    }
}

#[test]
fn the_soak_record_and_the_scenario_load() {
    let soak = RunRecord::from_value(&json(&root("results/soak-local-10min.json"))).unwrap();
    assert_eq!(soak.backend, "serve");
    assert!(soak.slo.is_some());

    let scenario =
        ScenarioSpec::from_value(&json(&root("examples/scenario_lossy_fabric.json"))).unwrap();
    assert!(!scenario.config.fabric.is_degenerate());
    scenario.network().unwrap();
}

/// The field names of a record's `stats` object.
fn stats_keys(record: &Value) -> Vec<String> {
    let Some(Value::Object(stats)) = record.get("stats") else {
        panic!("a record without a stats object");
    };
    let mut keys: Vec<String> = stats.iter().map(|(key, _)| key.clone()).collect();
    keys.sort();
    keys
}

/// A native run has no simulator counters (`RunStats::sim` is `None`);
/// its record still writes the committed native shape: the four
/// counters as zeros and no `fabric`.
#[test]
fn a_native_record_has_the_committed_native_stats_shape() {
    let report = json(&root("results/BENCH_native.json"));
    let Some(Value::Array(grids)) = report.get("grids") else {
        panic!("no grids");
    };
    let Some(Value::Array(records)) = grids[0].get("records") else {
        panic!("no records");
    };
    let committed = &records[0];
    assert_eq!(committed.get("backend"), Some(&Value::Str("shm".into())));

    let net = counting_networks::topology::constructions::bitonic(8).unwrap();
    let workload = Workload {
        total_ops: 200,
        ..Workload::paper(2, 0, 0)
    };
    let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, 3).run(&workload);
    assert!(outcome.stats.sim.is_none());
    let record = RunRecord::from_outcome("n=2", "bitonic", &workload, 3, &outcome);
    let fresh = record.to_value();
    assert_eq!(stats_keys(&fresh), stats_keys(committed));
    for counter in [
        "toggle_count",
        "toggle_wait_total",
        "diffraction_pairs",
        "max_lock_queue",
    ] {
        let Some(stats) = fresh.get("stats") else {
            panic!("no stats");
        };
        assert_eq!(stats.get(counter), Some(&Value::Uint(0)), "{counter}");
    }
    assert!(!stats_keys(&fresh).contains(&"fabric".to_string()));
}

/// One committed record, as an editable field list.
fn committed_record() -> Vec<(String, Value)> {
    let report = json(&root("results/BENCH_figure5.json"));
    let Some(Value::Array(grids)) = report.get("grids") else {
        panic!("no grids");
    };
    let Some(Value::Array(records)) = grids[0].get("records") else {
        panic!("no records");
    };
    let Value::Object(fields) = records[0].clone() else {
        panic!("records are objects");
    };
    fields
}

fn rejection(fields: Vec<(String, Value)>) -> String {
    RunRecord::from_value(&Value::Object(fields))
        .expect_err("the strict reader must refuse this record")
        .to_string()
}

#[test]
fn records_from_before_the_migration_are_refused_by_field_name() {
    assert!(RunRecord::from_value(&Value::Object(committed_record())).is_ok());

    let without = |key: &str| {
        let fields = committed_record();
        rejection(fields.into_iter().filter(|(k, _)| k != key).collect())
    };
    assert!(without("schema_version").contains("missing field `schema_version`"));
    assert!(without("backend").contains("missing field `backend`"));

    let mut newer = committed_record();
    for (key, value) in &mut newer {
        if key == "schema_version" {
            *value = (SCHEMA_VERSION + 1).to_value();
        }
    }
    let err = rejection(newer);
    assert!(err.contains("field `schema_version`"), "{err}");
    assert!(err.contains(&(SCHEMA_VERSION + 1).to_string()), "{err}");
}

#[test]
fn a_sim_config_spelled_with_the_flat_wire_fields_is_refused() {
    let flat = r#"{
        "link_cost": 20,
        "link_jitter": 200,
        "toggle_cost": 200,
        "counter_cost": 0,
        "prism": null,
        "seed": 5
    }"#;
    let err = SimConfig::from_value(&serde::json::from_str(flat).unwrap()).unwrap_err();
    assert!(err.to_string().contains("missing field `fabric`"), "{err}");
}
