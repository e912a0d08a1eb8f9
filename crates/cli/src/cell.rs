//! `cnet simulate` and `cnet scenario` — one simulated cell.
//!
//! The paper's Section 5 result is one simulated cell at `(n, F, W)`.
//! The two commands differ only in where the cell comes from:
//! `simulate` spells it as flags, `scenario` reads a [`ScenarioSpec`]
//! file that bundles network, [`SimConfig`] (fabric included) and
//! [`Workload`], so an experiment is a committed artifact instead of a
//! flag spelling. Both hand the cell to one runner: one report (the
//! run's measures, then the probe layer's per-balancer contention table
//! and live `(Tog+W)/Tog`), and with `--json PATH` one [`GridReport`]
//! holding one [`RunRecord`] whose `metrics` field is the snapshot.
//!
//! ```text
//! cnet simulate bitonic 32 --n 64 --f 25 --w 1000 --ops 5000 [--json PATH]
//! cnet scenario examples/scenario_lossy_fabric.json [--json PATH]
//! ```

use std::fmt::Write as _;

use cnet_engine::{Backend, RunRecord, WaitMode, Workload};
use cnet_harness::{GridReport, ResultTable};
use cnet_proteus::{SimBackend, SimConfig};
use cnet_topology::Topology;
use serde::{Deserialize as _, Serialize as _};

use crate::args::{CliError, ParsedArgs};
use crate::commands::{build_network, network_by_name, write_json};

/// One complete, reproducible simulated cell: a scenario file's
/// contents, or what `cnet simulate` builds from its flags.
///
/// Named `ScenarioSpec` — `cnet_timing::adversary::Scenario` already
/// names the adversarial schedule shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable cell name, echoed in the report and written as
    /// the record's `label`.
    pub name: String,
    /// Network kind: `bitonic`, `periodic`, `tree`, `merger`, `block`,
    /// or `single`.
    pub kind: String,
    /// Network width (ignored for `single`).
    pub width: usize,
    /// The machine model, fabric included.
    pub config: SimConfig,
    /// The workload to drive through it.
    pub workload: Workload,
}

serde::impl_serde_struct!(ScenarioSpec {
    name,
    kind,
    width,
    config,
    workload,
});

impl ScenarioSpec {
    /// Builds the scenario's network.
    ///
    /// # Errors
    ///
    /// Returns a usage error for an unknown kind and a failed error
    /// for an invalid width.
    pub fn network(&self) -> Result<Topology, CliError> {
        network_by_name(&self.kind, self.width, 2)
    }
}

/// `cnet simulate <kind> <width> [trace.csv]` — the cell spelled as
/// flags; the optional positional receives the operation trace as CSV.
pub fn simulate(args: &ParsedArgs) -> Result<String, CliError> {
    let net = build_network(args)?;
    let workload = Workload {
        total_ops: args.num("ops")?.unwrap_or(5000),
        wait_mode: if args.flag("random-wait") {
            WaitMode::UniformRandom
        } else {
            WaitMode::Fixed
        },
        ..Workload::paper(
            args.required("n")?,
            args.required("f")?,
            args.required("w")?,
        )
    };
    let seed = args.num("seed")?.unwrap_or(1);
    let spec = ScenarioSpec {
        name: format!(
            "n={},F={}%,W={}",
            workload.processors, workload.delayed_percent, workload.wait_cycles
        ),
        kind: args.positional(0, "kind")?.to_string(),
        width: net.output_width(),
        config: if args.flag("prism") {
            SimConfig::diffracting(seed)
        } else {
            SimConfig::queue_lock(seed)
        },
        workload,
    };
    run_cell("simulate", spec, &net, args.positional_opt(2), args)
}

/// `cnet scenario <file>` — the cell read from a [`ScenarioSpec`] file.
pub fn scenario(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args.positional(0, "scenario file")?;
    let text = std::fs::read_to_string(path).map_err(CliError::failed)?;
    let value = serde::json::from_str(&text).map_err(CliError::failed)?;
    let spec = ScenarioSpec::from_value(&value).map_err(CliError::failed)?;
    let net = spec.network()?;
    run_cell("scenario", spec, &net, None, args)
}

/// Validates and runs one cell on `net`, writes its trace and JSON
/// record when asked, and renders the report; `command` names the
/// loader in both.
fn run_cell(
    command: &str,
    spec: ScenarioSpec,
    net: &Topology,
    trace: Option<&str>,
    args: &ParsedArgs,
) -> Result<String, CliError> {
    let ScenarioSpec {
        name,
        kind,
        config,
        workload,
        ..
    } = spec;
    config.fabric.validate().map_err(CliError::failed)?;
    let outcome = SimBackend::new(net, config)
        .try_run(&workload)
        .map_err(CliError::failed)?;
    let stats = &outcome.stats;
    if let Some(path) = trace {
        let csv = cnet_timing::io::operations_to_csv(&stats.operations);
        std::fs::write(path, csv).map_err(CliError::failed)?;
    }
    let record = RunRecord::from_outcome(name, &kind, &workload, config.seed, &outcome);
    let summary = &record.stats;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{command} `{}`: {kind} width {} ({} balancers)",
        record.label,
        net.output_width(),
        net.node_count()
    );
    let fabric = &config.fabric;
    if fabric.is_degenerate() {
        let _ = writeln!(
            out,
            "fabric: degenerate wire (delay {}, jitter {})",
            fabric.link.delay, fabric.link.jitter
        );
    } else {
        let _ = writeln!(
            out,
            "fabric: {:?}, link delay {} jitter {} service {} cap {} loss {}/1M, \
             switch service {} cap {}, {}",
            fabric.shape,
            fabric.link.delay,
            fabric.link.jitter,
            fabric.link.service,
            fabric.link.capacity,
            fabric.link.loss_per_million,
            fabric.switch.service,
            fabric.switch.capacity,
            if fabric.backpressure {
                "backpressure (NACK)"
            } else {
                "drop-tail"
            },
        );
    }
    let _ = writeln!(
        out,
        "ops: {}  sim time: {} cycles  throughput: {:.5} ops/cycle",
        summary.completed_ops, summary.sim_time, summary.throughput
    );
    let _ = writeln!(
        out,
        "Tog: {:.1}  avg c2/c1 = (Tog+W)/Tog: {:.2}",
        summary.avg_toggle_wait, summary.average_ratio
    );
    let _ = writeln!(
        out,
        "non-linearizable (Def 2.4): {} ({:.3}%)  program-order: {}",
        summary.nonlinearizable,
        summary.nonlinearizable_ratio * 100.0,
        summary.program_order_violations,
    );
    let f = stats
        .sim
        .expect("a simulated run keeps its counters")
        .fabric;
    let _ = writeln!(
        out,
        "fabric attempts: {}  loss drops: {}  full drops: {}  nack retries: {}  \
         forced: {}  peak queue: {}",
        f.attempts,
        f.loss_drops,
        f.full_drops,
        f.nack_retries,
        f.forced_deliveries,
        f.max_queue_depth,
    );
    let step = if stats.output_counts.is_step() {
        "yes"
    } else {
        "NO"
    };
    let _ = writeln!(out, "output counts form a step: {step}");
    let _ = writeln!(
        out,
        "toggles: {}  diffracted pairs: {}  deepest lock queue: {}",
        summary.toggle_count, summary.diffraction_pairs, summary.max_lock_queue
    );

    // the probe layer is always compiled into `cnet`, so every run
    // carries its snapshot
    if let Some(metrics) = &stats.metrics {
        let w = workload.wait_cycles;
        let mut table = ResultTable::new(
            format!(
                "per-balancer contention ({kind} width {}, {})",
                net.output_width(),
                record.label
            ),
            &[
                "visits",
                "toggles",
                "Tog",
                "diffr",
                "lock wait",
                "lock hold",
                "(Tog+W)/Tog",
            ],
        );
        for b in metrics.balancers.iter().filter(|b| b.visits > 0) {
            table.push_row(
                format!("node {}", b.node),
                vec![
                    b.visits.to_string(),
                    b.toggles.to_string(),
                    format!("{:.1}", b.avg_toggle_wait()),
                    b.diffracted.to_string(),
                    b.lock_wait_total.to_string(),
                    b.lock_hold_total.to_string(),
                    format!("{:.2}", b.average_ratio(w)),
                ],
            );
        }
        let live = &metrics.network;
        let _ = writeln!(out);
        out.push_str(&table.to_text());
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "operations: {}  wire latency c1/c2 estimate: {:.0}/{:.0} cycles",
            live.operations, live.c1_estimate, live.c2_estimate
        );
        let _ = writeln!(
            out,
            "live Tog: {:.1}  live avg c2/c1 = (Tog+W)/Tog: {:.4}  offline (RunStats): {:.4}",
            live.avg_toggle_wait, live.average_ratio, summary.average_ratio
        );
        let _ = writeln!(
            out,
            "non-linearizable: {}  magnitude total/max: {}/{}",
            live.nonlinearizable, live.violation_magnitude_total, live.violation_magnitude_max
        );
    }

    let grid = GridReport {
        title: format!("cnet {command}"),
        base_seed: config.seed,
        threads: 1,
        wall_ms: record.wall_ms,
        records: vec![record],
    };
    write_json(args, &grid.to_value())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_engine::ArrivalProcess;
    use cnet_proteus::{Fabric, FabricShape, LinkSpec};

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "lossy".to_string(),
            kind: "bitonic".to_string(),
            width: 16,
            config: SimConfig {
                fabric: Fabric {
                    shape: FabricShape::TwoTier { spines: 2 },
                    link: LinkSpec {
                        delay: 20,
                        jitter: 100,
                        service: 8,
                        capacity: 16,
                        loss_per_million: 10_000,
                    },
                    backpressure: true,
                    ..Fabric::degenerate(20, 100)
                },
                ..SimConfig::queue_lock(7)
            },
            workload: Workload {
                total_ops: 500,
                wait_mode: WaitMode::Fixed,
                arrival: ArrivalProcess::Open { mean_gap: 40 },
                ..Workload::paper(32, 25, 1000)
            },
        }
    }

    #[test]
    fn scenario_round_trips_through_serde() {
        let spec = sample();
        let text = serde::json::to_string_pretty(&spec.to_value());
        let back = ScenarioSpec::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn scenario_runs_end_to_end_from_a_file() {
        let spec = sample();
        let path = std::env::temp_dir().join(format!("cnet-scenario-{}", std::process::id()));
        std::fs::write(&path, serde::json::to_string_pretty(&spec.to_value())).unwrap();
        let json = std::env::temp_dir().join(format!("cnet-scenario-out-{}", std::process::id()));
        let args = ParsedArgs::parse(&[
            path.to_str().unwrap().to_string(),
            "--json".to_string(),
            json.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let out = scenario(&args).unwrap();
        assert!(out.contains("scenario `lossy`: bitonic width 16"), "{out}");
        assert!(out.contains("ops: 500"), "{out}");
        assert!(out.contains("output counts form a step: yes"), "{out}");
        assert!(out.contains("per-balancer contention (bitonic width 16, lossy)"));
        // the JSON report is one grid of one record, probe snapshot
        // included
        let text = std::fs::read_to_string(&json).unwrap();
        let grid = GridReport::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(grid.title, "cnet scenario");
        let [record] = grid.records.as_slice() else {
            panic!("one record expected: {grid:?}");
        };
        assert_eq!(
            (record.label.as_str(), record.kind.as_str()),
            ("lossy", "bitonic")
        );
        assert_eq!(record.stats.completed_ops, 500);
        assert_eq!(record.metrics.as_ref().unwrap().network.operations, 500);
    }

    #[test]
    fn simulate_writes_the_operation_trace() {
        let path = std::env::temp_dir().join(format!("cnet-simtrace-{}.csv", std::process::id()));
        let args = ParsedArgs::parse(
            &[
                "bitonic",
                "8",
                path.to_str().unwrap(),
                "--n",
                "8",
                "--f",
                "0",
                "--w",
                "0",
                "--ops",
                "50",
            ]
            .map(String::from),
        )
        .unwrap();
        let out = simulate(&args).unwrap();
        assert!(out.contains("ops: 50 "), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            cnet_timing::io::operations_from_csv(&csv).unwrap().len(),
            50
        );
        assert_eq!(csv.lines().count(), 51, "header + one row per operation");
    }

    #[test]
    fn committed_example_scenario_drops_and_measures_def_2_4() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenario_lossy_fabric.json"
        );
        let args = ParsedArgs::parse(&[path.to_string()]).unwrap();
        let out = scenario(&args).unwrap();
        assert!(out.contains("non-linearizable (Def 2.4):"), "{out}");
        assert!(out.contains("backpressure (NACK)"), "{out}");
        // the lossy fabric must actually exercise the retry machinery,
        // and quiescent counts must stay gap-free regardless
        assert!(out.contains("output counts form a step: yes"), "{out}");
        let value = serde::json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spec = ScenarioSpec::from_value(&value).unwrap();
        let outcome = SimBackend::new(&spec.network().unwrap(), spec.config)
            .try_run(&spec.workload)
            .unwrap();
        assert!(
            outcome.stats.sim.unwrap().fabric.loss_drops > 0,
            "1% loss over ~44k hop attempts must drop something: {:?}",
            outcome.stats.sim
        );
        assert_eq!(outcome.stats.output_counts.total(), 2000);
    }

    #[test]
    fn unknown_kind_is_a_usage_error() {
        let spec = ScenarioSpec {
            kind: "moebius".to_string(),
            ..sample()
        };
        assert!(spec.network().is_err());
    }

    #[test]
    fn an_invalid_fabric_or_workload_is_rejected_before_running() {
        let (mut lossy, mut delayed) = (sample(), sample());
        lossy.config.fabric.link.loss_per_million = 2_000_000;
        delayed.workload.delayed_percent = 200;
        for (spec, names) in [(lossy, "loss"), (delayed, "delayed_percent")] {
            let path =
                std::env::temp_dir().join(format!("cnet-scenario-{names}-{}", std::process::id()));
            std::fs::write(&path, serde::json::to_string_pretty(&spec.to_value())).unwrap();
            let args = ParsedArgs::parse(&[path.to_str().unwrap().to_string()]).unwrap();
            let err = scenario(&args).unwrap_err();
            assert!(err.to_string().contains(names), "{err}");
        }
    }
}
