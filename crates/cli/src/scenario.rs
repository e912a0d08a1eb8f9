//! `cnet scenario` — run a self-contained scenario description file.
//!
//! A scenario file bundles everything one run needs — network kind and
//! width, the full [`SimConfig`] (fabric included), and the
//! [`Workload`] — as one JSON object, so an experiment is a committed
//! artifact instead of a flag spelling. The same file drives the
//! simulator today and documents the run forever.
//!
//! ```text
//! cnet scenario examples/scenario_lossy_fabric.json [--json PATH]
//! ```

use std::fmt::Write as _;

use cnet_engine::{Backend, SimBackend};
use cnet_proteus::{SimConfig, Workload};
use cnet_topology::Topology;
use serde::{Deserialize as _, Serialize as _, Value};

use crate::args::{CliError, ParsedArgs};

/// A parsed scenario description: one complete, reproducible run.
///
/// Named `ScenarioSpec` — `cnet_timing::adversary::Scenario` already
/// names the adversarial schedule shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name, echoed in the report.
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
        crate::commands::network_by_name(&self.kind, self.width, 2)
    }
}

/// `cnet scenario <file>` — load, validate, run, report.
pub fn scenario(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args.positional(0, "scenario file")?;
    let text = std::fs::read_to_string(path).map_err(CliError::failed)?;
    let value = serde::json::from_str(&text).map_err(CliError::failed)?;
    let spec = ScenarioSpec::from_value(&value).map_err(CliError::failed)?;
    spec.config.fabric.validate().map_err(CliError::failed)?;
    let net = spec.network()?;

    let outcome = SimBackend::new(&net, spec.config)
        .try_run(&spec.workload)
        .map_err(CliError::failed)?;
    let stats = &outcome.stats;
    let summary = stats.summary(spec.workload.wait_cycles);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario `{}`: {} width {} ({} balancers)",
        spec.name,
        spec.kind,
        spec.width,
        net.node_count()
    );
    let fabric = &spec.config.fabric;
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
    let f = stats.fabric;
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

    if let Some(json_path) = args.str_opt("json") {
        let report = Value::Object(vec![
            ("scenario".to_string(), spec.to_value()),
            ("summary".to_string(), summary.to_value()),
        ]);
        std::fs::write(json_path, serde::json::to_string_pretty(&report))
            .map_err(CliError::failed)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_proteus::{ArrivalProcess, Fabric, FabricShape, LinkSpec, WaitMode};

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
        assert!(out.contains("scenario `lossy`"), "{out}");
        assert!(out.contains("ops: 500"), "{out}");
        assert!(out.contains("output counts form a step: yes"), "{out}");
        // the JSON report embeds the spec and the summary
        let report: Value =
            serde::json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let back = ScenarioSpec::from_value(report.get("scenario").unwrap()).unwrap();
        assert_eq!(back, spec);
        assert!(report.get("summary").is_some());
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
        let outcome = cnet_engine::SimBackend::new(&spec.network().unwrap(), spec.config)
            .try_run(&spec.workload)
            .unwrap();
        assert!(
            outcome.stats.fabric.loss_drops > 0,
            "1% loss over ~44k hop attempts must drop something: {:?}",
            outcome.stats.fabric
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
