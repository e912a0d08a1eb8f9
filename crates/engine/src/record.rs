//! The serializable record of one run: one [`RunRecord`] per grid cell,
//! native pass or service soak.

use cnet_obs::MetricsSnapshot;
use serde::{impl_serde_struct, Deserialize, Error, Serialize, Value};

use crate::{RunOutcome, RunStats, StatsSummary, Workload};

/// Version of the [`RunRecord`] JSON envelope, and the only one the
/// reader accepts: every committed artifact was migrated to it, so a
/// record at any other version (or without one) is a typed error, not
/// a guess at what the missing fields meant.
pub const SCHEMA_VERSION: u32 = 6;

/// The `schema_version` field of a [`RunRecord`]: written as
/// [`SCHEMA_VERSION`] and read back only from it, so a record in
/// memory is at the current version by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaVersion;

impl Serialize for SchemaVersion {
    fn to_value(&self) -> Value {
        SCHEMA_VERSION.to_value()
    }
}

impl Deserialize for SchemaVersion {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match u32::from_value(v)? {
            SCHEMA_VERSION => Ok(SchemaVersion),
            other => Err(Error::new(format!(
                "run record schema version {other} is not the supported {SCHEMA_VERSION}"
            ))),
        }
    }
}

/// The serializable summary of one run: a simulated grid cell or
/// standalone simulation, a native pass, or a service soak.
///
/// Every field except `wall_ms` is a pure function of the cell
/// parameters and the seed — that set is the harness's determinism
/// guarantee, and what the byte-identity tests compare. `wall_ms` is
/// host wall-clock and varies run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Envelope version ([`SCHEMA_VERSION`]).
    pub schema_version: SchemaVersion,
    /// Cell label within its sweep (e.g. `"W=100,n=4"` or `"cs=10"`).
    pub label: String,
    /// Network description (e.g. `"Bitonic Counting Network"`).
    pub kind: String,
    /// Family name of the execution backend that produced the record
    /// ([`crate::Backend::name`], or `"serve"` for a service soak).
    pub backend: String,
    /// Concurrency `n`.
    pub processors: usize,
    /// Delayed fraction `F` in percent.
    pub delayed_percent: u32,
    /// Injected wait `W` in cycles.
    pub wait_cycles: u64,
    /// Requested operations.
    pub total_ops: usize,
    /// The derived per-cell seed the simulator ran with.
    pub seed: u64,
    /// The run's scalar measurements.
    pub stats: StatsSummary,
    /// The run's observability block, when the producing build had the
    /// probes enabled. Deterministic (simulated cycles only), so it is
    /// part of the canonical form.
    pub metrics: Option<MetricsSnapshot>,
    /// Host wall-clock spent simulating this cell, in milliseconds.
    /// Excluded from the determinism guarantee.
    pub wall_ms: f64,
    /// Open-loop telemetry from the producing run, when it had any
    /// (async backend, open-loop arrivals). Sojourn latencies are host
    /// nanoseconds, so the block is excluded from the determinism
    /// guarantee, like `wall_ms`.
    pub open_loop: Option<cnet_obs::OpenLoopMetrics>,
    /// Online SLO telemetry from a long-running service soak, when the
    /// producing run was one (`cnet serve`). Sojourn latencies and
    /// breach timestamps are host time, so the block is excluded from
    /// the determinism guarantee, like `wall_ms`.
    pub slo: Option<cnet_obs::SloReport>,
}

impl_serde_struct!(RunRecord {
    schema_version,
    label,
    kind,
    backend,
    processors,
    delayed_percent,
    wait_cycles,
    total_ops,
    seed,
    stats,
    wall_ms,
} omit_empty { metrics, open_loop, slo });

impl RunRecord {
    /// The backend family [`RunRecord::measure`] names. The
    /// simulator's backend takes its name from here, so the string is
    /// written once.
    pub const DEFAULT_BACKEND: &'static str = "sim";

    /// Builds a record of a finished run under
    /// [`RunRecord::DEFAULT_BACKEND`].
    #[must_use]
    pub fn measure(
        label: impl Into<String>,
        kind: impl Into<String>,
        workload: &Workload,
        seed: u64,
        stats: &RunStats,
        wall_ms: f64,
    ) -> Self {
        Self::measure_on(
            Self::DEFAULT_BACKEND,
            label,
            kind,
            workload,
            seed,
            stats,
            wall_ms,
        )
    }

    /// Builds a record from a finished run on a named engine backend.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn measure_on(
        backend: impl Into<String>,
        label: impl Into<String>,
        kind: impl Into<String>,
        workload: &Workload,
        seed: u64,
        stats: &RunStats,
        wall_ms: f64,
    ) -> Self {
        RunRecord {
            schema_version: SchemaVersion,
            label: label.into(),
            kind: kind.into(),
            backend: backend.into(),
            processors: workload.processors,
            delayed_percent: workload.delayed_percent,
            wait_cycles: workload.wait_cycles,
            total_ops: workload.total_ops,
            seed,
            stats: stats.summary(workload.wait_cycles),
            metrics: stats.metrics.clone(),
            wall_ms,
            open_loop: None,
            slo: None,
        }
    }

    /// Builds a record straight from a [`RunOutcome`], tagging it with
    /// the backend that produced it.
    #[must_use]
    pub fn from_outcome(
        label: impl Into<String>,
        kind: impl Into<String>,
        workload: &Workload,
        seed: u64,
        outcome: &RunOutcome,
    ) -> Self {
        RunRecord {
            open_loop: outcome.open_loop.clone(),
            ..Self::measure_on(
                outcome.backend,
                label,
                kind,
                workload,
                seed,
                &outcome.stats,
                outcome.wall_ms,
            )
        }
    }

    /// The record with its wall-clock field zeroed — the canonical form
    /// the determinism tests compare across thread counts.
    #[must_use]
    pub fn canonical(&self) -> Self {
        RunRecord {
            wall_ms: 0.0,
            open_loop: None,
            slo: None,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, wall_ms: f64) -> RunRecord {
        let stats = RunStats {
            operations: vec![],
            completed_by: crate::ProcessMap::per_op(vec![]),
            output_counts: cnet_topology::OutputCounts::zeros(2),
            sim_time: 10,
            node_visits: 2,
            node_wait_total: 20,
            sim: Some(crate::SimCounters {
                toggle_count: 2,
                toggle_wait_total: 20,
                max_lock_queue: 1,
                ..Default::default()
            }),
            nonlinearizable: 0,
            metrics: None,
        };
        RunRecord::measure(
            label,
            "Bitonic Counting Network",
            &Workload::paper(4, 25, 100),
            42,
            &stats,
            wall_ms,
        )
    }

    #[test]
    fn run_record_serde_round_trip() {
        let r = record("W=100,n=4", 1.25);
        let text = serde::json::to_string_pretty(&r.to_value());
        let back = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn run_record_with_metrics_round_trips() {
        let mut r = record("W=100,n=4", 1.25);
        let mut hist = cnet_obs::LogHistogram::new();
        hist.record(12);
        r.metrics = Some(cnet_obs::MetricsSnapshot {
            schema_version: cnet_obs::METRICS_SCHEMA_VERSION,
            wait_cycles: 100,
            balancers: vec![],
            fabric: None,
            network: cnet_obs::NetworkMetrics {
                operations: 1,
                c1_estimate: 12.0,
                c2_estimate: 12.0,
                avg_toggle_wait: 10.0,
                average_ratio: 11.0,
                wire_latency_hist: hist,
                op_latency_hist: cnet_obs::LogHistogram::new(),
                queue_depth_hist: cnet_obs::LogHistogram::new(),
                nonlinearizable: 0,
                violation_magnitude_total: 0,
                violation_magnitude_max: 0,
                violation_magnitude_hist: cnet_obs::LogHistogram::new(),
            },
        });
        let text = serde::json::to_string_pretty(&r.to_value());
        let back = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn open_loop_block_round_trips_and_defaults_none() {
        let mut r = record("gap=500,n=256", 1.0);
        r.open_loop = Some(cnet_obs::open_loop_metrics(
            &[0, 100, 200],
            &[50, 160, 240],
            &[],
            2,
        ));
        let text = serde::json::to_string(&r.to_value());
        assert!(text.contains("\"open_loop\""));
        let back = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);

        // records without the block carry no `open_loop` key, and the
        // canonical form (determinism comparisons) strips it: sojourn
        // latency is host time
        let plain = record("W=100,n=4", 1.0);
        assert!(!serde::json::to_string(&plain.to_value()).contains("\"open_loop\""));
        assert_eq!(r.canonical().open_loop, None);
    }

    #[test]
    fn slo_block_round_trips_and_defaults_none() {
        let mut r = record("soak", 1.0);
        let mut ev = cnet_obs::SloEvaluator::new(cnet_obs::SloPolicy::unbounded(), 2);
        ev.record(0, 10, 7, 50, 0, 0);
        ev.record(20, 30, 2, 60, 7, 1); // 7 finished first
        r.slo = Some(ev.snapshot(99));
        let text = serde::json::to_string(&r.to_value());
        assert!(text.contains("\"slo\""));
        let back = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);

        // records without the block carry no `slo` key, and the
        // canonical form strips it: breach timestamps are host time
        let plain = record("W=100,n=4", 1.0);
        assert!(!serde::json::to_string(&plain.to_value()).contains("\"slo\""));
        assert_eq!(r.canonical().slo, None);
    }

    #[test]
    fn any_other_version_is_rejected_loudly() {
        for version in [SCHEMA_VERSION - 1, SCHEMA_VERSION + 1] {
            let mut v = record("W=100,n=4", 0.0).to_value();
            if let Value::Object(fields) = &mut v {
                fields[0] = ("schema_version".to_string(), version.to_value());
            }
            let err = RunRecord::from_value(&v).unwrap_err().to_string();
            assert!(err.contains("field `schema_version`"), "{err}");
            assert!(err.contains("is not the supported"), "{err}");
        }
    }
}
