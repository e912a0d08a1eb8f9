//! The versioned, serializable `metrics` block.
//!
//! A [`MetricsSnapshot`] is what a probe layer distils a run into: one
//! [`BalancerMetrics`] row per node plus one network-level
//! [`NetworkMetrics`]. The harness embeds it in `RunRecord` as the
//! `metrics` JSON field; `cnet simulate` and `cnet scenario` render it
//! as a contention table. The block carries its own schema version —
//! independent of the `RunRecord` envelope version — so readers can
//! evolve the two at different cadences.

use crate::hist::LogHistogram;
use cnet_timing::measure;

/// Version of the `metrics` JSON block layout.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Contention metrics for a single balancer (node) of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerMetrics {
    /// Node index within the network's node array.
    pub node: usize,
    /// Tokens that visited this node (toggled or diffracted).
    pub visits: u64,
    /// Tokens that went through the toggle (critical section).
    pub toggles: u64,
    /// Total cycles tokens waited before toggling — this node's share
    /// of the paper's `Tog` numerator.
    pub toggle_wait_total: u64,
    /// Tokens that left via a prism diffraction instead of the toggle.
    pub diffracted: u64,
    /// Total cycles spent waiting to acquire this node's lock (live
    /// runs; equals `toggle_wait_total` in the simulator, where
    /// queueing *is* the lock wait).
    pub lock_wait_total: u64,
    /// Total cycles the node's lock was held (live runs; the
    /// simulator reports `toggles x toggle_cost`).
    pub lock_hold_total: u64,
    /// Distribution of per-visit waits at this node.
    pub wait_hist: LogHistogram,
}

impl BalancerMetrics {
    /// This node's average toggle wait (`Tog_b`); falls back to the
    /// all-visit mean when nothing toggled.
    #[must_use]
    pub fn avg_toggle_wait(&self) -> f64 {
        measure::avg_toggle_wait(
            self.toggle_wait_total,
            self.toggles,
            self.wait_hist.sum(),
            self.visits,
        )
    }

    /// The Section 5 ratio `(Tog_b + W)/Tog_b` for this balancer.
    #[must_use]
    pub fn average_ratio(&self, wait_cycles: u64) -> f64 {
        measure::average_ratio(
            self.toggle_wait_total,
            self.toggles,
            self.wait_hist.sum(),
            self.visits,
            wait_cycles,
        )
    }
}

serde::impl_serde_struct!(BalancerMetrics {
    node,
    visits,
    toggles,
    toggle_wait_total,
    diffracted,
    lock_wait_total,
    lock_hold_total,
    wait_hist,
});

/// Network-level metrics: live `c1`/`c2` estimates, the Figure 7
/// ratio, latency distributions and violation telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkMetrics {
    /// Completed operations observed.
    pub operations: u64,
    /// Live `c1` estimate: the *fastest* wire traversal observed
    /// (cycles). The paper's `c1` is the uncontended traversal time;
    /// the minimum over a run converges on it from above.
    pub c1_estimate: f64,
    /// Live `c2` estimate: the *slowest* wire traversal observed.
    pub c2_estimate: f64,
    /// The paper's `Tog`, computed live from the probe totals.
    pub avg_toggle_wait: f64,
    /// The live Section 5 / Figure 7 estimate `(Tog + W)/Tog`.
    pub average_ratio: f64,
    /// Distribution of per-wire (per-hop) traversal latencies.
    pub wire_latency_hist: LogHistogram,
    /// Distribution of end-to-end operation latencies.
    pub op_latency_hist: LogHistogram,
    /// Distribution of pending-event-queue depths sampled at each
    /// enqueue (simulator runs; empty for live hardware runs).
    pub queue_depth_hist: LogHistogram,
    /// Non-linearizable operations (Definition 2.4), as judged on the
    /// bracket the run's own verdict uses — see
    /// [`NetworkMetrics::set_violations`].
    pub nonlinearizable: u64,
    /// Sum of violation magnitudes (total positions out of order).
    pub violation_magnitude_total: u64,
    /// Largest single violation magnitude.
    pub violation_magnitude_max: u64,
    /// Distribution of violation magnitudes.
    pub violation_magnitude_hist: LogHistogram,
}

impl NetworkMetrics {
    /// Fills the four violation fields from the histogram of non-zero
    /// Definition 2.4 magnitudes. A bare probe snapshot reads all zero;
    /// whoever owns the timestamps the run's verdict is computed on —
    /// the engine's trace assembly, the service's SLO evaluator —
    /// writes that verdict in, so a snapshot never carries a second
    /// opinion.
    pub fn set_violations(&mut self, magnitudes: LogHistogram) {
        self.nonlinearizable = magnitudes.count();
        self.violation_magnitude_total = magnitudes.sum();
        self.violation_magnitude_max = magnitudes.max();
        self.violation_magnitude_hist = magnitudes;
    }
}

serde::impl_serde_struct!(NetworkMetrics {
    operations,
    c1_estimate,
    c2_estimate,
    avg_toggle_wait,
    average_ratio,
    wire_latency_hist,
    op_latency_hist,
    queue_depth_hist,
    nonlinearizable,
    violation_magnitude_total,
    violation_magnitude_max,
    violation_magnitude_hist,
});

/// Telemetry for one fabric queue (a link's drop-tail buffer or a
/// switch egress): what flowed through it and what it refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Fabric queue index within the run's queue plan (destination
    /// queues first, then the switch tier — see the simulator's
    /// fabric layout).
    pub queue: usize,
    /// Tokens this queue finished serving.
    pub serviced: u64,
    /// Peak occupancy (waiters plus the token in service).
    pub max_depth: u64,
    /// Arrivals refused by a full buffer and silently dropped
    /// (`backpressure: false`).
    pub drops: u64,
    /// Arrivals refused by a full buffer and NACKed back to the
    /// sender (`backpressure: true`).
    pub nacks: u64,
}

serde::impl_serde_struct!(LinkMetrics {
    queue,
    serviced,
    max_depth,
    drops,
    nacks,
});

/// Per-queue fabric telemetry, recorded only when a run's fabric is
/// non-degenerate. Run-wide attempt/loss/forced-delivery counters live
/// in the run's `FabricStats`; this block localizes the congestion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FabricTelemetry {
    /// One row per fabric queue that saw traffic, ordered by index.
    pub links: Vec<LinkMetrics>,
}

serde::impl_serde_struct!(FabricTelemetry { links });

impl FabricTelemetry {
    /// Total refused arrivals (drops plus NACKs) across all queues.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.links.iter().map(|l| l.drops + l.nacks).sum()
    }

    /// The busiest queue's row, by serviced tokens.
    #[must_use]
    pub fn hottest(&self) -> Option<&LinkMetrics> {
        self.links.iter().max_by_key(|l| l.serviced)
    }
}

/// One run's complete metrics block: per-balancer rows plus the
/// network roll-up, tagged with the block schema version and the
/// workload's `W` so every ratio in it is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Layout version of this block ([`METRICS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The workload's injected delay `W`, in cycles.
    pub wait_cycles: u64,
    /// Per-balancer contention rows, ordered by node index.
    pub balancers: Vec<BalancerMetrics>,
    /// Network-level roll-up.
    pub network: NetworkMetrics,
    /// Per-queue fabric telemetry; `None`, and absent from the JSON,
    /// for degenerate-fabric runs.
    pub fabric: Option<FabricTelemetry>,
}

serde::impl_serde_struct!(MetricsSnapshot {
    schema_version,
    wait_cycles,
    balancers,
    network,
} omit_empty { fabric });

impl MetricsSnapshot {
    /// Live `c2/c1` from the wire-latency extremes — the quantity
    /// Section 5 argues stays small in practice.
    #[must_use]
    pub fn c2_over_c1(&self) -> f64 {
        if self.network.c1_estimate > 0.0 {
            self.network.c2_estimate / self.network.c1_estimate
        } else {
            1.0
        }
    }
}

/// Frontend-level telemetry: what an elastic frontend (combining,
/// sharding) did *in front of* the network its [`MetricsSnapshot`]
/// describes.
///
/// Kept as its own block — not a field of [`MetricsSnapshot`] — so the
/// metrics schema the committed baselines embed is untouched; the
/// engine carries it alongside the snapshot in `RunOutcome`.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendMetrics {
    /// Distribution of combined-batch widths `k`, one sample per
    /// combiner traversal (`k == 1` = a combiner that found only its
    /// own request).
    pub batch_hist: LogHistogram,
    /// Operations that bypassed combining entirely (publication CAS
    /// lost or the request was withdrawn after spinning).
    pub solo_ops: u64,
    /// Operations routed to each shard, by shard index.
    pub shard_ops: Vec<u64>,
}

serde::impl_serde_struct!(FrontendMetrics {
    batch_hist,
    solo_ops,
    shard_ops,
});

impl FrontendMetrics {
    /// Mean batch width over combiner traversals (1.0 when none ran).
    #[must_use]
    pub fn avg_batch(&self) -> f64 {
        if self.batch_hist.count() > 0 {
            self.batch_hist.sum() as f64 / self.batch_hist.count() as f64
        } else {
            1.0
        }
    }

    /// Fraction of combining-frontend operations that were served by a
    /// combiner traversal rather than going solo — the combiner
    /// occupancy of the publication list.
    #[must_use]
    pub fn combiner_occupancy(&self) -> f64 {
        let combined = self.batch_hist.sum();
        let total = combined + self.solo_ops;
        if total > 0 {
            combined as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Shard-load imbalance: max over mean of per-shard operation
    /// counts (1.0 = perfectly balanced; 0.0 when no shards recorded).
    #[must_use]
    pub fn shard_imbalance(&self) -> f64 {
        if self.shard_ops.is_empty() {
            return 0.0;
        }
        let total: u64 = self.shard_ops.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.shard_ops.len() as f64;
        let max = *self.shard_ops.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize as _, Serialize as _, Value};

    fn sample() -> MetricsSnapshot {
        let mut wait_hist = LogHistogram::new();
        wait_hist.record(10);
        wait_hist.record(30);
        let mut wire = LogHistogram::new();
        wire.record(12);
        wire.record(48);
        MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            wait_cycles: 1000,
            balancers: vec![BalancerMetrics {
                node: 0,
                visits: 2,
                toggles: 2,
                toggle_wait_total: 40,
                diffracted: 0,
                lock_wait_total: 40,
                lock_hold_total: 2,
                wait_hist,
            }],
            network: NetworkMetrics {
                operations: 2,
                c1_estimate: 12.0,
                c2_estimate: 48.0,
                avg_toggle_wait: 20.0,
                average_ratio: 51.0,
                wire_latency_hist: wire,
                op_latency_hist: LogHistogram::new(),
                queue_depth_hist: LogHistogram::new(),
                nonlinearizable: 1,
                violation_magnitude_total: 3,
                violation_magnitude_max: 3,
                violation_magnitude_hist: LogHistogram::new(),
            },
            fabric: None,
        }
    }

    #[test]
    fn round_trips_through_serde() {
        let snap = sample();
        let text = serde::json::to_string_pretty(&snap.to_value());
        let back = MetricsSnapshot::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn schema_version_is_serialized_and_checked() {
        let snap = sample();
        let v = snap.to_value();
        let version: u32 = v.field("schema_version").unwrap();
        assert_eq!(version, METRICS_SCHEMA_VERSION);
        // a block missing its version field must not deserialize
        let Value::Object(fields) = v else {
            panic!("snapshot serializes as an object")
        };
        let stripped: Vec<_> = fields
            .into_iter()
            .filter(|(k, _)| k != "schema_version")
            .collect();
        assert!(MetricsSnapshot::from_value(&Value::Object(stripped)).is_err());
    }

    #[test]
    fn fabric_block_round_trips_and_is_optional() {
        let mut snap = sample();
        // absent: the serialized object must not carry the field at
        // all, so degenerate blocks stay byte-identical to pre-fabric
        let Value::Object(fields) = snap.to_value() else {
            panic!("snapshot serializes as an object")
        };
        assert!(fields.iter().all(|(k, _)| k != "fabric"));
        let back = MetricsSnapshot::from_value(&Value::Object(fields)).unwrap();
        assert_eq!(back.fabric, None);

        snap.fabric = Some(FabricTelemetry {
            links: vec![
                LinkMetrics {
                    queue: 0,
                    serviced: 90,
                    max_depth: 7,
                    drops: 3,
                    nacks: 0,
                },
                LinkMetrics {
                    queue: 5,
                    serviced: 200,
                    max_depth: 2,
                    drops: 0,
                    nacks: 11,
                },
            ],
        });
        let text = serde::json::to_string_pretty(&snap.to_value());
        let back = MetricsSnapshot::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        let fabric = back.fabric.unwrap();
        assert_eq!(fabric.refusals(), 14);
        assert_eq!(fabric.hottest().unwrap().queue, 5);
    }

    #[test]
    fn frontend_metrics_round_trip_through_serde() {
        let mut batch_hist = LogHistogram::new();
        batch_hist.record(4);
        batch_hist.record(8);
        let f = FrontendMetrics {
            batch_hist,
            solo_ops: 3,
            shard_ops: vec![10, 30],
        };
        let text = serde::json::to_string_pretty(&f.to_value());
        let back = FrontendMetrics::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, f);
        assert!((f.avg_batch() - 6.0).abs() < 1e-12);
        assert!((f.combiner_occupancy() - 0.8).abs() < 1e-12);
        assert!((f.shard_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn per_balancer_ratio_uses_the_shared_formula() {
        let snap = sample();
        let b = &snap.balancers[0];
        // Tog_b = 40/2 = 20; (20 + 1000)/20 = 51
        assert!((b.avg_toggle_wait() - 20.0).abs() < 1e-12);
        assert!((b.average_ratio(1000) - 51.0).abs() < 1e-12);
        assert!((snap.c2_over_c1() - 4.0).abs() < 1e-12);
    }
}
