//! The measurements of one run, whatever backend produced it.

use cnet_timing::{measure, program_order, Operation};
use cnet_topology::OutputCounts;

/// Everything measured during one run: simulated, native or served.
///
/// The two headline quantities mirror the paper's:
/// [`RunStats::nonlinearizable_ratio`] (Figures 5 and 6) and
/// [`RunStats::average_ratio`] (Figure 7).
///
/// Timestamps are in the producing backend's clock: simulated cycles,
/// or ticks of a native run's global logical clock. The simulator's
/// own instrumentation (toggles, prism pairs, lock queues, the
/// fabric) is [`RunStats::sim`], `None` on every other backend; the
/// `Tog` fallback fields (`node_visits`, `node_wait_total`) are shared,
/// so [`RunStats::average_ratio`] is defined on every run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// One record per completed operation, in completion order. The
    /// `token` field is the completion index; `start`/`end` are the
    /// timestamps used for the linearizability check.
    pub operations: Vec<Operation>,
    /// The processor that performed each operation, parallel to
    /// `operations` (the `Operation::input` field holds the *network
    /// input*, which several processors can share). The simulator and
    /// a served history name one per operation; a native run names one
    /// per chunk of slots its client threads claimed.
    pub completed_by: ProcessMap,
    /// Final per-counter totals (must form a step — checked in tests).
    pub output_counts: OutputCounts,
    /// The time at which the last operation completed: simulated
    /// cycles, or the final logical-clock reading of a native run.
    pub sim_time: u64,
    /// Total node visits (toggles + diffracted tokens). A native run,
    /// which has no per-balancer instrumentation, counts one visit per
    /// operation.
    pub node_visits: u64,
    /// Total cycles spent at nodes across all visits (arrival to
    /// routing decision); a native run's summed operation latency.
    pub node_wait_total: u64,
    /// The simulator's balancer and fabric counters; `None` on a
    /// backend that does not simulate the machine.
    pub sim: Option<SimCounters>,
    /// Non-linearizable operations (Definition 2.4): the simulator
    /// grades each operation as it completes against the witness it
    /// recorded when it started, the native backends scan their trace
    /// once — no consumer sweeps again.
    pub nonlinearizable: usize,
    /// Per-balancer contention metrics and network-level live
    /// estimates, recorded by the `cnet-obs` probes. `None` unless the
    /// simulator was built with the `obs` feature — the field itself
    /// always exists so downstream records can carry metrics without a
    /// feature of their own.
    pub metrics: Option<cnet_obs::MetricsSnapshot>,
}

impl RunStats {
    /// The number of non-linearizable operations (Definition 2.4).
    #[must_use]
    pub fn nonlinearizable_count(&self) -> usize {
        self.nonlinearizable
    }

    /// The fraction of non-linearizable operations — the y-axis of the
    /// paper's Figures 5 and 6.
    #[must_use]
    pub fn nonlinearizable_ratio(&self) -> f64 {
        if self.operations.is_empty() {
            0.0
        } else {
            self.nonlinearizable as f64 / self.operations.len() as f64
        }
    }

    /// The average time a token waits before toggling a balancer — the
    /// paper's `Tog`. Falls back to the all-visit average when no
    /// toggles happened (a fully-diffracted run, or a backend without
    /// [`SimCounters`]), so the ratio below is always defined.
    #[must_use]
    pub fn avg_toggle_wait(&self) -> f64 {
        let sim = self.sim.unwrap_or_default();
        measure::avg_toggle_wait(
            sim.toggle_wait_total,
            sim.toggle_count,
            self.node_wait_total,
            self.node_visits,
        )
    }

    /// The paper's Figure 7 statistic: the measured average
    /// `c2/c1 = (Tog + W) / Tog`.
    ///
    /// Returns infinity for a (degenerate) run with zero measured wait
    /// and a positive `W`.
    #[must_use]
    pub fn average_ratio(&self, wait_cycles: u64) -> f64 {
        let sim = self.sim.unwrap_or_default();
        measure::average_ratio(
            sim.toggle_wait_total,
            sim.toggle_count,
            self.node_wait_total,
            self.node_visits,
            wait_cycles,
        )
    }

    /// Operations whose own processor saw a *smaller* value than one of
    /// its earlier operations — the per-process (sequential-consistency
    /// style) restriction of the violation count. The simulator starts
    /// a processor's next operation strictly after the previous one's
    /// response, so every program-order violation is also counted by
    /// [`Self::nonlinearizable_count`].
    #[must_use]
    pub fn program_order_violations(&self) -> usize {
        // look processes up by index in the completed_by map — no
        // clone-and-retag of the trace
        program_order::count_program_order_violations_by(&self.operations, |i| {
            self.completed_by.process_of(i) as usize
        })
    }

    /// Mean operation latency in simulated cycles.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.operations.is_empty() {
            return 0.0;
        }
        let total: u64 = self.operations.iter().map(|o| o.end - o.start).sum();
        total as f64 / self.operations.len() as f64
    }

    /// Completed operations per simulated cycle (throughput).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.sim_time == 0 {
            return 0.0;
        }
        self.operations.len() as f64 / self.sim_time as f64
    }

    /// The serializable scalar summary of this run: every headline
    /// number, none of the per-operation trace. `wait_cycles` is the
    /// workload's `W`, needed for the Figure 7 ratio.
    ///
    /// The non-linearizable count is the one the run produced; nothing
    /// here judges Definition 2.4 again. A run without [`SimCounters`]
    /// writes zero simulator counters and no `fabric`, the same JSON a
    /// simulated run on an idle wire writes for them.
    #[must_use]
    pub fn summary(&self, wait_cycles: u64) -> StatsSummary {
        let sim = self.sim.unwrap_or_default();
        StatsSummary {
            completed_ops: self.operations.len(),
            sim_time: self.sim_time,
            nonlinearizable: self.nonlinearizable,
            nonlinearizable_ratio: self.nonlinearizable_ratio(),
            program_order_violations: self.program_order_violations(),
            avg_toggle_wait: self.avg_toggle_wait(),
            average_ratio: self.average_ratio(wait_cycles),
            mean_latency: self.mean_latency(),
            throughput: self.throughput(),
            toggle_count: sim.toggle_count,
            toggle_wait_total: sim.toggle_wait_total,
            diffraction_pairs: sim.diffraction_pairs,
            node_visits: self.node_visits,
            max_lock_queue: sim.max_lock_queue,
            fabric: (sim.fabric != Default::default()).then_some(sim.fabric),
        }
    }
}

/// The counters only the discrete-event simulator keeps: its balancers'
/// critical sections and prisms, and its interconnect fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Number of toggle transitions (balancer critical sections run).
    pub toggle_count: u64,
    /// Total cycles tokens waited before toggling (the paper's `Tog`
    /// numerator).
    pub toggle_wait_total: u64,
    /// Number of diffracted *pairs* in prism arrays.
    pub diffraction_pairs: u64,
    /// The deepest FIFO queue observed at any balancer lock — a direct
    /// contention indicator.
    pub max_lock_queue: u64,
    /// Interconnect-fabric counters (transmission attempts, drops,
    /// retries). All zero on the degenerate legacy wire, which never
    /// enters the fabric queue machinery.
    pub fabric: FabricStats,
}

/// The processor behind each operation of a run, stored once per
/// fixed-size chunk of slots: operation `i` is processor
/// `owners[i / chunk]`'s.
///
/// A chunk of one slot is a per-operation map (the simulator's, a
/// served history's). A native run's client threads claim the returned
/// buffer a chunk at a time, so its map holds one owner per claimed
/// chunk: 4 B per chunk instead of 4 B per operation. Two maps are
/// equal when they name the same processor for every operation,
/// whatever their chunks.
#[derive(Debug, Clone)]
pub struct ProcessMap {
    chunk: usize,
    owners: Vec<u32>,
    len: usize,
}

impl ProcessMap {
    /// A map naming one processor per operation: operation `i` is
    /// `owners[i]`'s.
    #[must_use]
    pub fn per_op(owners: Vec<u32>) -> Self {
        ProcessMap {
            chunk: 1,
            len: owners.len(),
            owners,
        }
    }

    /// A map over `len` operations in chunks of `chunk` slots, the last
    /// one possibly partial: operation `i` is `owners[i / chunk]`'s.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero, or unless `owners` names one
    /// processor per chunk (`len.div_ceil(chunk)` of them).
    #[must_use]
    pub fn chunked(chunk: usize, owners: Vec<u32>, len: usize) -> Self {
        assert!(chunk > 0, "a chunk holds at least one slot");
        assert_eq!(
            owners.len(),
            len.div_ceil(chunk),
            "one owner per chunk of {chunk} slots over {len} operations"
        );
        ProcessMap { chunk, owners, len }
    }

    /// The number of operations the map covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map covers no operation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The processor that performed operation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Self::len`].
    #[must_use]
    pub fn process_of(&self, i: usize) -> u32 {
        assert!(i < self.len, "operation {i} of {}", self.len);
        self.owners[i / self.chunk]
    }

    /// The processor of every operation, in operation order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.owners[i / self.chunk])
    }
}

impl PartialEq for ProcessMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ProcessMap {}

/// Always-on counters of the interconnect-fabric dynamics (see
/// [`cnet_topology::fabric`]): what the wire refused and what the
/// retry policy did about it. Every counter is zero on the degenerate
/// legacy wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricStats {
    /// Transmission attempts onto the fabric (first tries + retries).
    pub attempts: u64,
    /// Attempts killed by the link's random loss draw.
    pub loss_drops: u64,
    /// Tokens tail-dropped at a full queue (backpressure off).
    pub full_drops: u64,
    /// Tokens NACKed at a full queue (backpressure on).
    pub nack_retries: u64,
    /// Tokens force-delivered after exhausting the per-hop attempt
    /// budget — the fabric's guaranteed-termination escape hatch.
    pub forced_deliveries: u64,
    /// Deepest fabric queue observed (waiters + the token in service).
    pub max_queue_depth: u64,
}

serde::impl_serde_struct!(FabricStats {
    attempts,
    loss_drops,
    full_drops,
    nack_retries,
    forced_deliveries,
    max_queue_depth,
});

impl FabricStats {
    /// Tokens the fabric refused at least once (lost or tail-dropped
    /// or NACKed attempts).
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.loss_drops + self.full_drops + self.nack_retries
    }

    /// Retransmissions actually scheduled: every refusal retries
    /// except the final one of a force-delivered token.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.refusals().saturating_sub(self.forced_deliveries)
    }
}

/// The scalar measurements of one run, in serializable form — what the
/// experiment harness records per grid cell.
///
/// Derived quantities (the counts and ratios) are frozen at summary
/// time so a deserialized record stands on its own without the
/// operation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSummary {
    /// Operations completed.
    pub completed_ops: usize,
    /// Simulated time of the last completion.
    pub sim_time: u64,
    /// Non-linearizable operations (Definition 2.4).
    pub nonlinearizable: usize,
    /// `nonlinearizable / completed_ops`.
    pub nonlinearizable_ratio: f64,
    /// Violations visible to a single processor's program order.
    pub program_order_violations: usize,
    /// The paper's `Tog`.
    pub avg_toggle_wait: f64,
    /// The paper's measured `c2/c1 = (Tog + W)/Tog`.
    pub average_ratio: f64,
    /// Mean operation latency in cycles.
    pub mean_latency: f64,
    /// Operations per simulated cycle.
    pub throughput: f64,
    /// Balancer toggle transitions.
    pub toggle_count: u64,
    /// Total cycles waited before toggling.
    pub toggle_wait_total: u64,
    /// Diffracted prism pairs.
    pub diffraction_pairs: u64,
    /// Total node visits.
    pub node_visits: u64,
    /// Deepest balancer-lock queue observed.
    pub max_lock_queue: u64,
    /// Fabric counters, when the run's interconnect refused anything
    /// (`None`, and absent from the JSON, on degenerate-wire runs).
    pub fabric: Option<FabricStats>,
}

serde::impl_serde_struct!(StatsSummary {
    completed_ops,
    sim_time,
    nonlinearizable,
    nonlinearizable_ratio,
    program_order_violations,
    avg_toggle_wait,
    average_ratio,
    mean_latency,
    throughput,
    toggle_count,
    toggle_wait_total,
    diffraction_pairs,
    node_visits,
    max_lock_queue,
} omit_empty { fabric });

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(ops: Vec<Operation>) -> RunStats {
        let n = ops.len();
        let nonlinearizable = cnet_timing::linearizability::count_nonlinearizable(&ops);
        RunStats {
            operations: ops,
            completed_by: ProcessMap::per_op(vec![0; n]),
            output_counts: OutputCounts::zeros(2),
            sim_time: 100,
            node_visits: 4,
            node_wait_total: 40,
            sim: Some(SimCounters {
                toggle_count: 4,
                toggle_wait_total: 40,
                ..SimCounters::default()
            }),
            nonlinearizable,
            metrics: None,
        }
    }

    fn op(token: usize, start: u64, end: u64, value: u64) -> Operation {
        Operation {
            token,
            input: 0,
            start,
            end,
            counter: 0,
            value,
        }
    }

    #[test]
    fn ratio_and_latency() {
        let s = stats_with(vec![op(0, 0, 10, 1), op(1, 20, 30, 0)]);
        assert_eq!(s.nonlinearizable_count(), 1);
        assert!((s.nonlinearizable_ratio() - 0.5).abs() < 1e-12);
        assert!((s.mean_latency() - 10.0).abs() < 1e-12);
        assert!((s.throughput() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn average_ratio_formula() {
        let s = stats_with(vec![]);
        assert!((s.avg_toggle_wait() - 10.0).abs() < 1e-12);
        assert!((s.average_ratio(100) - 11.0).abs() < 1e-12);
        assert!((s.average_ratio(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_runs_are_safe() {
        let mut s = stats_with(vec![]);
        s.sim = Some(SimCounters::default());
        s.node_visits = 0;
        s.node_wait_total = 0;
        assert_eq!(s.avg_toggle_wait(), 0.0);
        assert_eq!(s.average_ratio(0), 1.0);
        assert!(s.average_ratio(10).is_infinite());
        assert_eq!(s.mean_latency(), 0.0);
        s.sim_time = 0;
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_serde() {
        use serde::{Deserialize as _, Serialize as _};
        let s = stats_with(vec![op(0, 0, 10, 1), op(1, 20, 30, 0)]);
        let summary = s.summary(100);
        assert_eq!(summary.completed_ops, 2);
        assert_eq!(summary.nonlinearizable, 1);
        let text = serde::json::to_string_pretty(&summary.to_value());
        let back = StatsSummary::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn fallback_to_node_wait_when_all_diffracted() {
        let mut s = stats_with(vec![]);
        s.sim = Some(SimCounters::default());
        s.node_visits = 10;
        s.node_wait_total = 50;
        assert!((s.avg_toggle_wait() - 5.0).abs() < 1e-12);
        // a backend without simulator counters takes the same fallback
        s.sim = None;
        assert!((s.avg_toggle_wait() - 5.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod process_map_tests {
    use super::ProcessMap;
    use crate::SimRng;
    use proptest::prelude::*;

    #[test]
    fn an_empty_map_is_empty_in_every_form() {
        let chunked = ProcessMap::chunked(64, Vec::new(), 0);
        assert!(chunked.is_empty());
        assert_eq!(chunked.iter().len(), 0);
        assert_eq!(chunked, ProcessMap::per_op(Vec::new()));
    }

    #[test]
    fn a_partial_last_chunk_covers_only_its_slots() {
        let map = ProcessMap::chunked(4, vec![1, 2, 3], 10);
        assert_eq!(map.len(), 10);
        assert_eq!(map.process_of(9), 3);
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]
        );
        assert_ne!(
            map,
            ProcessMap::per_op(vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3])
        );
    }

    #[test]
    #[should_panic(expected = "operation 10 of 10")]
    fn no_processor_is_named_past_the_last_operation() {
        let _ = ProcessMap::chunked(4, vec![1, 2, 3], 10).process_of(10);
    }

    #[test]
    #[should_panic(expected = "one owner per chunk")]
    fn an_owner_list_of_the_wrong_length_is_refused() {
        let _ = ProcessMap::chunked(4, vec![1, 2], 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A chunked map and its per-operation expansion agree on
        /// everything a reader can ask, and compare equal both ways.
        #[test]
        fn a_chunked_map_reads_as_its_per_op_expansion(
            len in 0usize..700,
            chunk in 1usize..=128,
            seed in 0u64..1000,
        ) {
            let mut rng = SimRng::seed_from_u64(seed);
            let owners: Vec<u32> = (0..len.div_ceil(chunk)).map(|_| rng.below(8) as u32).collect();
            let expanded: Vec<u32> = (0..len).map(|i| owners[i / chunk]).collect();
            let map = ProcessMap::chunked(chunk, owners, len);
            let per_op = ProcessMap::per_op(expanded.clone());
            prop_assert_eq!(map.len(), len);
            prop_assert_eq!(per_op.len(), len);
            for (i, &owner) in expanded.iter().enumerate() {
                prop_assert_eq!(map.process_of(i), owner);
                prop_assert_eq!(per_op.process_of(i), owner);
            }
            prop_assert_eq!(map.iter().collect::<Vec<_>>(), expanded.clone());
            prop_assert_eq!(per_op.iter().collect::<Vec<_>>(), expanded.clone());
            prop_assert_eq!(&map, &per_op);
            prop_assert_eq!(&per_op, &map);
            if let Some((last, rest)) = expanded.split_last() {
                // one operation's owner changed is another map
                let mut other = rest.to_vec();
                other.push(last + 1);
                prop_assert!(map != ProcessMap::per_op(other));
            }
        }
    }
}

#[cfg(test)]
mod consistency_tests {
    use super::*;

    #[test]
    fn program_order_uses_processors_not_inputs() {
        // two ops on the same *network input* but different processors:
        // the cross-processor inversion is not a program-order violation
        let ops = vec![
            Operation {
                token: 0,
                input: 3,
                start: 0,
                end: 1,
                counter: 0,
                value: 9,
            },
            Operation {
                token: 1,
                input: 3,
                start: 2,
                end: 3,
                counter: 0,
                value: 1,
            },
        ];
        let nonlinearizable = cnet_timing::linearizability::count_nonlinearizable(&ops);
        let stats = RunStats {
            operations: ops,
            completed_by: ProcessMap::per_op(vec![0, 1]), // different processors
            output_counts: OutputCounts::zeros(2),
            sim_time: 3,
            node_visits: 1,
            node_wait_total: 1,
            sim: None,
            nonlinearizable,
            metrics: None,
        };
        assert_eq!(stats.nonlinearizable_count(), 1);
        assert_eq!(stats.program_order_violations(), 0);
    }
}
