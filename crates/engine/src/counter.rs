//! Which native counter a run drives: construction and quiescent
//! read-out of each kind, written once and shared by both executors
//! (client threads, cooperative clients).

use cnet_concurrent::frontend::{CombiningConfig, CombiningCounter, RoutePolicy, ShardedCounter};
use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_concurrent::StressCounter;
use cnet_topology::{OutputCounts, Topology};

use crate::driver::Readout;
use crate::{RunOutcome, SpecError};

/// A native (`cnet-concurrent`) counter over a backend's topology.
///
/// Every kind keeps the counting property (values exactly `0..n`).
/// The frontends — [`CounterSpec::Batch`], [`CounterSpec::Shard`] —
/// relax the quiescent step
/// ([`CounterSpec::relaxes_step`]) and report
/// [`RunOutcome::frontend`] telemetry on `obs` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterSpec {
    /// [`NetworkCounter`]: the compiled arena hot path, the one
    /// native traversal (a diffracting tree is
    /// [`BalancerKind::Diffracting`] over a counting-tree topology).
    Network(BalancerKind),
    /// [`CombiningCounter`]: flat combining, one traversal serving a
    /// batch of up to [`CombiningConfig::max_batch`] requests through
    /// a width-`k` interval reservation. A `k`-batch lands `k` tallies
    /// on one counter, so the step is `(k - 1)`-relaxed.
    Batch(BalancerKind, CombiningConfig),
    /// [`ShardedCounter`] over this many bitonic shards of width
    /// `output_width / count` each — the same total hardware, split
    /// behind a router. The step holds within each residue class.
    Shard(BalancerKind, RoutePolicy, usize),
}

/// What runs the clients against a freshly built counter: the client
/// threads of [`crate::driver::Threads`] or the cooperative executor.
/// Generic over the concrete counter type, so each executor's hot loop
/// is monomorphized per counter kind. The counter's widths label the
/// records the clients write.
pub(crate) trait Executor {
    fn execute<C: StressCounter>(
        self,
        counter: &C,
        readout: impl FnOnce() -> Readout,
    ) -> RunOutcome;
}

/// Re-indexes a [`ShardedCounter`]'s shard-major tallies into the
/// natural counter order of the values it returns: the frontend labels
/// a value `s + S·local`, so `value % (S·w)` is *interleaved* —
/// residue class first, per-shard counter second.
fn interleave_shard_counts(shard_major: Vec<u64>, count: usize) -> OutputCounts {
    let shard_width = shard_major.len() / count.max(1);
    let mut interleaved = vec![0u64; shard_major.len()];
    for s in 0..count {
        for c in 0..shard_width {
            interleaved[s + count * c] = shard_major[s * shard_width + c];
        }
    }
    interleaved.into_iter().collect()
}

impl CounterSpec {
    /// Whether the counter trades the exact quiescent step property
    /// for throughput by design.
    #[must_use]
    pub fn relaxes_step(&self) -> bool {
        matches!(self, CounterSpec::Batch(..) | CounterSpec::Shard(..))
    }

    /// Checks that the counter can be built over `topology`.
    ///
    /// # Errors
    ///
    /// [`SpecError::ShardSplit`] when the shard count does not split
    /// the output width into power-of-two widths `>= 2`.
    pub fn check(&self, topology: &Topology) -> Result<(), SpecError> {
        let width = topology.output_width();
        match *self {
            CounterSpec::Shard(_, _, shards)
                if shards == 0
                    || !width.is_multiple_of(shards)
                    || width / shards < 2
                    || !(width / shards).is_power_of_two() =>
            {
                Err(SpecError::ShardSplit { shards, width })
            }
            _ => Ok(()),
        }
    }

    /// Builds a fresh counter over `topology` and hands it to `exec`
    /// together with its quiescent read-out. `wait` is the workload's
    /// `W`, which the metrics snapshots record.
    ///
    /// # Panics
    ///
    /// Panics if [`CounterSpec::check`] fails; the backend
    /// constructors run it first.
    pub(crate) fn run(&self, topology: &Topology, wait: u64, exec: impl Executor) -> RunOutcome {
        const CHECKED: &str = "the backend constructor checked the spec against the topology";
        let width = topology.output_width();
        match *self {
            CounterSpec::Network(kind) => {
                let counter = NetworkCounter::with_kind(topology, kind);
                exec.execute(&counter, || Readout {
                    counts: counter.output_counts().into_iter().collect(),
                    metrics: counter.metrics_snapshot(wait),
                    frontend: None,
                })
            }
            CounterSpec::Batch(kind, config) => {
                let counter = CombiningCounter::with_kind(topology, kind, config);
                exec.execute(&counter, || Readout {
                    counts: counter.output_counts().into_iter().collect(),
                    metrics: counter.metrics_snapshot(wait),
                    frontend: counter.frontend_metrics(),
                })
            }
            CounterSpec::Shard(kind, policy, count) => {
                let shards = Topology::shards(width / count, count).expect(CHECKED);
                let counter = ShardedCounter::with_kind(&shards, kind, policy);
                exec.execute(&counter, || Readout {
                    counts: interleave_shard_counts(counter.output_counts(), count),
                    // contention metrics are per-shard; shard 0 is the
                    // representative (round-robin keeps loads within one op)
                    metrics: counter.shard_metrics(0, wait),
                    frontend: counter.frontend_metrics(),
                })
            }
        }
    }
}
