//! Which native counter a thread-per-client run drives: construction
//! and quiescent read-out of each kind, written once.

use std::fmt;

use cnet_concurrent::frontend::{CombiningConfig, CombiningCounter, RoutePolicy, ShardedCounter};
use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_topology::{OutputCounts, Topology};

use crate::driver::{Readout, Threads};
use crate::RunOutcome;

/// A native (`cnet-concurrent`) counter over a [`crate::ShmBackend`]'s
/// topology.
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

/// Why a backend flavor string or a counter × topology pair was
/// refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The text before the `:` names no backend family.
    UnknownFamily {
        /// The flavor string as given.
        given: String,
        /// The accepted flavors, `|`-separated, for the message.
        families: String,
    },
    /// The text after the `:` is not a positive integer, or the family
    /// takes no parameter.
    BadParameter(String),
    /// `shards` cannot split an output width of `width` into
    /// power-of-two shard widths `>= 2`.
    ShardSplit {
        /// Requested shard count.
        shards: usize,
        /// The topology's output width.
        width: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownFamily { given, families } => {
                write!(f, "unknown backend `{given}` ({families})")
            }
            SpecError::BadParameter(given) => write!(
                f,
                "bad backend parameter in `{given}` (want `:N`, N >= 1, on a family that takes one)"
            ),
            SpecError::ShardSplit { shards, width } => write!(
                f,
                "{shards} shards cannot split width {width} into powers of two >= 2"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

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
    /// The family name of this counter driven by one OS thread per
    /// client ([`crate::ShmBackend`]): the one table of its family
    /// names, which [`crate::Backend::name`] and every registry read.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            CounterSpec::Network(_) => "shm",
            CounterSpec::Batch(..) => "shm-batch",
            CounterSpec::Shard(..) => "shm-shard",
        }
    }

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

    /// Builds a fresh counter over `topology`, runs `exec`'s clients
    /// against it and takes its quiescent read-out. `wait` is the
    /// workload's `W`, which the metrics snapshots record.
    ///
    /// # Panics
    ///
    /// Panics if [`CounterSpec::check`] fails; the backend
    /// constructors run it first.
    pub(crate) fn run(&self, topology: &Topology, wait: u64, exec: Threads<'_>) -> RunOutcome {
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
