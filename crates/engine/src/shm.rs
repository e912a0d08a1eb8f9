//! The shared-memory counters as an engine backend.

use cnet_concurrent::frontend::{CombiningConfig, CombiningCounter, RoutePolicy, ShardedCounter};
use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_concurrent::reference::ReferenceCounter;
use cnet_concurrent::tree::{DiffractingTreeCounter, TreeConfig};
use cnet_topology::{OutputCounts, Topology};

use crate::driver::{self, Readout, SpinSite};
use crate::{Backend, RunOutcome, Workload};

/// Which native shared-memory counter a [`ShmBackend`] builds.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    /// [`NetworkCounter`] over the backend's topology (the compiled
    /// arena hot path).
    Network(BalancerKind),
    /// [`ReferenceCounter`] over the backend's topology — the
    /// pre-compilation traversal, kept so the native perf baselines
    /// can measure the compiled/reference gap forever.
    Reference(BalancerKind),
    /// [`DiffractingTreeCounter`] of the topology's output width.
    Tree(TreeConfig),
    /// [`CombiningCounter`] over the backend's topology: flat-combining
    /// batch traversals through the compiled arena.
    Batch(BalancerKind, CombiningConfig),
    /// [`ShardedCounter`] over `count` bitonic shards whose widths sum
    /// to the backend topology's output width — equal hardware, split.
    Shard(BalancerKind, RoutePolicy, usize),
}

/// Runs workloads on real OS threads over the native-atomics counters
/// (`cnet-concurrent`): a [`NetworkCounter`] realizing the backend's
/// topology, a [`DiffractingTreeCounter`] of its output width, or one
/// of the elastic frontends — [`CombiningCounter`] (`"shm-batch"`) and
/// [`ShardedCounter`] (`"shm-shard"`).
///
/// Every [`Backend::run`] builds a fresh counter, so runs never share
/// state. `workload.processors` is the client-thread count,
/// `wait_cycles` the per-node spin of the delayed fraction, and the
/// arrival process is honored on a deterministic seeded schedule
/// interpreted in nanoseconds of host time.
///
/// The frontend flavors keep the counting property (values exactly
/// `0..n`) but relax the quiescent step: a `k`-batch lands `k` tallies
/// on one counter, and round-robin sharding steps within each residue
/// class rather than globally. Their outcomes carry
/// [`RunOutcome::frontend`] telemetry on `obs` builds.
#[derive(Debug, Clone, Copy)]
pub struct ShmBackend<'a> {
    topology: &'a Topology,
    flavor: Flavor,
    seed: u64,
}

impl<'a> ShmBackend<'a> {
    /// A backend driving a [`NetworkCounter`] built over `topology`
    /// with the given balancer implementation.
    #[must_use]
    pub fn network(topology: &'a Topology, kind: BalancerKind, seed: u64) -> Self {
        ShmBackend {
            topology,
            flavor: Flavor::Network(kind),
            seed,
        }
    }

    /// A backend driving the pre-refactor [`ReferenceCounter`] built
    /// over `topology` — the baseline side of the native before/after
    /// benchmarks.
    #[must_use]
    pub fn reference(topology: &'a Topology, kind: BalancerKind, seed: u64) -> Self {
        ShmBackend {
            topology,
            flavor: Flavor::Reference(kind),
            seed,
        }
    }

    /// A backend driving a [`DiffractingTreeCounter`] whose width is
    /// `topology`'s output width.
    #[must_use]
    pub fn tree(topology: &'a Topology, config: TreeConfig, seed: u64) -> Self {
        ShmBackend {
            topology,
            flavor: Flavor::Tree(config),
            seed,
        }
    }

    /// A backend driving a [`CombiningCounter`] built over `topology`:
    /// the flat-combining frontend, where one traversal serves a batch
    /// of requests through a width-`k` interval reservation.
    #[must_use]
    pub fn batch(
        topology: &'a Topology,
        kind: BalancerKind,
        config: CombiningConfig,
        seed: u64,
    ) -> Self {
        ShmBackend {
            topology,
            flavor: Flavor::Batch(kind, config),
            seed,
        }
    }

    /// A backend driving a [`ShardedCounter`] over `count` bitonic
    /// shards of width `output_width / count` each — the same total
    /// hardware as `topology`, split behind a router.
    ///
    /// # Panics
    ///
    /// Panics if `count` does not divide the output width into per-shard
    /// widths that are powers of two `>= 2`.
    #[must_use]
    pub fn shard(
        topology: &'a Topology,
        kind: BalancerKind,
        policy: RoutePolicy,
        count: usize,
        seed: u64,
    ) -> Self {
        let width = topology.output_width();
        assert!(count > 0, "at least one shard");
        assert!(
            width.is_multiple_of(count)
                && (width / count) >= 2
                && (width / count).is_power_of_two(),
            "shard count {count} must split width {width} into powers of two >= 2"
        );
        ShmBackend {
            topology,
            flavor: Flavor::Shard(kind, policy, count),
            seed,
        }
    }
}

/// Re-indexes a [`ShardedCounter`]'s shard-major tallies into the
/// natural counter order of the values it returns: the frontend labels
/// a value `s + S·local`, so `value % (S·w)` is *interleaved* —
/// residue class first, per-shard counter second. Shared with the
/// async backend's shard flavor.
pub(crate) fn interleave_shard_counts(shard_major: Vec<u64>, count: usize) -> OutputCounts {
    let shard_width = shard_major.len() / count.max(1);
    let mut interleaved = vec![0u64; shard_major.len()];
    for s in 0..count {
        for c in 0..shard_width {
            interleaved[s + count * c] = shard_major[s * shard_width + c];
        }
    }
    interleaved.into_iter().collect()
}

impl Backend for ShmBackend<'_> {
    fn name(&self) -> &'static str {
        match self.flavor {
            Flavor::Reference(_) => "shm-ref",
            Flavor::Batch(..) => "shm-batch",
            Flavor::Shard(..) => "shm-shard",
            _ => "shm",
        }
    }

    fn run(&self, workload: &Workload) -> RunOutcome {
        driver::validated(workload);
        let (name, seed, site) = (self.name(), self.seed, SpinSite::PerNode);
        let wait = workload.wait_cycles;
        match self.flavor {
            Flavor::Reference(kind) => {
                let counter = ReferenceCounter::with_kind(self.topology, kind);
                driver::run(name, &counter, workload, seed, site, |_| Readout {
                    counts: counter.output_counts().into_iter().collect(),
                    input_width: counter.input_width(),
                    metrics: counter.metrics_snapshot(wait),
                    frontend: None,
                })
            }
            Flavor::Network(kind) => {
                let counter = NetworkCounter::with_kind(self.topology, kind);
                driver::run(name, &counter, workload, seed, site, |_| Readout {
                    counts: counter.output_counts().into_iter().collect(),
                    input_width: counter.input_width(),
                    metrics: counter.metrics_snapshot(wait),
                    frontend: None,
                })
            }
            Flavor::Tree(config) => {
                let counter =
                    DiffractingTreeCounter::with_config(self.topology.output_width(), config)
                        .expect("topology widths are valid tree widths");
                driver::run(name, &counter, workload, seed, site, |_| Readout {
                    counts: counter.output_counts().into_iter().collect(),
                    input_width: 1,
                    metrics: counter.metrics_snapshot(wait),
                    frontend: None,
                })
            }
            Flavor::Batch(kind, config) => {
                let counter = CombiningCounter::with_kind(self.topology, kind, config);
                driver::run(name, &counter, workload, seed, site, |_| Readout {
                    counts: counter.output_counts().into_iter().collect(),
                    input_width: counter.input_width(),
                    metrics: counter.metrics_snapshot(wait),
                    frontend: counter.frontend_metrics(),
                })
            }
            Flavor::Shard(kind, policy, count) => {
                let shard_width = self.topology.output_width() / count;
                let shards = Topology::shards(shard_width, count)
                    .expect("shard arguments validated at construction");
                let counter = ShardedCounter::with_kind(&shards, kind, policy);
                driver::run(name, &counter, workload, seed, site, |_| Readout {
                    counts: interleave_shard_counts(counter.output_counts(), count),
                    input_width: shard_width,
                    // contention metrics are per-shard; shard 0 is the
                    // representative (round-robin keeps loads within one op)
                    metrics: counter.shard_metrics(0, wait),
                    frontend: counter.frontend_metrics(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_proteus::ArrivalProcess;
    use cnet_topology::constructions;

    fn workload(threads: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(threads, 0, 0)
        }
    }

    #[test]
    fn network_flavor_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, 3).run(&workload(4, 400));
        assert_eq!(outcome.backend, "shm");
        assert_eq!(outcome.stats.operations.len(), 400);
        assert!(outcome.counts_exactly());
        assert!(outcome.has_step_property());
        assert_eq!(outcome.stats.output_counts.total(), 400);
    }

    #[test]
    fn reference_flavor_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = ShmBackend::reference(&net, BalancerKind::WaitFree, 3).run(&workload(4, 400));
        assert_eq!(outcome.backend, "shm-ref");
        assert_eq!(outcome.stats.operations.len(), 400);
        assert!(outcome.counts_exactly());
        assert!(outcome.has_step_property());
    }

    #[test]
    fn tree_flavor_counts_exactly() {
        let net = constructions::counting_tree(8).unwrap();
        let outcome = ShmBackend::tree(&net, TreeConfig::default(), 5).run(&workload(4, 300));
        assert_eq!(outcome.stats.operations.len(), 300);
        assert!(outcome.counts_exactly());
        assert!(outcome.has_step_property());
    }

    #[test]
    fn delayed_fraction_and_locked_balancers_stay_correct() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = ShmBackend::network(&net, BalancerKind::Locked, 9).run(&Workload {
            total_ops: 200,
            ..Workload::paper(4, 50, 200)
        });
        assert!(outcome.counts_exactly());
    }

    #[test]
    fn open_loop_arrivals_run_to_completion() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, 11).run(&Workload {
            total_ops: 100,
            arrival: ArrivalProcess::Bursty {
                burst: 10,
                gap: 1000,
            },
            ..Workload::paper(4, 0, 0)
        });
        assert_eq!(outcome.stats.operations.len(), 100);
        assert!(outcome.counts_exactly());
    }

    #[test]
    fn average_ratio_stays_finite_on_native_traces() {
        // the Tog fallback: node_visits/node_wait_total are populated
        // from the trace, so a positive W cannot divide by zero
        let net = constructions::bitonic(4).unwrap();
        let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, 2).run(&Workload {
            total_ops: 100,
            ..Workload::paper(2, 100, 500)
        });
        assert!(outcome.stats.average_ratio(500).is_finite());
    }

    #[test]
    fn batch_flavor_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = ShmBackend::batch(
            &net,
            BalancerKind::WaitFree,
            cnet_concurrent::CombiningConfig::default(),
            3,
        )
        .run(&workload(4, 400));
        assert_eq!(outcome.backend, "shm-batch");
        assert_eq!(outcome.stats.operations.len(), 400);
        assert!(outcome.counts_exactly());
        // a k-batch lands k tallies on one counter: sum-preserving,
        // (k-1)-relaxed step
        assert_eq!(outcome.stats.output_counts.total(), 400);
    }

    #[test]
    fn shard_flavor_counts_exactly() {
        let net = constructions::bitonic(16).unwrap();
        let outcome = ShmBackend::shard(
            &net,
            BalancerKind::WaitFree,
            cnet_concurrent::RoutePolicy::RoundRobin,
            4,
            7,
        )
        .run(&workload(4, 400));
        assert_eq!(outcome.backend, "shm-shard");
        assert_eq!(outcome.stats.operations.len(), 400);
        assert!(outcome.counts_exactly());
        assert_eq!(outcome.stats.output_counts.total(), 400);
        assert_eq!(outcome.stats.output_counts.width(), 16);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn shard_flavor_rejects_indivisible_widths() {
        let net = constructions::bitonic(4).unwrap();
        let _ = ShmBackend::shard(
            &net,
            BalancerKind::WaitFree,
            cnet_concurrent::RoutePolicy::RoundRobin,
            3,
            7,
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn frontend_flavors_report_telemetry() {
        let net = constructions::bitonic(16).unwrap();
        let batch = ShmBackend::batch(
            &net,
            BalancerKind::WaitFree,
            cnet_concurrent::CombiningConfig::default(),
            3,
        )
        .run(&workload(4, 200));
        let m = batch.frontend.expect("obs build snapshots");
        assert_eq!(m.batch_hist.sum() + m.solo_ops, 200);

        let shard = ShmBackend::shard(
            &net,
            BalancerKind::WaitFree,
            cnet_concurrent::RoutePolicy::RoundRobin,
            4,
            3,
        )
        .run(&workload(4, 200));
        let m = shard.frontend.expect("obs build snapshots");
        assert_eq!(m.shard_ops.iter().sum::<u64>(), 200);
    }

    #[test]
    fn zero_work_degenerates_safely() {
        let net = constructions::bitonic(4).unwrap();
        let b = ShmBackend::network(&net, BalancerKind::WaitFree, 1);
        assert!(b.run(&workload(0, 100)).stats.operations.is_empty());
        assert!(b.run(&workload(4, 0)).stats.operations.is_empty());
    }
}
