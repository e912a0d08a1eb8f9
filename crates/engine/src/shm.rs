//! The thread-per-client native backend, and the same client threads
//! over a counter the caller built.

use cnet_concurrent::network::BalancerKind;
use cnet_concurrent::StressCounter;
use cnet_topology::{OutputCounts, Topology};

use crate::counter::Executor;
use crate::driver::{Readout, Threads};
use crate::{Backend, CheckedWorkload, CounterSpec, RunOutcome, SpecError};

/// Runs workloads on real OS threads, one per client, over a native
/// (`cnet-concurrent`) counter — any [`CounterSpec`]: the compiled
/// network or the elastic frontends.
///
/// Every run builds a fresh counter, so runs never share
/// state. `workload.processors` is the client-thread count,
/// `wait_cycles` the per-node spin of the delayed fraction, and the
/// arrival process is honored on a deterministic seeded schedule
/// interpreted in nanoseconds of host time.
#[derive(Debug, Clone, Copy)]
pub struct ShmBackend<'a> {
    topology: &'a Topology,
    counter: CounterSpec,
    seed: u64,
}

impl<'a> ShmBackend<'a> {
    /// A backend driving `counter` built over `topology`.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] of [`CounterSpec::check`] when the
    /// counter cannot be built over this topology.
    pub fn new(topology: &'a Topology, counter: CounterSpec, seed: u64) -> Result<Self, SpecError> {
        counter.check(topology)?;
        Ok(ShmBackend {
            topology,
            counter,
            seed,
        })
    }

    /// A backend driving a compiled `NetworkCounter` built over
    /// `topology` with the given balancer implementation — the one
    /// counter every topology admits.
    #[must_use]
    pub fn network(topology: &'a Topology, kind: BalancerKind, seed: u64) -> Self {
        ShmBackend {
            topology,
            counter: CounterSpec::Network(kind),
            seed,
        }
    }
}

impl Backend for ShmBackend<'_> {
    fn name(&self) -> &'static str {
        self.counter.family()
    }

    fn run_checked(&self, workload: &CheckedWorkload) -> RunOutcome {
        let exec = Threads {
            backend: self.name(),
            workload,
            seed: self.seed,
        };
        self.counter.run(self.topology, workload.wait_cycles, exec)
    }
}

/// Runs `workload` on one OS thread per client against `counter`, a
/// counter the caller built: the client loop and grading of
/// [`ShmBackend`] for counters no [`CounterSpec`] names (the
/// centralized baselines, a test oracle). `seed` seeds the arrival
/// schedule and the per-operation `W` draws; the interleaving is the
/// OS scheduler's.
///
/// The counter stays the caller's, and so does its quiescent read-out:
/// the outcome's `stats.output_counts` are zeros of the counter's
/// width, `metrics` and `frontend` are `None`, and the backend name is
/// `shm`. A counter that is not fresh hands out values past `0..n`, so
/// [`RunOutcome::counts_exactly`] holds only for a fresh one.
///
/// # Panics
///
/// Panics if a client thread panics.
pub fn run_counter<C: StressCounter>(
    counter: &C,
    workload: &CheckedWorkload,
    seed: u64,
) -> RunOutcome {
    let exec = Threads {
        backend: CounterSpec::Network(BalancerKind::default()).family(),
        workload,
        seed,
    };
    exec.execute(counter, || Readout {
        counts: OutputCounts::zeros(counter.width()),
        metrics: None,
        frontend: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadError};
    use cnet_topology::constructions;

    fn workload(threads: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(threads, 0, 0)
        }
    }

    #[test]
    fn diffracting_tree_counts_exactly_under_the_shm_name() {
        let net = constructions::counting_tree(8).unwrap();
        let kind = BalancerKind::Diffracting { slots: 8, spin: 64 };
        let outcome = ShmBackend::network(&net, kind, 5).run(&workload(4, 300));
        assert_eq!(outcome.backend, "shm");
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
    fn zero_work_degenerates_safely() {
        let net = constructions::bitonic(4).unwrap();
        let b = ShmBackend::network(&net, BalancerKind::WaitFree, 1);
        assert_eq!(
            b.try_run(&workload(0, 100)).err(),
            Some(WorkloadError::NoClients)
        );
        assert!(b.run(&workload(4, 0)).stats.operations.is_empty());
    }
}
