//! The discrete-event simulator as an engine backend.

use std::time::Instant;

use cnet_engine::{Backend, RunOutcome, RunRecord, Workload};
use cnet_topology::Topology;

use crate::{SimConfig, Simulator};

/// Runs workloads on the deterministic discrete-event simulator — the
/// substrate of the paper's Section 5 study and of every committed
/// figure table — behind the engine's [`Backend`] trait.
///
/// The run loop is byte-compatible with what the harness always did:
/// the wall-clock window covers simulation plus metric *recording*,
/// while freezing the metrics snapshot (export work) stays outside it,
/// like report serialization. The perf baselines and the obs-overhead
/// numbers in EXPERIMENTS.md are measured against exactly this window.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend<'a> {
    topology: &'a Topology,
    config: SimConfig,
}

impl<'a> SimBackend<'a> {
    /// The simulator's family name, [`Backend::name`] of every
    /// `SimBackend`: the backend [`RunRecord::measure`] writes.
    pub const NAME: &'static str = RunRecord::DEFAULT_BACKEND;

    /// A backend simulating `topology` under the given machine model.
    #[must_use]
    pub fn new(topology: &'a Topology, config: SimConfig) -> Self {
        SimBackend { topology, config }
    }
}

impl Backend for SimBackend<'_> {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn run(&self, workload: &Workload) -> RunOutcome {
        if let Err(e) = workload.validate() {
            panic!("invalid workload: {e}");
        }
        let sim = Simulator::new(self.topology, self.config);
        let started = Instant::now();
        let (mut stats, recorder) = sim.run_instrumented(workload);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats.metrics = recorder.finish();
        RunOutcome {
            backend: self.name(),
            stats,
            wall_ms,
            frontend: None,
            open_loop: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    #[test]
    fn backend_matches_a_direct_simulator_run() {
        let net = constructions::bitonic(8).unwrap();
        let workload = Workload {
            total_ops: 300,
            ..Workload::paper(16, 25, 1000)
        };
        let config = SimConfig::queue_lock(5);
        let direct = Simulator::new(&net, config).run(&workload);
        let outcome = SimBackend::new(&net, config).run(&workload);
        assert_eq!(outcome.backend, "sim");
        assert_eq!(outcome.stats.operations, direct.operations);
        assert_eq!(outcome.stats.sim_time, direct.sim_time);
        assert_eq!(outcome.stats.nonlinearizable, direct.nonlinearizable);
        assert_eq!(outcome.stats.metrics, direct.metrics);
        assert!(outcome.counts_exactly());
        assert!(outcome.has_step_property());
    }

    #[test]
    fn open_loop_workloads_run_through_the_backend() {
        use cnet_engine::ArrivalProcess;
        let net = constructions::counting_tree(8).unwrap();
        let outcome = SimBackend::new(&net, SimConfig::diffracting(11)).run(&Workload {
            total_ops: 250,
            arrival: ArrivalProcess::Open { mean_gap: 100 },
            ..Workload::paper(8, 0, 0)
        });
        assert_eq!(outcome.stats.operations.len(), 250);
        assert!(outcome.counts_exactly());
    }
}
