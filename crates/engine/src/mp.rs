//! The message-passing network as an engine backend.

use cnet_concurrent::frontend::{EliminatingMpNetwork, EliminationConfig};
use cnet_concurrent::mp::{MpConfig, MpNetwork};
use cnet_topology::Topology;

use crate::driver::{self, Readout, SpinSite};
use crate::{Backend, RunOutcome, Workload};

/// Which message-passing ingress an [`MpBackend`] drives.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    /// Every operation is its own token ([`MpNetwork`]).
    Plain,
    /// Elimination at the ingress: matched pairs share one token
    /// ([`EliminatingMpNetwork`]).
    Elim(EliminationConfig),
}

/// Runs workloads against an [`MpNetwork`]: one thread per balancer
/// and per counter, tokens as messages along channels.
///
/// Each [`Backend::run`] spawns a fresh network (thread spawn is setup
/// and stays outside the timed window) and tears it down afterwards.
/// The delayed fraction's `W` is spun *client-side* before each
/// injection — a per-node value cannot travel with the token, since
/// the per-hop delay of this substrate is fixed at spawn time via
/// [`MpConfig::hop_spin`].
///
/// The [`MpBackend::elim`] constructor puts an elimination exchange in
/// front of the ingress (`"mp-elim"`): operations that meet in the
/// exchange enter the pipeline as a single pair token and draw two
/// consecutive values from the shared interval allocator. The value
/// space stays exactly `0..n`; the quiescent per-counter tallies become
/// a 1-relaxed step (a pair tallies twice where it lands).
#[derive(Debug, Clone, Copy)]
pub struct MpBackend<'a> {
    topology: &'a Topology,
    config: MpConfig,
    flavor: Flavor,
    seed: u64,
}

impl<'a> MpBackend<'a> {
    /// A backend spawning message-passing networks over `topology`.
    #[must_use]
    pub fn new(topology: &'a Topology, config: MpConfig, seed: u64) -> Self {
        MpBackend {
            topology,
            config,
            flavor: Flavor::Plain,
            seed,
        }
    }

    /// A backend spawning elimination-fronted message-passing networks
    /// over `topology`.
    #[must_use]
    pub fn elim(
        topology: &'a Topology,
        config: MpConfig,
        elim: EliminationConfig,
        seed: u64,
    ) -> Self {
        MpBackend {
            topology,
            config,
            flavor: Flavor::Elim(elim),
            seed,
        }
    }
}

impl Backend for MpBackend<'_> {
    fn name(&self) -> &'static str {
        match self.flavor {
            Flavor::Plain => "mp",
            Flavor::Elim(_) => "mp-elim",
        }
    }

    fn run(&self, workload: &Workload) -> RunOutcome {
        driver::validated(workload);
        let (name, seed, site) = (self.name(), self.seed, SpinSite::PerOp);
        let wait = workload.wait_cycles;
        match self.flavor {
            Flavor::Plain => {
                let net = MpNetwork::spawn(self.topology, self.config);
                let width = self.topology.output_width();
                driver::run(name, &net, workload, seed, site, |trace| Readout {
                    counts: trace.tallies(width),
                    input_width: net.input_width(),
                    metrics: net.metrics_snapshot(wait),
                    frontend: None,
                })
            }
            Flavor::Elim(elim) => {
                let net = EliminatingMpNetwork::spawn(self.topology, self.config, elim);
                driver::run(name, &net, workload, seed, site, |_| Readout {
                    // shared-issue values are drawn from a global interval
                    // allocator, so value % width no longer names the
                    // landing counter; the counter threads' own tallies are
                    // the ground truth (a pair counts twice where it landed)
                    counts: net.output_counts().into_iter().collect(),
                    input_width: net.input_width(),
                    metrics: net.metrics_snapshot(wait),
                    frontend: net.frontend_metrics(),
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

    #[test]
    fn mp_backend_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = MpBackend::new(&net, MpConfig::default(), 3).run(&Workload {
            total_ops: 300,
            ..Workload::paper(3, 0, 0)
        });
        assert_eq!(outcome.backend, "mp");
        assert_eq!(outcome.stats.operations.len(), 300);
        assert!(outcome.counts_exactly());
        assert!(outcome.has_step_property());
    }

    #[test]
    fn delayed_clients_and_hop_spin_stay_correct() {
        let net = constructions::bitonic(2).unwrap();
        let outcome = MpBackend::new(&net, MpConfig { hop_spin: 200 }, 7).run(&Workload {
            total_ops: 120,
            ..Workload::paper(2, 50, 300)
        });
        assert!(outcome.counts_exactly());
    }

    #[test]
    fn open_loop_injection_completes() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = MpBackend::new(&net, MpConfig::default(), 5).run(&Workload {
            total_ops: 80,
            arrival: ArrivalProcess::Open { mean_gap: 500 },
            ..Workload::paper(2, 0, 0)
        });
        assert_eq!(outcome.stats.operations.len(), 80);
        assert!(outcome.counts_exactly());
    }

    #[test]
    fn elim_flavor_counts_exactly_and_tallies_sum() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = MpBackend::elim(&net, MpConfig::default(), EliminationConfig::default(), 13)
            .run(&Workload {
                total_ops: 400,
                ..Workload::paper(4, 0, 0)
            });
        assert_eq!(outcome.backend, "mp-elim");
        assert_eq!(outcome.stats.operations.len(), 400);
        assert!(outcome.counts_exactly());
        // pairs tally twice where the pair token landed: the counts are
        // a 1-relaxed step that still sums to every operation
        assert_eq!(outcome.stats.output_counts.total(), 400);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn elim_flavor_reports_frontend_metrics() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = MpBackend::elim(&net, MpConfig::default(), EliminationConfig::default(), 17)
            .run(&Workload {
                total_ops: 200,
                ..Workload::paper(4, 0, 0)
            });
        let m = outcome.frontend.expect("obs build snapshots");
        assert_eq!(2 * m.elim_pairs + m.elim_solo, 200);
    }
}
