//! The native post-run grades each client thread's runs of the returned
//! buffer as one lane (`linearizability::lane_magnitudes`, one running
//! maximum);
//! everyone downstream grades the `Operation`s it returns against the
//! table. For every native family of the registry — client threads and
//! the cooperative executor, closed loop and scheduled arrivals — on
//! runs long enough to be preempted mid-operation, the two verdicts
//! are one: the count, and on a live-probe build the magnitudes the
//! snapshot carries.

use cnet_engine::{ArrivalProcess, BackendSpec, Workload, PROBES_LIVE};
use cnet_timing::linearizability::{count_nonlinearizable, magnitudes};
use cnet_topology::constructions;

const OPS: usize = 100_000;

#[test]
fn every_native_backend_reports_the_verdict_of_the_table() {
    let net = constructions::bitonic(16).expect("valid width");
    let native = BackendSpec::all()
        .into_iter()
        .filter(|spec| !matches!(spec, BackendSpec::Sim(_)));
    for spec in native {
        let backend = spec
            .build(&net, 0x1A9E)
            .expect("width 16 hosts every family");
        let clients = match spec {
            BackendSpec::Async(..) => 64,
            _ => 4,
        };
        for arrival in [
            ArrivalProcess::Closed,
            ArrivalProcess::Open { mean_gap: 200 },
        ] {
            let what = format!("`{}`, {arrival:?}", backend.name());
            let outcome = backend.run(&Workload {
                total_ops: OPS,
                arrival,
                ..Workload::paper(clients, 0, 0)
            });
            let stats = &outcome.stats;
            assert_eq!(stats.operations.len(), OPS, "{what}");
            assert_eq!(
                stats.nonlinearizable,
                count_nonlinearizable(&stats.operations),
                "{what}"
            );
            assert_eq!(stats.metrics.is_some(), PROBES_LIVE, "{what}");
            if let Some(snapshot) = &stats.metrics {
                let table: Vec<u64> = magnitudes(&stats.operations).filter(|&m| m > 0).collect();
                let network = &snapshot.network;
                assert_eq!(network.nonlinearizable, table.len() as u64, "{what}");
                assert_eq!(
                    network.violation_magnitude_total,
                    table.iter().sum::<u64>(),
                    "{what}"
                );
                assert_eq!(
                    network.violation_magnitude_max,
                    table.iter().copied().max().unwrap_or(0),
                    "{what}"
                );
            }
        }
    }
}
