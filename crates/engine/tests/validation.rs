//! A degenerate workload through the infallible path: [`Backend::run`]
//! checks the workload once ([`Workload::check`]) and panics with the
//! typed [`cnet_engine::WorkloadError`]'s display text before any
//! thread spawns. The registry-wide rejection through [`Backend::try_run`] is
//! `cnet-harness`'s `tests/validation.rs`.

use cnet_engine::{ArrivalProcess, Backend, BalancerKind, ShmBackend, Workload};
use cnet_topology::constructions;

#[test]
#[should_panic(expected = "burst >= 1")]
fn infallible_run_panics_with_the_typed_message() {
    let net = constructions::bitonic(8).expect("valid width");
    let _ = ShmBackend::network(&net, BalancerKind::WaitFree, 1).run(&Workload {
        total_ops: 10,
        arrival: ArrivalProcess::Bursty { burst: 0, gap: 100 },
        ..Workload::paper(2, 0, 0)
    });
}
