//! Degenerate-workload rejection, per backend.
//!
//! `ArrivalProcess::Open { mean_gap: 0 }` and `Bursty { burst: 0, .. }`
//! used to fall through into degenerate schedules (an all-zero gap
//! stream, a burst that schedules nothing), and a workload with no
//! client into an empty history reported as a clean run.
//! [`Workload::check`] now refuses them with the typed
//! [`WorkloadError`] before any thread spawns, on every backend:
//! [`Backend::try_run`] checks once and returns the error,
//! [`Backend::run`] panics with its display text (`cnet-engine`'s
//! `tests/validation.rs` pins the panic).

use cnet_engine::{ArrivalProcess, Backend, Workload, WorkloadError};
use cnet_harness::BackendSpec;
use cnet_topology::constructions;

fn zero_gap() -> Workload {
    Workload {
        total_ops: 10,
        arrival: ArrivalProcess::Open { mean_gap: 0 },
        ..Workload::paper(2, 0, 0)
    }
}

fn zero_burst() -> Workload {
    Workload {
        total_ops: 10,
        arrival: ArrivalProcess::Bursty { burst: 0, gap: 100 },
        ..Workload::paper(2, 0, 0)
    }
}

fn trace(path: &str) -> Workload {
    Workload {
        total_ops: 10,
        arrival: ArrivalProcess::Trace {
            path: path.to_string(),
        },
        ..Workload::paper(2, 0, 0)
    }
}

/// Writes `content` to a unique temp file and returns its path.
fn trace_file(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cnet-validation-{name}-{}", std::process::id()));
    std::fs::write(&path, content).expect("temp dir is writable");
    path
}

fn assert_rejects(backend: &dyn Backend) {
    assert_eq!(
        backend.try_run(&zero_gap()).err(),
        Some(WorkloadError::ZeroMeanGap),
        "backend `{}` accepted a zero mean gap",
        backend.name()
    );
    assert_eq!(
        backend.try_run(&zero_burst()).err(),
        Some(WorkloadError::ZeroBurst),
        "backend `{}` accepted a zero burst",
        backend.name()
    );
    assert_eq!(
        backend
            .try_run(&trace("/nonexistent/cnet-no-such-trace"))
            .err(),
        Some(WorkloadError::UnreadableTrace),
        "backend `{}` accepted a missing trace file",
        backend.name()
    );
    assert_eq!(
        backend
            .try_run(&Workload {
                total_ops: 10,
                ..Workload::paper(0, 0, 0)
            })
            .err(),
        Some(WorkloadError::NoClients),
        "backend `{}` accepted a workload with no client",
        backend.name()
    );
    let empty = trace_file("empty", "# instants only below this line\n\n42\n");
    assert_eq!(
        backend.try_run(&trace(empty.to_str().unwrap())).err(),
        Some(WorkloadError::EmptyTrace),
        "backend `{}` accepted a one-instant trace",
        backend.name()
    );
    let unsorted = trace_file("unsorted", "0\n50\n40\n90\n");
    assert_eq!(
        backend.try_run(&trace(unsorted.to_str().unwrap())).err(),
        Some(WorkloadError::UnsortedTrace),
        "backend `{}` accepted a decreasing trace",
        backend.name()
    );
    let garbled = trace_file("garbled", "0\n50\nninety\n");
    assert_eq!(
        backend.try_run(&trace(garbled.to_str().unwrap())).err(),
        Some(WorkloadError::UnreadableTrace),
        "backend `{}` accepted a non-numeric trace line",
        backend.name()
    );
    // and a well-formed workload still runs
    let ok = backend
        .try_run(&Workload {
            total_ops: 20,
            ..Workload::paper(2, 0, 0)
        })
        .expect("well-formed workloads pass validation");
    assert_eq!(ok.stats.operations.len(), 20);
    // …as does a replay of the committed example trace
    let example = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/arrival_trace.txt"
    );
    let ok = backend
        .try_run(&trace(example))
        .expect("the committed example trace passes validation");
    assert_eq!(ok.stats.operations.len(), 10);
}

#[test]
fn every_registered_backend_rejects_degenerate_arrivals() {
    let net = constructions::bitonic(8).expect("valid width");
    for spec in BackendSpec::all() {
        assert_rejects(
            spec.build(&net, 1)
                .expect("width 8 hosts every family")
                .as_ref(),
        );
    }
}
