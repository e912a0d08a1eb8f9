//! The `cnet` front door offers exactly the registry's seven backend
//! families (`cnet_harness::BackendSpec`). A flavor outside it is a
//! typed usage error that lists the grammar, a workload with no client
//! or with arrival instants past half the clock's range is refused
//! instead of run, and `cnet help` prints the flavor line the registry
//! generates.

use cnet_cli::CliError;
use cnet_engine::{ArrivalProcess, Workload, WorkloadError};
use cnet_harness::BackendSpec;
use cnet_topology::constructions;

fn cnet(args: &[&str]) -> Result<String, CliError> {
    let raw: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
    cnet_cli::run(&raw)
}

#[test]
fn an_unregistered_flavor_is_a_usage_error_listing_the_grammar() {
    for flavor in ["mp", "mp-elim", "async-mp"] {
        let e = cnet(&[
            "run",
            "bitonic",
            "4",
            "--backend",
            flavor,
            "--n",
            "2",
            "--ops",
            "10",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{flavor}: {e:?}");
        assert!(
            e.to_string().contains(
                "(sim|shm|shm-batch[:N]|shm-shard[:N]|async|async-batch[:N]|async-shard[:N])"
            ),
            "{flavor}: {e}"
        );
    }
}

#[test]
fn a_run_without_clients_is_refused() {
    let e = cnet(&[
        "run",
        "bitonic",
        "16",
        "--backend",
        "sim,shm,shm-batch,async",
        "--n",
        "0",
        "--ops",
        "10",
    ])
    .unwrap_err();
    assert!(matches!(e, CliError::Failed(_)), "{e:?}");
    assert_eq!(e.exit_code(), 2);
    assert!(e.to_string().contains("processors (n)"), "{e}");
}

#[test]
fn help_lists_the_seven_families() {
    let help = cnet(&["help"]).unwrap();
    let flavors = help
        .lines()
        .find_map(|line| line.strip_prefix("backend flavors: "))
        .expect("help names the backend flavors");
    assert_eq!(
        flavors,
        "sim shm shm-batch[:N] shm-shard[:N] async async-batch[:N] async-shard[:N]"
    );
}

/// A trace whose two instants lie ~2^64 cycles apart: four operations
/// replay three such gaps.
fn overflowing_trace() -> String {
    let path = std::env::temp_dir().join(format!("cnet-overflow-trace-{}", std::process::id()));
    std::fs::write(&path, "0\n18446744073709551615\n").expect("temp dir is writable");
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn every_family_refuses_arrivals_past_half_the_clock() {
    let net = constructions::bitonic(8).expect("valid width");
    let arrivals = [
        ArrivalProcess::Trace {
            path: overflowing_trace(),
        },
        ArrivalProcess::Bursty {
            burst: 1,
            gap: u64::MAX,
        },
        ArrivalProcess::Open {
            mean_gap: u64::MAX / 4,
        },
    ];
    for spec in BackendSpec::all() {
        let backend = spec.build(&net, 1).expect("width 8 hosts every family");
        for arrival in &arrivals {
            let workload = Workload {
                total_ops: 4,
                arrival: arrival.clone(),
                ..Workload::paper(1, 0, 0)
            };
            assert_eq!(
                backend.try_run(&workload).err(),
                Some(WorkloadError::ArrivalOverflow),
                "`{spec}` accepted {arrival:?}"
            );
        }
    }
}

#[test]
fn an_overflowing_trace_is_an_operation_failure() {
    let trace = overflowing_trace();
    for backend in ["sim", "shm"] {
        let e = cnet(&[
            "run",
            "bitonic",
            "8",
            "--backend",
            backend,
            "--ops",
            "4",
            "--n",
            "1",
            "--trace",
            &trace,
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Failed(_)), "{backend}: {e:?}");
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("u64::MAX / 2"), "{backend}: {e}");
    }
}
