//! The `cnet` front door offers exactly the registry's five backend
//! families (`cnet_harness::BackendSpec`). A flavor outside it is a
//! typed usage error that lists the grammar, a workload with no client,
//! with more operations than a run can record or with arrival instants
//! past half the clock's range is refused instead of run, and `cnet help` prints the flavor line the registry
//! generates. A checked workload carries its trace to every family:
//! none reads the file again.

use cnet_cli::CliError;
use cnet_engine::{ArrivalProcess, Workload, WorkloadError};
use cnet_harness::BackendSpec;
use cnet_proteus::{SimConfig, Simulator};
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
            e.to_string()
                .contains("(sim|shm|shm-batch[:N]|shm-shard[:N]|async)"),
            "{flavor}: {e}"
        );
    }
}

#[test]
fn the_deleted_async_frontends_are_usage_errors() {
    for flavor in ["async-batch", "async-batch:8", "async-shard:4"] {
        let e = cnet(&["run", "bitonic", "4", "--backend", flavor]).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{flavor}: {e:?}");
        assert_eq!(e.exit_code(), 2);
        assert!(
            e.to_string()
                .contains("(sim|shm|shm-batch[:N]|shm-shard[:N]|async)"),
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
fn help_lists_the_five_families() {
    let help = cnet(&["help"]).unwrap();
    let flavors = help
        .lines()
        .find_map(|line| line.strip_prefix("backend flavors: "))
        .expect("help names the backend flavors");
    assert_eq!(flavors, "sim shm shm-batch[:N] shm-shard[:N] async");
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

/// An op count whose records no allocation can hold is refused by the
/// check, before a buffer is reserved for it.
#[test]
fn an_op_count_no_run_can_hold_is_an_operation_failure() {
    let ops = u64::MAX.to_string();
    let cell = [
        "bitonic", "8", "--n", "4", "--f", "0", "--w", "0", "--ops", &ops,
    ];
    for command in ["simulate", "run"] {
        let e = cnet(&[&[command][..], &cell].concat()).unwrap_err();
        assert!(matches!(e, CliError::Failed(_)), "{command}: {e:?}");
        assert_eq!(e.exit_code(), 2);
        assert!(
            e.to_string()
                .contains("more operations than one run can record"),
            "{command}: {e}"
        );
    }
}

#[test]
fn a_checked_trace_runs_on_every_family_after_its_file_is_gone() {
    let net = constructions::bitonic(8).expect("valid width");
    let path = std::env::temp_dir().join(format!("cnet-read-once-trace-{}", std::process::id()));
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/examples/arrival_trace.txt"),
        &path,
    )
    .expect("temp dir is writable");
    let workload = Workload {
        total_ops: 200,
        arrival: ArrivalProcess::Trace {
            path: path.to_str().expect("utf-8 temp path").to_string(),
        },
        ..Workload::paper(4, 25, 100)
    }
    .check()
    .expect("the committed example checks");
    let sim = |checked| {
        let spec = BackendSpec::all()[0];
        assert_eq!(spec.name(), "sim");
        spec.build(&net, 7).unwrap().run_checked(checked).stats
    };
    let before = sim(&workload);
    std::fs::remove_file(&path).expect("the trace was written");
    for spec in BackendSpec::all() {
        let outcome = spec
            .build(&net, 7)
            .expect("width 8 hosts every family")
            .run_checked(&workload);
        let mut values: Vec<u64> = outcome.stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..200).collect::<Vec<u64>>(), "`{spec}`");
        assert!(outcome.counts_exactly(), "`{spec}`");
        assert!(
            outcome.has_step_property() || spec.relaxes_step(),
            "`{spec}` lost the step"
        );
    }
    let after = sim(&workload);
    assert_eq!(after.operations, before.operations);
    assert_eq!(after.completed_by, before.completed_by);
    assert_eq!(after.summary(100), before.summary(100));
}

/// Four operations in bursts of one, `u64::MAX` cycles apart.
fn bursty_overflow() -> Workload {
    Workload {
        total_ops: 4,
        arrival: ArrivalProcess::Bursty {
            burst: 1,
            gap: u64::MAX,
        },
        ..Workload::paper(1, 0, 0)
    }
}

#[test]
fn a_bursty_overflow_is_refused_at_the_check() {
    assert_eq!(
        bursty_overflow().check().err(),
        Some(WorkloadError::ArrivalOverflow)
    );
}

#[test]
#[should_panic(expected = "invalid workload: the arrival schedule can run past u64::MAX / 2")]
fn the_simulator_panics_on_a_bursty_overflow_with_the_typed_text() {
    let net = constructions::bitonic(8).expect("valid width");
    let _ = Simulator::new(&net, SimConfig::queue_lock(1)).run(&bursty_overflow());
}
