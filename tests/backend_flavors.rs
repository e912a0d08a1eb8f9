//! The `cnet` front door offers exactly the engine registry's seven
//! backend families. A flavor outside it is a typed usage error that
//! lists the grammar, a workload with no client is refused instead of
//! reported as a clean empty run, and `cnet help` prints the flavor
//! line the registry generates.

use cnet_cli::CliError;

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
