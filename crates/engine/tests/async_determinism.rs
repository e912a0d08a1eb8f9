//! Determinism of the cooperative async executor.
//!
//! The async backend's design claim (see `async_exec`'s module docs)
//! is that turn-sequenced admission makes the *entire* value and
//! logical-timestamp history a pure function of `(seed, workload,
//! topology)` — the worker-pool size and the client-chunking only
//! decide which OS thread hosts which client, never what the network
//! observes. These tests pin that claim:
//!
//! * a proptest replays random workload shapes across worker pools of
//!   1, 2, and 8 and three chunk granularities and requires identical
//!   `RunOutcome` value sequences (and clock brackets);
//! * tiny (≤ 16 op) async traces are cross-checked against the
//!   brute-force `check_exhaustive` oracle *and* the Definition 2.4
//!   sweep — serialized admission must be linearizable by both
//!   deciders, not just by the cheap one.
//!
//! Failures print `reproduce with CNET_TEST_SEED=<seed>`.

use cnet_concurrent::testcfg;
use cnet_engine::{ArrivalProcess, AsyncBackend, AsyncConfig, Backend, Workload};
use cnet_timing::linearizability::{check_exhaustive, count_nonlinearizable};
use cnet_timing::Operation;
use cnet_topology::{constructions, Topology};
use proptest::prelude::*;

/// The executor grids the determinism claim must hold over: worker
/// pools of 1 (fully sequential), 2, and 8 (more workers than the
/// host has cores), crossed with chunk sizes from degenerate (every
/// client its own chunk) to coarser than the whole arena.
const GRID: [(usize, usize); 5] = [(1, 1024), (2, 1024), (8, 1024), (2, 1), (8, 7)];

fn run_grid(net: &Topology, workload: &Workload, seed: u64) -> Vec<Vec<Operation>> {
    GRID.iter()
        .map(|&(workers, chunk)| {
            let config = AsyncConfig {
                workers,
                chunk,
                windows: 4,
            };
            AsyncBackend::new(net, config, seed)
                .run(workload)
                .stats
                .operations
        })
        .collect()
}

#[test]
fn same_seed_same_history_across_workers_and_chunking() {
    let net = constructions::bitonic(8).expect("valid width");
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let workload = Workload {
            total_ops: 400,
            ..Workload::paper(37, 25, 50)
        };
        let runs = run_grid(&net, &workload, seed);
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                run, &runs[0],
                "worker/chunk grid entry {i} ({:?}) diverged from entry 0",
                GRID[i]
            );
        }
    });
}

#[test]
fn open_loop_histories_are_equally_deterministic() {
    // arrival waiting changes wall-clock behavior but may not change
    // values or logical brackets
    let net = constructions::counting_tree(8).expect("valid width");
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let workload = Workload {
            total_ops: 200,
            arrival: ArrivalProcess::Open { mean_gap: 150 },
            ..Workload::paper(16, 0, 0)
        };
        let runs = run_grid(&net, &workload, seed);
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workload shapes (client count, op count, delayed
    /// fraction, wait mode mix via wait_cycles, arrival process) all
    /// satisfy the grid-invariance claim.
    #[test]
    fn histories_are_invariant_under_executor_shape(
        clients in 1usize..64,
        ops in 1usize..200,
        delayed in 0u32..=100,
        wait in 0u64..100,
        arrival_pick in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let arrival = match arrival_pick {
            0 => ArrivalProcess::Closed,
            1 => ArrivalProcess::Open { mean_gap: 50 },
            _ => ArrivalProcess::Bursty { burst: 4, gap: 200 },
        };
        let workload = Workload {
            total_ops: ops,
            arrival,
            ..Workload::paper(clients, delayed, wait)
        };
        let net = constructions::bitonic(4).expect("valid width");
        let runs = run_grid(&net, &workload, seed);
        for run in &runs[1..] {
            prop_assert_eq!(run, &runs[0]);
        }
        prop_assert_eq!(runs[0].len(), ops);
    }

    /// Tiny async traces vs the brute-force oracle: serialized
    /// admission must be linearizable under exhaustive search, and the
    /// Definition 2.4 sweep must agree (`Some` witness ⇔ zero
    /// victims). 16 ops is the oracle's tractability ceiling.
    #[test]
    fn oracle_and_sweep_agree_on_tiny_async_traces(
        clients in 1usize..8,
        ops in 1usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let net = constructions::bitonic(4).expect("valid width");
        let config = AsyncConfig { workers: 2, chunk: 2, windows: 2 };
        let outcome = AsyncBackend::new(&net, config, seed).run(&Workload {
            total_ops: ops,
            ..Workload::paper(clients, 0, 0)
        });
        let operations = &outcome.stats.operations;
        let sweep = count_nonlinearizable(operations);
        let witness = check_exhaustive(operations);
        prop_assert_eq!(sweep, 0, "turn sequencing admitted an overlap anomaly");
        prop_assert!(
            witness.is_some(),
            "sweep found no victims but the oracle found no linearization: {:?}",
            operations
        );
        prop_assert_eq!(outcome.stats.nonlinearizable, sweep);
    }
}
