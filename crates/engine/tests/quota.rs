//! The shared op quota and the in-place trace of the thread-per-client
//! driver, seen from outside.
//!
//! The run's own trace holds the Definition 2.4 count the run stored,
//! and with an arrival schedule op `i` still meets arrival `i`. Every
//! quota shape on every threaded family of the registry is
//! `cnet-harness`'s `tests/quota.rs`.

use cnet_concurrent::network::BalancerKind;
use cnet_engine::{
    arrival_schedule, ArrivalProcess, AsyncBackend, AsyncConfig, Backend, ShmBackend, Workload,
};
use cnet_timing::linearizability::count_nonlinearizable;
use cnet_timing::Operation;
use cnet_topology::constructions;

fn closed(processors: usize, total_ops: usize) -> Workload {
    Workload {
        total_ops,
        ..Workload::paper(processors, 0, 0)
    }
}

/// The Definition 2.4 count by sorting: walk the operations by start,
/// admit finishers by end. Shares nothing with either table layout of
/// `cnet_timing::linearizability`.
fn count_by_sorting(ops: &[Operation]) -> usize {
    let mut by_start: Vec<&Operation> = ops.iter().collect();
    by_start.sort_unstable_by_key(|o| o.start);
    let mut by_end: Vec<&Operation> = ops.iter().collect();
    by_end.sort_unstable_by_key(|o| o.end);
    let (mut finished, mut max_finished, mut bad) = (0, None, 0);
    for op in by_start {
        while finished < by_end.len() && by_end[finished].end < op.start {
            max_finished = max_finished.max(Some(by_end[finished].value));
            finished += 1;
        }
        bad += usize::from(max_finished > Some(op.value));
    }
    bad
}

#[test]
fn stored_violation_count_is_the_sorted_count_of_the_run_s_own_trace() {
    let net = constructions::bitonic(8).expect("valid width");
    let workload = closed(4, 100_000);
    let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, 7).run(&workload);
    let ops = &outcome.stats.operations;
    assert_eq!(ops.len(), 100_000);
    assert!(outcome.counts_exactly());
    // the clock handed out every tick of 0..2n exactly once
    let mut ticks: Vec<u64> = ops.iter().flat_map(|o| [o.start, o.end]).collect();
    ticks.sort_unstable();
    assert!(ticks.iter().copied().eq(0..200_000));
    assert_eq!(outcome.stats.sim_time, 200_000);
    for (token, op) in ops.iter().enumerate() {
        assert_eq!(op.token, token);
    }
    assert_eq!(outcome.stats.nonlinearizable, count_by_sorting(ops));
    assert_eq!(outcome.stats.nonlinearizable, count_nonlinearizable(ops));
}

#[test]
fn scheduled_arrivals_still_pair_op_i_with_arrival_i() {
    let net = constructions::bitonic(8).expect("valid width");
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/arrival_trace.txt"
    );
    let arrivals = [
        ArrivalProcess::Open { mean_gap: 400 },
        ArrivalProcess::Bursty {
            burst: 16,
            gap: 5_000,
        },
        ArrivalProcess::Trace {
            path: trace.to_string(),
        },
    ];
    let (clients, seed) = (32, 0xA11);
    for arrival in arrivals {
        let workload = Workload {
            total_ops: 600,
            arrival: arrival.clone(),
            ..Workload::paper(clients, 0, 0)
        }
        .check()
        .expect("a well-formed workload");
        let schedule = arrival_schedule(&workload, seed);
        let config = AsyncConfig {
            workers: 2,
            chunk: 8,
            windows: 4,
        };
        let outcome = AsyncBackend::new(&net, config, seed).run_checked(&workload);
        assert!(outcome.counts_exactly(), "{arrival:?}");
        // token i is op i, admitted in schedule order by client i % n
        for (i, op) in outcome.stats.operations.iter().enumerate() {
            assert_eq!((op.token, op.start), (i, 2 * i as u64), "{arrival:?}");
            assert_eq!(
                outcome.stats.completed_by.process_of(i) as usize,
                i % clients,
                "{arrival:?}"
            );
        }
        let ol = outcome.open_loop.expect("scheduled runs carry telemetry");
        assert_eq!(ol.latency.count(), 600, "{arrival:?}");
        assert_eq!(
            Some(&ol.arrival_span_ns),
            schedule.iter().max(),
            "{arrival:?}"
        );
        // a sojourn is completion minus the op's own arrival, floored at
        // 0: none reads 0, so no op ran ahead of its instant
        assert!(ol.latency.min() > 0, "{arrival:?}");
        assert!(ol.completion_span_ns > ol.arrival_span_ns, "{arrival:?}");

        // the thread-per-client driver holds the same schedule; its
        // chunk is one, so slot i is claim i
        let threaded = ShmBackend::network(&net, BalancerKind::WaitFree, seed).run(&Workload {
            processors: 4,
            ..Workload::clone(&workload)
        });
        assert_eq!(threaded.stats.operations.len(), 600, "{arrival:?}");
        assert!(threaded.counts_exactly(), "{arrival:?}");
        for (i, op) in threaded.stats.operations.iter().enumerate() {
            assert_eq!(op.token, i, "{arrival:?}");
        }
    }
}
