//! The shared op quota and the in-place trace of the thread-per-client
//! driver, seen from outside.
//!
//! A closed loop claims the slots of the returned buffer a chunk at a
//! time (at most 64, at most 1/16 of a thread's fair share); whatever
//! the chunk works out to, a run completes exactly `total_ops`
//! operations with the values `0..total_ops`, slot `i` holds token `i`,
//! and each thread's slots, read in order, are the operations it ran
//! one after another. With an arrival schedule op `i` still meets
//! arrival `i`.

use cnet_concurrent::network::BalancerKind;
use cnet_engine::{
    arrival_schedule, ArrivalProcess, AsyncBackend, AsyncConfig, Backend, BackendSpec, CounterSpec,
    ShmBackend, Workload,
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

#[test]
fn every_quota_shape_completes_exactly_on_every_threaded_backend() {
    let net = constructions::bitonic(8).expect("valid width");
    let threaded = BackendSpec::all()
        .into_iter()
        .filter(|spec| matches!(spec, BackendSpec::Threads(_)));
    let backends: Vec<Box<dyn Backend + '_>> = threaded
        .map(|spec| {
            spec.build(&net, 0xC0DE)
                .expect("width 8 hosts every family")
        })
        .collect();
    let workloads = [
        // chunk 64, and the quota is not a multiple of it
        closed(3, 3 * 16 * 64 + 37),
        // a chunk under the cap (1003 / 3 / 16 = 20), same remainder rule
        closed(3, 1003),
        // fair share under 16: chunk 1
        closed(4, 50),
        closed(8, 5),
        closed(4, 1),
        // half the threads spin 200 per node; the chunk is 500 / 4 / 16 =
        // 7, all a slow thread can still hold when the fast ones run dry
        Workload {
            total_ops: 500,
            ..Workload::paper(4, 50, 200)
        },
    ];
    for backend in &backends {
        for workload in &workloads {
            let outcome = backend.run(workload);
            let shape = format!(
                "`{}` with {} ops on {} threads",
                outcome.backend, workload.total_ops, workload.processors
            );
            assert_eq!(
                outcome.stats.operations.len(),
                workload.total_ops,
                "{shape}"
            );
            assert!(outcome.counts_exactly(), "{shape}: not exactly 0..n");
            assert_eq!(
                outcome.stats.output_counts.total() as usize,
                workload.total_ops,
                "{shape}"
            );
            assert_eq!(
                outcome.stats.completed_by.len(),
                workload.total_ops,
                "{shape}"
            );
            let mut last_end = vec![None; workload.processors];
            for (i, (op, thread)) in outcome
                .stats
                .operations
                .iter()
                .zip(outcome.stats.completed_by.iter())
                .enumerate()
            {
                assert_eq!(op.token, i, "{shape}: slot {i} holds another token");
                let last = last_end
                    .get_mut(thread as usize)
                    .unwrap_or_else(|| panic!("{shape}: slot {i} names thread {thread}"));
                assert!(
                    op.start < op.end && last.is_none_or(|end| end < op.start),
                    "{shape}: thread {thread}'s slots are not one sequential stream at {i}"
                );
                *last = Some(op.end);
            }
        }
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
        };
        let schedule = arrival_schedule(&workload, seed);
        let config = AsyncConfig {
            workers: 2,
            chunk: 8,
            windows: 4,
        };
        let network = CounterSpec::Network(BalancerKind::WaitFree);
        let outcome = AsyncBackend::new(&net, network, config, seed)
            .expect("every topology hosts its own network counter")
            .run(&workload);
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
            ..workload
        });
        assert_eq!(threaded.stats.operations.len(), 600, "{arrival:?}");
        assert!(threaded.counts_exactly(), "{arrival:?}");
        for (i, op) in threaded.stats.operations.iter().enumerate() {
            assert_eq!(op.token, i, "{arrival:?}");
        }
    }
}
