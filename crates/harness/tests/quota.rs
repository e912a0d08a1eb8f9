//! The shared op quota of the thread-per-client driver, on every
//! threaded family of the registry.
//!
//! A closed loop claims the slots of the returned buffer a chunk at a
//! time (at most 64, at most 1/16 of a thread's fair share); whatever
//! the chunk works out to, a run completes exactly `total_ops`
//! operations with the values `0..total_ops`, slot `i` holds token `i`,
//! and each thread's slots, read in order, are the operations it ran
//! one after another.

use cnet_engine::{Backend, Workload};
use cnet_harness::BackendSpec;
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
