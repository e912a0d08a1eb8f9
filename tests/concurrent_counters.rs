//! Native-threads integration tests through the facade crate: every
//! counter implementation, exercised concurrently, hands out each value
//! exactly once and keeps its quiescent step property; driven
//! sequentially, the one native traversal returns what the topology
//! crate's own router routes; driven by the engine's client threads,
//! the centralized counters grade linearizable and a run's processor
//! map names the thread that wrote each record.
//!
//! Thread/op counts come from the shared
//! [`counting_networks::concurrent::testcfg`] helper (overridable via
//! `CNET_STRESS_THREADS` / `CNET_STRESS_OPS`); an engine run's failure
//! prints the `CNET_TEST_SEED` that reproduces its inputs.

use std::sync::Arc;

use counting_networks::concurrent::counter::{Counter, FetchAddCounter, LockCounter};
use counting_networks::concurrent::network::{BalancerKind, NetworkCounter};
use counting_networks::concurrent::testcfg;
use counting_networks::engine::{run_counter, Backend, ShmBackend, Workload};
use counting_networks::timing::program_order::count_program_order_violations_by;
use counting_networks::topology::constructions;
use counting_networks::topology::router::SequentialRouter;

/// The diffracting tree's default prism: 8 slots at the root, halved
/// per layer, 64 spins of waiting.
const PRISM: BalancerKind = BalancerKind::Diffracting { slots: 8, spin: 64 };
/// The ablation: a diffracting plan with no prism anywhere.
const NO_PRISM: BalancerKind = BalancerKind::Diffracting { slots: 0, spin: 0 };

// Kept (rather than ported onto the engine) because it exercises the
// bare `Counter` facade, round-robin input cursor included; the
// engine-driven equivalents live below and in
// `crates/harness/tests/agreement.rs`.
fn hammer(counter: Arc<dyn Counter>, cfg: testcfg::StressParams) -> Vec<u64> {
    let mut handles = Vec::new();
    for _ in 0..cfg.threads {
        let c = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            (0..cfg.per_thread).map(|_| c.next()).collect::<Vec<u64>>()
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("no panic"))
        .collect();
    all.sort_unstable();
    all
}

#[test]
fn every_counter_implementation_counts_exactly() {
    let cfg = testcfg::stress().with_per_thread(750);
    let bitonic = constructions::bitonic(8).unwrap();
    let periodic = constructions::periodic(4).unwrap();
    let padded = constructions::pad_inputs(&bitonic, 2).unwrap();
    let tree = constructions::counting_tree(8).unwrap();
    let counters: Vec<(&str, Arc<dyn Counter>)> = vec![
        ("fetch_add", Arc::new(FetchAddCounter::new())),
        ("mutex", Arc::new(LockCounter::new())),
        ("bitonic8", Arc::new(NetworkCounter::new(&bitonic))),
        (
            "bitonic8-locked",
            Arc::new(NetworkCounter::with_kind(&bitonic, BalancerKind::Locked)),
        ),
        ("periodic4", Arc::new(NetworkCounter::new(&periodic))),
        ("bitonic8-padded", Arc::new(NetworkCounter::new(&padded))),
        ("tree8", Arc::new(NetworkCounter::with_kind(&tree, PRISM))),
        (
            "tree8-noprism",
            Arc::new(NetworkCounter::with_kind(&tree, NO_PRISM)),
        ),
    ];
    for (name, counter) in counters {
        let all = hammer(counter, cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>(), "{name}");
    }
}

#[test]
fn network_quiescent_state_is_a_step() {
    // deliberately not a multiple of the width; driven through the
    // engine, whose ShmBackend owns the client loop
    let cfg = testcfg::stress().with_per_thread(333);
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let net = constructions::bitonic(8).unwrap();
        let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, seed).run(&Workload {
            total_ops: cfg.total() as usize,
            ..Workload::paper(cfg.threads, 0, 0)
        });
        assert_eq!(outcome.stats.output_counts.total(), cfg.total());
        assert!(
            outcome.has_step_property(),
            "{}",
            outcome.stats.output_counts
        );
        assert!(outcome.counts_exactly());
    });
}

#[test]
fn tree_quiescent_state_is_a_step() {
    let cfg = testcfg::stress();
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let tree = constructions::counting_tree(16).unwrap();
        let outcome = ShmBackend::network(&tree, PRISM, seed).run(&Workload {
            total_ops: cfg.total() as usize,
            ..Workload::paper(cfg.threads, 0, 0)
        });
        assert_eq!(outcome.stats.output_counts.total(), cfg.total());
        assert!(
            outcome.has_step_property(),
            "{}",
            outcome.stats.output_counts
        );
        assert!(outcome.counts_exactly());
    });
}

/// One traversal against the topology crate's own model: for every
/// construction × every balancer style, the values `next_on` returns
/// one token at a time are the values [`SequentialRouter`] assigns
/// (`counter + w·prior`), and the quiescent tallies are its tallies.
/// With nobody to collide with, a prism visit times out and falls
/// through to the toggle, so `Diffracting` routes like the model too.
#[test]
fn sequential_traversal_matches_the_topology_router() {
    let bitonic = constructions::bitonic(4).unwrap();
    let nets = [
        ("bitonic8", constructions::bitonic(8).unwrap()),
        ("periodic8", constructions::periodic(8).unwrap()),
        (
            "bitonic4+pad3",
            constructions::pad_inputs(&bitonic, 3).unwrap(),
        ),
        ("tree8", constructions::counting_tree(8).unwrap()),
        ("tree16", constructions::counting_tree(16).unwrap()),
    ];
    let kinds = [
        BalancerKind::WaitFree,
        BalancerKind::Locked,
        PRISM,
        NO_PRISM,
    ];
    for (name, net) in &nets {
        for kind in kinds {
            let counter = NetworkCounter::with_kind(net, kind);
            let mut model = SequentialRouter::new(net);
            let v = net.input_width();
            // inputs in a fixed but non-round-robin order, five laps
            for i in 0..5 * net.output_width() {
                let input = (i * 3 + i / v) % v;
                assert_eq!(
                    counter.next_on(input),
                    model.route(input).unwrap().value,
                    "{name} {kind:?} diverged from the router at token {i}"
                );
            }
            assert_eq!(
                counter.output_counts(),
                model.output_counts().as_slice(),
                "{name} {kind:?}"
            );
        }
    }
}

/// Half the clients spin 5 000 iterations per node: the skew the
/// paper's `W` models, far past the guaranteed regime. Counting holds
/// whatever the interleaving; the Definition 2.4 ratio is a
/// measurement of the host, so it only needs to be well-defined.
#[test]
fn audited_stress_preserves_counting_under_heavy_skew() {
    let cfg = testcfg::stress().with_per_thread(1_000);
    let workload = Workload {
        total_ops: cfg.total() as usize,
        ..Workload::paper(cfg.threads, 50, 5_000)
    };
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let net = constructions::bitonic(4).unwrap();
        let outcome = run_counter(&NetworkCounter::new(&net), &workload, seed);
        assert_eq!(outcome.stats.operations.len(), cfg.total() as usize);
        assert!(outcome.counts_exactly());
        let ratio = outcome.stats.nonlinearizable_ratio();
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
    });
}

/// The negative control for the engine's lane grading: a single atomic
/// `fetch_add` and a mutex are linearizable, so the grader must count
/// no violation at any thread count. A record whose bracket is
/// narrower than the operation it timed shows up here as a false
/// positive.
#[test]
fn centralized_counters_stay_linearizable_under_audit() {
    let per_thread = testcfg::stress().with_per_thread(1_500).per_thread;
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        for threads in [2, 4] {
            let workload = Workload {
                total_ops: threads * per_thread,
                ..Workload::paper(threads, 0, 0)
            };
            let outcomes = [
                (
                    "fetch_add",
                    run_counter(&FetchAddCounter::new(), &workload, seed),
                ),
                ("mutex", run_counter(&LockCounter::new(), &workload, seed)),
            ];
            for (name, outcome) in outcomes {
                assert!(outcome.counts_exactly(), "{name} at {threads} threads");
                assert_eq!(
                    outcome.stats.nonlinearizable, 0,
                    "{name} at {threads} threads"
                );
            }
        }
    });
}

/// A native run's processor map comes from the chunks its client
/// threads claimed; each record's `input` comes from the client that
/// wrote it, and on a 16-input network client `t` enters on input
/// `t`. The two witnesses must name the same thread for every slot,
/// the last, partial chunk included, and the program-order count read
/// through the map must be the one over its per-operation expansion.
#[test]
fn the_processor_map_names_the_thread_that_wrote_each_record() {
    let per_thread = testcfg::stress().with_per_thread(1_500).per_thread;
    let net = constructions::bitonic(16).unwrap();
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        for threads in [2, 4] {
            let workload = Workload {
                total_ops: threads * per_thread,
                ..Workload::paper(threads, 0, 0)
            };
            let outcome = ShmBackend::network(&net, BalancerKind::WaitFree, seed).run(&workload);
            assert!(outcome.counts_exactly(), "{threads} threads");
            let stats = &outcome.stats;
            assert_eq!(stats.completed_by.len(), stats.operations.len());
            for (i, op) in stats.operations.iter().enumerate() {
                assert_eq!(
                    stats.completed_by.process_of(i),
                    op.input,
                    "slot {i} at {threads} threads"
                );
            }
            let per_op: Vec<u32> = stats.completed_by.iter().collect();
            assert_eq!(
                stats.program_order_violations(),
                count_program_order_violations_by(&stats.operations, |i| per_op[i] as usize),
                "{threads} threads"
            );
        }
    });
}
