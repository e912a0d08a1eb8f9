//! Differential tests: the one production traversal against the
//! pre-refactor one, which lives on only as this suite's oracle
//! ([`oracle::ReferenceCounter`]).
//!
//! For every topology kind × width in the grid below and every
//! [`BalancerKind`] — the diffracting tree included, which is
//! `counting_tree` × `Diffracting` on the compiled arena —
//! [`NetworkCounter`] and the oracle must be observationally
//! equivalent:
//!
//! * driven sequentially, they return the *same value sequence* (the
//!   compiled `fetch_xor` bit walks the same 0,1,0,1… orbit as the
//!   reference `fetch_add % 2`);
//! * driven by the engine's client threads ([`run_counter`]), both
//!   hand out each value exactly once, and their quiescent
//!   `output_counts()` are identical — every grid topology is a
//!   counting network, so its quiescent outputs are the one step of
//!   the total, whatever the interleaving and however the quota split
//!   the operations over the inputs;
//! * with a delayed client, both produce traces the Definition 2.4
//!   grading accepts as exact counts (the non-linearizable *ratio* is
//!   a measurement, not an invariant — the paper's point).
//!
//! The stressed checks pass a `testcfg` seed into the engine run and
//! print it on failure; it reproduces the run's inputs, not the
//! interleaving of its threads.

use cnet_concurrent::network::BalancerKind;
use cnet_concurrent::testcfg;
use cnet_concurrent::NetworkCounter;
use cnet_engine::{run_counter, Workload};
use cnet_topology::{constructions, OutputCounts, Topology};

mod oracle;
use oracle::ReferenceCounter;

/// The topology kind × width grid: every construction the experiments
/// sweep, at the widths the topology crate's own tests cover.
fn grid() -> Vec<(String, Topology)> {
    let mut nets = Vec::new();
    for w in [2usize, 4, 8, 16] {
        nets.push((format!("bitonic[{w}]"), constructions::bitonic(w).unwrap()));
    }
    for w in [2usize, 4, 8, 16] {
        nets.push((
            format!("periodic[{w}]"),
            constructions::periodic(w).unwrap(),
        ));
    }
    for w in [2usize, 4, 8, 16] {
        nets.push((
            format!("counting-tree[{w}]"),
            constructions::counting_tree(w).unwrap(),
        ));
    }
    let inner = constructions::bitonic(4).unwrap();
    nets.push((
        "bitonic[4]+pad2".to_string(),
        constructions::pad_inputs(&inner, 2).unwrap(),
    ));
    nets.push((
        "single-balancer".to_string(),
        constructions::single_balancer(),
    ));
    nets
}

/// Every balancer style; `Diffracting` with a prism that halves per
/// layer on the compiled side (8, 4, 2, 1, 1, …; the oracle keeps 8
/// everywhere — sizing is not observable in values or counts), with a
/// single-slot prism, and with none.
fn kinds() -> [BalancerKind; 5] {
    [
        BalancerKind::WaitFree,
        BalancerKind::Locked,
        BalancerKind::Diffracting { slots: 8, spin: 8 },
        BalancerKind::Diffracting { slots: 1, spin: 8 },
        BalancerKind::Diffracting { slots: 0, spin: 0 },
    ]
}

/// Sequentially, compiled and reference are the *same machine*: every
/// toggle sequence matches, so every returned value matches.
#[test]
fn sequential_value_sequences_are_identical() {
    for (name, net) in grid() {
        for kind in kinds() {
            let compiled = NetworkCounter::with_kind(&net, kind);
            let reference = ReferenceCounter::with_kind(&net, kind);
            let v = net.input_width();
            for i in 0..(8 * v as u64) {
                let input = (i as usize) % v;
                assert_eq!(
                    compiled.next_on(input),
                    reference.next_on(input),
                    "{name} {kind:?} diverged at op {i}"
                );
            }
            assert_eq!(
                compiled.output_counts(),
                reference.output_counts(),
                "{name} {kind:?} quiescent counts diverged"
            );
        }
    }
}

/// With no concurrency the toggle path of a diffracting tree visits
/// leaves `0, 1, …, w − 1` in order, like the model tree: the compiled
/// plan walks `counting_tree`'s own interleaved wiring.
#[test]
fn leaf_interleaving_matches_counting_tree() {
    for w in [2usize, 4, 8, 16] {
        let net = constructions::counting_tree(w).unwrap();
        for kind in kinds() {
            let tree = NetworkCounter::with_kind(&net, kind);
            let leaves: Vec<u64> = (0..2 * w).map(|_| tree.next_on(0) % w as u64).collect();
            let want: Vec<u64> = (0..2 * w as u64).map(|i| i % w as u64).collect();
            assert_eq!(leaves, want, "tree[{w}] {kind:?}");
        }
    }
}

/// Under stress both implementations count exactly, and their
/// quiescent output counts are identical: the one step of the total.
#[test]
fn stressed_output_counts_are_identical() {
    let cfg = testcfg::stress().with_per_thread(200);
    let workload = Workload {
        total_ops: cfg.total() as usize,
        ..Workload::paper(cfg.threads, 0, 0)
    }
    .check()
    .expect("a well-formed workload");
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        for (name, net) in grid() {
            for kind in kinds() {
                let compiled = NetworkCounter::with_kind(&net, kind);
                let reference = ReferenceCounter::with_kind(&net, kind);
                assert!(
                    run_counter(&compiled, &workload, seed).counts_exactly(),
                    "{name} {kind:?} compiled missed a value"
                );
                assert!(
                    run_counter(&reference, &workload, seed).counts_exactly(),
                    "{name} {kind:?} reference missed a value"
                );
                let counts = compiled.output_counts();
                assert_eq!(
                    counts,
                    reference.output_counts(),
                    "{name} {kind:?} quiescent counts diverged"
                );
                let step = OutputCounts::from(counts);
                assert!(step.is_step(), "{name} {kind:?}: {step}");
            }
        }
    });
}

/// Both implementations with one delayed client (`W` = 50 spins per
/// node): the Definition 2.4 grading must see exact counts from each;
/// the measured ratio is reported, not asserted (wait-free networks
/// are allowed to be non-linearizable — that is the paper's subject,
/// not a bug).
#[test]
fn audit_traces_count_exactly_for_both() {
    let threads = testcfg::stress().threads;
    let one_delayed = u32::try_from(100 / threads).expect("a percentage fits u32");
    let workload = Workload {
        total_ops: threads * 300,
        ..Workload::paper(threads, one_delayed, 50)
    }
    .check()
    .expect("a well-formed workload");
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let net = constructions::bitonic(16).unwrap();
        for kind in kinds() {
            let compiled = NetworkCounter::with_kind(&net, kind);
            let reference = ReferenceCounter::with_kind(&net, kind);
            let a = run_counter(&compiled, &workload, seed);
            let b = run_counter(&reference, &workload, seed);
            assert!(a.counts_exactly(), "compiled {kind:?} counting violated");
            assert!(b.counts_exactly(), "reference {kind:?} counting violated");
            println!(
                "bitonic[16] {kind:?}: Def-2.4 nonlinearizable ratio \
                 compiled={:.4} reference={:.4}",
                a.stats.nonlinearizable_ratio(),
                b.stats.nonlinearizable_ratio()
            );
        }
    });
}
