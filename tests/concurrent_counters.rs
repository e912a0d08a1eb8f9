//! Native-threads integration tests through the facade crate: every
//! counter implementation, exercised concurrently, hands out each value
//! exactly once and keeps its quiescent step property.
//!
//! Thread/op counts come from the shared
//! [`counting_networks::concurrent::testcfg`] helper (overridable via
//! `CNET_STRESS_THREADS` / `CNET_STRESS_OPS`); failures print a
//! `CNET_TEST_SEED` reproduction line.

use std::sync::Arc;

use counting_networks::concurrent::audit::{run_stress, StressConfig};
use counting_networks::concurrent::counter::{Counter, FetchAddCounter, LockCounter};
use counting_networks::concurrent::network::{BalancerKind, NetworkCounter};
use counting_networks::concurrent::testcfg;
use counting_networks::concurrent::tree::{DiffractingTreeCounter, TreeConfig};
use counting_networks::engine::{
    Backend, CounterSpec, ShmBackend, TreeConfig as EngineTreeConfig, Workload,
};
use counting_networks::topology::constructions;

// Kept (rather than ported onto the engine) because it exercises the
// bare `Counter` facade of implementations the engine does not adopt
// as backends (fetch_add, mutex); the engine-driven equivalents live
// below and in `crates/engine/tests/agreement.rs`.
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
    testcfg::with_seed_report(testcfg::seed(), |_| {
        let bitonic = constructions::bitonic(8).unwrap();
        let periodic = constructions::periodic(4).unwrap();
        let padded = constructions::pad_inputs(&bitonic, 2).unwrap();
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
            ("tree8", Arc::new(DiffractingTreeCounter::new(8).unwrap())),
            (
                "tree8-noprism",
                Arc::new(
                    DiffractingTreeCounter::with_config(
                        8,
                        TreeConfig {
                            root_slots: 0,
                            spin: 0,
                        },
                    )
                    .unwrap(),
                ),
            ),
        ];
        for (name, counter) in counters {
            let all = hammer(counter, cfg);
            assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>(), "{name}");
        }
    });
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
        let counter = CounterSpec::Tree(EngineTreeConfig::default());
        let outcome = ShmBackend::new(&tree, counter, seed)
            .expect("width 16 hosts a tree")
            .run(&Workload {
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
fn audited_stress_preserves_counting_under_heavy_skew() {
    let cfg = testcfg::stress().with_per_thread(1_000);
    testcfg::with_seed_report(testcfg::seed(), |_| {
        let net = constructions::bitonic(4).unwrap();
        let counter = NetworkCounter::new(&net);
        let report = run_stress(
            &counter,
            StressConfig {
                threads: cfg.threads,
                ops_per_thread: cfg.per_thread,
                delayed_threads: cfg.threads / 2,
                spin_per_node: 5_000,
            },
        );
        assert_eq!(report.operations.len(), cfg.total() as usize);
        assert!(report.counts_exactly());
        // the ratio is machine-dependent; it only needs to be well-defined
        assert!(report.nonlinearizable_ratio() >= 0.0);
    });
}

#[test]
fn centralized_counters_stay_linearizable_under_audit() {
    let cfg = testcfg::stress().with_per_thread(1_500);
    testcfg::with_seed_report(testcfg::seed(), |_| {
        let stress = StressConfig {
            threads: cfg.threads,
            ops_per_thread: cfg.per_thread,
            delayed_threads: 0,
            spin_per_node: 0,
        };
        let report = run_stress(&FetchAddCounter::new(), stress);
        assert_eq!(report.nonlinearizable_count(), 0);
        let report = run_stress(&LockCounter::new(), stress);
        assert_eq!(report.nonlinearizable_count(), 0);
    });
}
