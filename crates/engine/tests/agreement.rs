//! Differential agreement across the three execution backends.
//!
//! The engine's contract is that a counting network is a counting
//! network regardless of substrate: the simulator, the shared-memory
//! counters, and the cooperative async executor must all produce
//! histories that count exactly and final totals with the step
//! property, for the *same* seeded workload.
//! Timing (and therefore linearizability violations) legitimately
//! differs between substrates; the semantic invariants may not.
//!
//! Failures print `reproduce with CNET_TEST_SEED=<seed>` via
//! [`cnet_concurrent::testcfg::with_seed_report`]; set that variable to
//! replay a failing configuration.

use cnet_concurrent::network::BalancerKind;
use cnet_concurrent::testcfg;
use cnet_engine::{
    ArrivalProcess, AsyncConfig, Backend, BackendSpec, CounterSpec, SimBackend, Workload,
};
use cnet_proteus::SimConfig;
use cnet_topology::constructions;

/// Runs `workload` through all three backends over the same topology
/// and audits every history against the backend-independent invariants.
fn assert_backends_agree(workload: &Workload, seed: u64) {
    let net = constructions::bitonic(8).expect("valid width");
    let network = CounterSpec::Network(BalancerKind::WaitFree);
    let specs = [
        BackendSpec::Sim(SimConfig::queue_lock(seed)),
        BackendSpec::Threads(network),
        BackendSpec::Async(network, AsyncConfig::default()),
    ];
    for spec in specs {
        let backend = spec.build(&net, seed).expect("width 8 hosts all three");
        let outcome = backend.run(workload);
        assert_eq!(
            outcome.stats.operations.len(),
            workload.total_ops,
            "backend `{}` must complete every requested op",
            outcome.backend
        );
        assert!(
            outcome.counts_exactly(),
            "backend `{}` returned a non-permutation history",
            outcome.backend
        );
        assert!(
            outcome.has_step_property(),
            "backend `{}` final counts lack the step property: {:?}",
            outcome.backend,
            outcome.stats.output_counts.as_slice()
        );
        assert_eq!(
            outcome.stats.output_counts.total() as usize,
            workload.total_ops,
            "backend `{}` counter totals disagree with the op count",
            outcome.backend
        );
        // Def-2.4 exactness: the stored violation count is the sweep's
        // answer for this trace, recomputable bit-for-bit
        assert_eq!(
            outcome.stats.nonlinearizable,
            cnet_timing::linearizability::count_nonlinearizable(&outcome.stats.operations),
            "backend `{}` reported a stale Definition 2.4 count",
            outcome.backend
        );
        // the async executor serializes admission, so its histories are
        // linearizable by construction
        if matches!(spec, BackendSpec::Async(..)) {
            assert_eq!(
                outcome.stats.nonlinearizable, 0,
                "turn-sequenced admission cannot produce overlap anomalies"
            );
        }
    }
}

#[test]
fn closed_loop_histories_agree_across_backends() {
    let params = testcfg::stress();
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        assert_backends_agree(
            &Workload {
                total_ops: params.total() as usize,
                ..Workload::paper(params.threads, 0, 0)
            },
            seed,
        );
    });
}

#[test]
fn delayed_fraction_histories_agree_across_backends() {
    let params = testcfg::stress();
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        assert_backends_agree(
            &Workload {
                total_ops: params.total() as usize,
                ..Workload::paper(params.threads, 50, 300)
            },
            seed,
        );
    });
}

#[test]
fn open_loop_histories_agree_across_backends() {
    let params = testcfg::stress();
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        assert_backends_agree(
            &Workload {
                total_ops: (params.total() as usize).min(600),
                arrival: ArrivalProcess::Open { mean_gap: 400 },
                ..Workload::paper(params.threads, 0, 0)
            },
            seed,
        );
    });
}

#[test]
fn bursty_histories_agree_across_backends() {
    let params = testcfg::stress();
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        assert_backends_agree(
            &Workload {
                total_ops: (params.total() as usize).min(600),
                arrival: ArrivalProcess::Bursty {
                    burst: 16,
                    gap: 2000,
                },
                ..Workload::paper(params.threads, 0, 0)
            },
            seed,
        );
    });
}

#[test]
fn arrival_schedules_are_shared_across_backends() {
    // same (seed, workload) ⇒ the sim draws its gaps from the same
    // stream as the native driver: the simulated history length and
    // exact arrival count must match on every backend (already checked
    // above); here we pin that two *sim* runs with the seed the native
    // backends used are identical, so cross-backend comparisons are
    // about substrate, never about divergent schedules
    let net = constructions::bitonic(8).expect("valid width");
    let workload = Workload {
        total_ops: 200,
        arrival: ArrivalProcess::Open { mean_gap: 250 },
        ..Workload::paper(4, 0, 0)
    };
    let a = SimBackend::new(&net, SimConfig::queue_lock(9)).run(&workload);
    let b = SimBackend::new(&net, SimConfig::queue_lock(9)).run(&workload);
    assert_eq!(a.stats.operations, b.stats.operations);
    assert_eq!(a.stats.sim_time, b.stats.sim_time);
}
