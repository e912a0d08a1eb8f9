//! Differential tests: the elastic frontends against the plain
//! compiled traversal, each driven by the engine's client threads
//! ([`ShmBackend`] over a [`CounterSpec`]).
//!
//! Every frontend must preserve the *counting* property the plain
//! network has — each value handed out exactly once, no gaps — while
//! being allowed its documented relaxation of the quiescent step:
//!
//! * **combining** — per-counter tallies are a `(k-1)`-relaxed step (a
//!   `k`-batch lands on one counter), but the tally *sum* must equal
//!   the plain network's for the same operation count;
//! * **sharding (round-robin)** — each shard's block is an exact step
//!   and the global value space is gap-free (residue classes partition
//!   `0..n` exactly as the ticket router partitions the operations).
//!
//! With a delayed client each frontend's trace must pass the
//! Definition 2.4 grading's exact-count test, and on ≤16-operation
//! traces the brute-force linearizability oracle must agree with the
//! Definition 2.4 sweep (`check_exhaustive` answers `Some` iff the
//! sweep counts zero) — the same equivalence `tests/def24.rs` pins for
//! the simulator.
//!
//! Every check passes a `testcfg` seed into the engine run and prints
//! it on failure; it reproduces the run's inputs, not the interleaving
//! of its threads.

use cnet_concurrent::testcfg;
use cnet_engine::{
    Backend, BalancerKind, CombiningConfig, CounterSpec, RoutePolicy, RunOutcome, ShmBackend,
    Workload,
};
use cnet_timing::linearizability;
use cnet_topology::{constructions, Topology};

/// A tight combining config that exercises claim/withdraw/solo races,
/// not just the happy path.
const TIGHT_COMBINING: CounterSpec = CounterSpec::Batch(
    BalancerKind::WaitFree,
    CombiningConfig {
        slots: 4,
        max_batch: 4,
        spin: 8,
    },
);

/// Round-robin sharding over `shards` bitonic networks.
fn sharded(shards: usize) -> CounterSpec {
    CounterSpec::Shard(BalancerKind::WaitFree, RoutePolicy::RoundRobin, shards)
}

fn run(net: &Topology, counter: CounterSpec, workload: &Workload, seed: u64) -> RunOutcome {
    ShmBackend::new(net, counter, seed)
        .expect("the shard count splits the width")
        .run(workload)
}

/// `threads` clients, `per_thread` operations each, the first client
/// spinning 50 iterations per node.
fn one_delayed(threads: usize, per_thread: usize) -> Workload {
    let percent = u32::try_from(100 / threads).expect("a percentage fits u32");
    Workload {
        total_ops: threads * per_thread,
        ..Workload::paper(threads, percent, 50)
    }
}

/// Quiescent tally sums: every frontend accounts for exactly as many
/// operations as the plain compiled network it races.
#[test]
fn quiescent_tally_sums_match_the_plain_network() {
    let cfg = testcfg::stress().with_per_thread(200);
    let workload = Workload {
        total_ops: cfg.total() as usize,
        ..Workload::paper(cfg.threads, 0, 0)
    };
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let net = constructions::bitonic(8).unwrap();
        let plain = ShmBackend::network(&net, BalancerKind::WaitFree, seed).run(&workload);
        assert!(plain.counts_exactly());
        let plain_sum = plain.stats.output_counts.total();
        assert_eq!(plain_sum, cfg.total());
        for (label, counter) in [("combining", TIGHT_COMBINING), ("sharded", sharded(2))] {
            let outcome = run(&net, counter, &workload, seed);
            assert!(
                outcome.counts_exactly(),
                "{label} missed or duplicated a value"
            );
            assert_eq!(
                outcome.stats.output_counts.total(),
                plain_sum,
                "{label} tallies lost an operation"
            );
        }
    });
}

/// Every frontend with one delayed client: the Definition 2.4 grading
/// must see exact counts (no dup, no gap); the measured ratio is
/// reported, never asserted.
#[test]
fn audit_traces_count_exactly_for_every_frontend() {
    let workload = one_delayed(testcfg::stress().threads, 300);
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let net = constructions::bitonic(16).unwrap();
        let a = run(&net, TIGHT_COMBINING, &workload, seed);
        assert!(a.counts_exactly(), "combining counting violated");
        let b = run(&net, sharded(4), &workload, seed);
        assert!(b.counts_exactly(), "sharded counting violated");
        println!(
            "bitonic[16] frontends: Def-2.4 nonlinearizable ratio \
             combining={:.4} sharded={:.4}",
            a.stats.nonlinearizable_ratio(),
            b.stats.nonlinearizable_ratio()
        );
    });
}

/// On traces small enough for the brute-force oracle, the oracle and
/// the Definition 2.4 sweep must agree for every frontend — `Some`
/// witness iff zero swept violations (exact-valued traces only, which
/// the previous test guarantees these are).
#[test]
fn exhaustive_oracle_agrees_with_the_sweep_on_tiny_traces() {
    let workload = one_delayed(4, linearizability::EXHAUSTIVE_MAX_OPS / 4);
    testcfg::with_seed_report(testcfg::seed(), |seed| {
        let net = constructions::bitonic(4).unwrap();
        for (label, counter) in [("combining", TIGHT_COMBINING), ("sharded", sharded(2))] {
            let outcome = run(&net, counter, &workload, seed);
            let operations = &outcome.stats.operations;
            assert!(outcome.counts_exactly(), "{label} counting violated");
            assert!(operations.len() <= linearizability::EXHAUSTIVE_MAX_OPS);
            let witness = linearizability::check_exhaustive(operations);
            let swept = outcome.stats.nonlinearizable;
            assert_eq!(
                witness.is_some(),
                swept == 0,
                "{label}: oracle disagrees with the Definition 2.4 sweep \
                 (witness={witness:?}, swept={swept})"
            );
            println!("{label}: {} ops, swept={swept}", operations.len());
        }
    });
}
