//! Differential tests: the elastic frontends against the plain
//! compiled traversal.
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
//! Under the audit harness each frontend's trace must pass the
//! Definition 2.4 checker's exact-count test, and on ≤16-operation
//! traces the brute-force linearizability oracle must agree with the
//! Definition 2.4 sweep (`check_exhaustive` answers `Some` iff the
//! sweep counts zero) — the same equivalence `tests/oracle.rs` pins
//! for the simulator.
//!
//! Every stressed check runs inside `testcfg::with_seed_report`, so a
//! failure prints the `CNET_TEST_SEED` that reproduces it.

use std::sync::Arc;

use cnet_concurrent::audit::{run_stress, StressConfig, StressCounter};
use cnet_concurrent::frontend::{CombiningConfig, CombiningCounter, RoutePolicy, ShardedCounter};
use cnet_concurrent::network::BalancerKind;
use cnet_concurrent::testcfg;
use cnet_concurrent::NetworkCounter;
use cnet_timing::linearizability;
use cnet_topology::{constructions, Topology};

fn bitonic(width: usize) -> Topology {
    constructions::bitonic(width).unwrap()
}

/// A tight combining config that exercises claim/withdraw/solo races,
/// not just the happy path.
fn tight_combining() -> CombiningConfig {
    CombiningConfig {
        slots: 4,
        max_batch: 4,
        spin: 8,
    }
}

fn hammer<C: StressCounter + 'static>(
    counter: &Arc<C>,
    threads: usize,
    per_thread: usize,
) -> Vec<u64> {
    let mut handles = Vec::new();
    for t in 0..threads {
        let c = Arc::clone(counter);
        handles.push(std::thread::spawn(move || {
            (0..per_thread)
                .map(|_| c.next_stressed(t, 0))
                .collect::<Vec<u64>>()
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("no panic"))
        .collect();
    all.sort_unstable();
    all
}

/// Quiescent tally sums: every frontend accounts for exactly as many
/// operations as the plain compiled network it races.
#[test]
fn quiescent_tally_sums_match_the_plain_network() {
    let cfg = testcfg::stress().with_per_thread(200);
    testcfg::with_seed_report(testcfg::seed(), |_| {
        let net = bitonic(8);
        let want: Vec<u64> = (0..cfg.total()).collect();

        let plain = Arc::new(NetworkCounter::new(&net));
        assert_eq!(hammer(&plain, cfg.threads, cfg.per_thread), want);
        let plain_sum: u64 = plain.output_counts().iter().sum();

        let combining = Arc::new(CombiningCounter::with_kind(
            &net,
            BalancerKind::WaitFree,
            tight_combining(),
        ));
        assert_eq!(
            hammer(&combining, cfg.threads, cfg.per_thread),
            want,
            "combining missed or duplicated a value"
        );
        assert_eq!(
            combining.output_counts().iter().sum::<u64>(),
            plain_sum,
            "combining tallies lost an operation"
        );

        let shards: Vec<Topology> = Topology::shards(4, 2).unwrap();
        let sharded = Arc::new(ShardedCounter::with_kind(
            &shards,
            BalancerKind::WaitFree,
            RoutePolicy::RoundRobin,
        ));
        assert_eq!(
            hammer(&sharded, cfg.threads, cfg.per_thread),
            want,
            "round-robin sharding missed or duplicated a value"
        );
        assert_eq!(
            sharded.output_counts().iter().sum::<u64>(),
            plain_sum,
            "sharded tallies lost an operation"
        );
    });
}

/// The audit harness over every frontend: the Definition 2.4 checker
/// must see exact counts (no dup, no gap); the measured ratio is
/// reported, never asserted.
#[test]
fn audit_traces_count_exactly_for_every_frontend() {
    testcfg::with_seed_report(testcfg::seed(), |_| {
        let cfg = StressConfig {
            threads: testcfg::stress().threads,
            ops_per_thread: 300,
            delayed_threads: 1,
            spin_per_node: 50,
        };
        let net = bitonic(16);

        let combining =
            CombiningCounter::with_kind(&net, BalancerKind::WaitFree, tight_combining());
        let a = run_stress(&combining, cfg);
        assert!(a.counts_exactly(), "combining counting violated");

        let shards = Topology::shards(4, 4).unwrap();
        let sharded =
            ShardedCounter::with_kind(&shards, BalancerKind::WaitFree, RoutePolicy::RoundRobin);
        let b = run_stress(&sharded, cfg);
        assert!(b.counts_exactly(), "sharded counting violated");

        println!(
            "bitonic[16] frontends: Def-2.4 nonlinearizable ratio \
             combining={:.4} sharded={:.4}",
            a.nonlinearizable_ratio(),
            b.nonlinearizable_ratio()
        );
    });
}

/// On traces small enough for the brute-force oracle, the oracle and
/// the Definition 2.4 sweep must agree for every frontend — `Some`
/// witness iff zero swept violations (exact-valued traces only, which
/// the previous test guarantees these are).
#[test]
fn exhaustive_oracle_agrees_with_the_sweep_on_tiny_traces() {
    testcfg::with_seed_report(testcfg::seed(), |_| {
        let cfg = StressConfig {
            threads: 4,
            ops_per_thread: linearizability::EXHAUSTIVE_MAX_OPS / 4,
            delayed_threads: 1,
            spin_per_node: 50,
        };
        let net = bitonic(4);

        let combining =
            CombiningCounter::with_kind(&net, BalancerKind::WaitFree, tight_combining());
        let shards = Topology::shards(2, 2).unwrap();
        let sharded =
            ShardedCounter::with_kind(&shards, BalancerKind::WaitFree, RoutePolicy::RoundRobin);

        let reports = [
            ("combining", run_stress(&combining, cfg)),
            ("sharded", run_stress(&sharded, cfg)),
        ];
        for (label, report) in reports {
            assert!(report.counts_exactly(), "{label} counting violated");
            assert!(report.operations.len() <= linearizability::EXHAUSTIVE_MAX_OPS);
            let witness = linearizability::check_exhaustive(&report.operations);
            let swept = linearizability::count_nonlinearizable(&report.operations);
            assert_eq!(
                witness.is_some(),
                swept == 0,
                "{label}: oracle disagrees with the Definition 2.4 sweep \
                 (witness={witness:?}, swept={swept})"
            );
            println!("{label}: {} ops, swept={swept}", report.operations.len());
        }
    });
}
