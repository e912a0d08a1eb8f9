//! Probe-layer integration: built with `--features obs`, the
//! concurrent counters record real per-balancer contention metrics.
//!
//! These tests run real threads, so they assert *accounting*
//! invariants (every traversal shows up exactly once, sums match
//! across views) rather than timing values.

use std::sync::Arc;

use cnet_concurrent::counter::Counter;
use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_topology::constructions;

/// One balancer visit per layer per operation: with `ops` completed
/// operations a width-`w` bitonic network must account for exactly
/// `ops * depth` visits across its probes.
fn assert_network_accounting(counter: &NetworkCounter, ops: u64) {
    let snap = counter
        .metrics_snapshot(1000)
        .expect("obs feature is on in this test target");
    assert_eq!(snap.network.operations, ops);
    let visits: u64 = snap.balancers.iter().map(|b| b.visits).sum();
    let expected = ops * counter.depth() as u64;
    assert_eq!(visits, expected, "every layer traversal is recorded");
    let toggles: u64 = snap.balancers.iter().map(|b| b.toggles).sum();
    let diffracted: u64 = snap.balancers.iter().map(|b| b.diffracted).sum();
    assert_eq!(
        toggles + diffracted,
        visits,
        "visits split into the two exits"
    );
    assert_eq!(snap.network.wire_latency_hist.count(), expected);
    assert_eq!(snap.network.op_latency_hist.count(), ops);
}

#[test]
fn wait_free_network_records_every_traversal() {
    let net = constructions::bitonic(4).unwrap();
    let c = NetworkCounter::new(&net);
    for expect in 0..200 {
        assert_eq!(c.next(), expect);
    }
    assert_network_accounting(&c, 200);
}

#[test]
fn locked_network_records_lock_wait_and_hold() {
    let net = constructions::bitonic(4).unwrap();
    let c = Arc::new(NetworkCounter::with_kind(&net, BalancerKind::Locked));
    let threads = 4;
    let per_thread = 500u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    c.next_on(t % c.input_width());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic");
    }
    let ops = threads as u64 * per_thread;
    assert_network_accounting(&c, ops);
    let snap = c.metrics_snapshot(1000).unwrap();
    // every traversal acquires the lock, so hold time accumulates on
    // every balancer that saw traffic
    for b in snap.balancers.iter().filter(|b| b.visits > 0) {
        assert_eq!(b.toggles, b.visits, "locked balancers never diffract");
        assert!(
            b.lock_hold_total > 0,
            "node {} recorded no hold time",
            b.node
        );
    }
    // the Section 5 live estimate is well-formed under contention
    assert!(snap.network.average_ratio >= 1.0);
    assert!(snap.c2_over_c1() >= 1.0);
}

#[test]
fn diffracting_network_attributes_prism_exits() {
    let net = constructions::bitonic(8).unwrap();
    let kind = BalancerKind::Diffracting {
        slots: 2,
        spin: 500,
    };
    let c = Arc::new(NetworkCounter::with_kind(&net, kind));
    let threads = 8;
    let per_thread = 400u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    c.next_on(t % c.input_width());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic");
    }
    assert_network_accounting(&c, threads as u64 * per_thread);
}

/// The diffracting tree is a compiled plan like any other, so its
/// probes are keyed by arena slot: slot 0 is the root (every operation
/// visits it), and each layer's slots split the traffic evenly.
#[test]
fn diffracting_tree_probes_are_keyed_by_arena_slot() {
    let net = constructions::counting_tree(8).unwrap();
    let kind = BalancerKind::Diffracting { slots: 8, spin: 64 };
    let tree = NetworkCounter::with_kind(&net, kind);
    let ops = 320u64;
    for expect in 0..ops {
        assert_eq!(tree.next(), expect);
    }
    assert_network_accounting(&tree, ops);
    let snap = tree.metrics_snapshot(0).expect("obs feature is on");
    let visits: Vec<u64> = snap.balancers.iter().map(|b| b.visits).collect();
    assert_eq!(
        visits,
        [ops, ops / 2, ops / 2, ops / 4, ops / 4, ops / 4, ops / 4],
        "layer order: root, then its two children, then the four leaves' parents"
    );
}

#[test]
fn snapshot_round_trips_through_serde() {
    let net = constructions::bitonic(4).unwrap();
    let c = NetworkCounter::new(&net);
    for _ in 0..50 {
        c.next();
    }
    let snap = c.metrics_snapshot(100).unwrap();
    let text = serde::json::to_string_pretty(&serde::Serialize::to_value(&snap));
    let v = serde::json::from_str(&text).unwrap();
    let back = <cnet_obs::MetricsSnapshot as serde::Deserialize>::from_value(&v).unwrap();
    assert_eq!(back, snap);
}
