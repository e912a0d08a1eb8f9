//! Differential tests for the live metric recorder (`--features obs`):
//! the probes must agree with the run-wide counters and with
//! `cnet-timing`'s offline computation on the very same trace.

use cnet_engine::Workload;
use cnet_proteus::{SimConfig, Simulator};
use cnet_timing::linearizability;
use cnet_topology::constructions;

fn workload(processors: usize, wait_cycles: u64, ops: usize) -> Workload {
    Workload {
        total_ops: ops,
        ..Workload::paper(processors, 25, wait_cycles)
    }
}

#[test]
fn metrics_block_is_recorded_and_versioned() {
    let net = constructions::bitonic(8).unwrap();
    let stats = Simulator::new(&net, SimConfig::queue_lock(42)).run(&workload(16, 1000, 500));
    let m = stats.metrics.as_ref().expect("obs feature records metrics");
    assert_eq!(m.schema_version, cnet_obs::METRICS_SCHEMA_VERSION);
    assert_eq!(m.wait_cycles, 1000);
    assert_eq!(m.balancers.len(), net.node_count());
    assert_eq!(m.network.operations, 500);
    assert!(m.network.queue_depth_hist.count() > 0);
}

#[test]
fn per_balancer_sums_equal_the_run_totals() {
    let net = constructions::bitonic(8).unwrap();
    let stats = Simulator::new(&net, SimConfig::queue_lock(7)).run(&workload(32, 500, 800));
    let m = stats.metrics.as_ref().unwrap();
    let toggles: u64 = m.balancers.iter().map(|b| b.toggles).sum();
    let toggle_wait: u64 = m.balancers.iter().map(|b| b.toggle_wait_total).sum();
    let visits: u64 = m.balancers.iter().map(|b| b.visits).sum();
    let node_wait: u64 = m.balancers.iter().map(|b| b.wait_hist.sum()).sum();
    assert_eq!(toggles, stats.sim.unwrap().toggle_count);
    assert_eq!(toggle_wait, stats.sim.unwrap().toggle_wait_total);
    assert_eq!(visits, stats.node_visits);
    assert_eq!(node_wait, stats.node_wait_total);
}

#[test]
fn diffracting_runs_attribute_pairs_per_node() {
    let net = constructions::counting_tree(16).unwrap();
    let stats = Simulator::new(&net, SimConfig::diffracting(11)).run(&workload(64, 0, 1000));
    let m = stats.metrics.as_ref().unwrap();
    let diffracted: u64 = m.balancers.iter().map(|b| b.diffracted).sum();
    assert_eq!(diffracted, 2 * stats.sim.unwrap().diffraction_pairs);
    let visits: u64 = m.balancers.iter().map(|b| b.visits).sum();
    assert_eq!(visits, stats.node_visits);
}

#[test]
fn live_ratio_matches_the_offline_sweep_within_tolerance() {
    // the acceptance-criteria configuration: width-32 bitonic,
    // deterministic seed, n = 64, W = 1000, 5000 ops
    let net = constructions::bitonic(32).unwrap();
    let wl = workload(64, 1000, 5000);
    let stats = Simulator::new(&net, SimConfig::queue_lock(0x0B5E)).run(&wl);
    let m = stats.metrics.as_ref().unwrap();

    let offline = stats.average_ratio(wl.wait_cycles);
    let live = m.network.average_ratio;
    let rel = (live - offline).abs() / offline;
    assert!(
        rel < 0.05,
        "live ratio {live} vs offline {offline} (rel err {rel})"
    );
    // the probes aggregate the same per-event quantities, so the two
    // should in fact agree exactly, not just within 5%
    assert!(
        (live - offline).abs() < 1e-9,
        "live {live} offline {offline}"
    );
    assert!((m.network.avg_toggle_wait - stats.avg_toggle_wait()).abs() < 1e-9);
}

#[test]
fn violation_telemetry_matches_the_streamed_count_and_the_batch_scan() {
    // high W on a tree: the regime where the paper observed violations
    let net = constructions::counting_tree(16).unwrap();
    let wl = Workload {
        total_ops: 2000,
        ..Workload::paper(64, 50, 10_000)
    };
    let stats = Simulator::new(&net, SimConfig::diffracting(17)).run(&wl);
    let m = stats.metrics.as_ref().unwrap();
    assert!(stats.nonlinearizable_count() > 0, "regime sanity");
    assert_eq!(
        m.network.nonlinearizable,
        stats.nonlinearizable_count() as u64
    );

    // magnitudes agree with the batch scan over the same trace
    let offline: Vec<u64> = linearizability::magnitudes(&stats.operations).collect();
    assert_eq!(
        m.network.violation_magnitude_total,
        offline.iter().sum::<u64>()
    );
    assert_eq!(
        m.network.violation_magnitude_max,
        offline.iter().copied().max().unwrap_or(0)
    );
    assert_eq!(
        m.network.violation_magnitude_hist.count(),
        m.network.nonlinearizable
    );
    assert!(m.network.violation_magnitude_max > 0);
}

#[test]
fn c1_c2_estimates_bound_the_wire_latencies() {
    let net = constructions::bitonic(8).unwrap();
    let config = SimConfig::queue_lock(3);
    let stats = Simulator::new(&net, config).run(&workload(16, 200, 500));
    let m = stats.metrics.as_ref().unwrap();
    // every hop costs at least the link cost; delayed hops cost more
    assert!(m.network.c1_estimate >= config.fabric.link.delay as f64);
    assert!(m.network.c2_estimate >= m.network.c1_estimate + 200.0 - 1.0);
    assert_eq!(
        m.network.wire_latency_hist.min() as f64,
        m.network.c1_estimate
    );
    assert_eq!(
        m.network.wire_latency_hist.max() as f64,
        m.network.c2_estimate
    );
}

#[test]
fn recording_does_not_change_the_simulation() {
    // determinism guard: the metrics are derived passively, so the
    // trace under `obs` must equal the committed golden expectations
    // produced without it — spot-checked here by re-running twice and
    // by the unchanged RunStats counters above
    let net = constructions::bitonic(8).unwrap();
    let wl = workload(16, 1000, 400);
    let a = Simulator::new(&net, SimConfig::queue_lock(5)).run(&wl);
    let b = Simulator::new(&net, SimConfig::queue_lock(5)).run(&wl);
    assert_eq!(a.operations, b.operations);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn metrics_round_trip_inside_the_stats_summary_pipeline() {
    use serde::{Deserialize as _, Serialize as _};
    let net = constructions::bitonic(4).unwrap();
    let stats = Simulator::new(&net, SimConfig::queue_lock(9)).run(&workload(8, 100, 200));
    let m = stats.metrics.clone().unwrap();
    let text = serde::json::to_string_pretty(&m.to_value());
    let back =
        cnet_obs::MetricsSnapshot::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
    assert_eq!(back, m);
}

#[test]
fn degenerate_fabric_records_no_fabric_block() {
    let net = constructions::bitonic(8).unwrap();
    let stats = Simulator::new(&net, SimConfig::queue_lock(42)).run(&workload(16, 0, 300));
    assert!(stats.metrics.as_ref().unwrap().fabric.is_none());
}

#[test]
fn fabric_block_localizes_queueing_and_matches_run_stats() {
    use cnet_proteus::{Fabric, LinkSpec, RetryPolicy, SwitchSpec};
    let net = constructions::bitonic(8).unwrap();
    let config = SimConfig {
        fabric: Fabric {
            link: LinkSpec {
                delay: 20,
                jitter: 0,
                service: 10,
                capacity: 2,
                loss_per_million: 0,
            },
            switch: SwitchSpec {
                service: 5,
                capacity: 4,
            },
            backpressure: false,
            retry: RetryPolicy::default(),
        },
        ..SimConfig::queue_lock(0x0B5)
    };
    let stats = Simulator::new(&net, config).run(&workload(32, 0, 400));
    let m = stats.metrics.as_ref().unwrap();
    let fabric = m.fabric.as_ref().expect("non-degenerate fabric records");
    assert!(!fabric.links.is_empty());
    // per-queue serviced tokens sum to total successful stage passes;
    // every token crosses [switch, dest] per hop, so at least 2 per op
    let serviced: u64 = fabric.links.iter().map(|l| l.serviced).sum();
    assert!(serviced >= 2 * 400, "serviced {serviced}");
    // per-queue refusals sum to the run-wide drop counter
    let drops: u64 = fabric.links.iter().map(|l| l.drops).sum();
    let nacks: u64 = fabric.links.iter().map(|l| l.nacks).sum();
    assert_eq!(drops, stats.sim.unwrap().fabric.full_drops);
    assert_eq!(nacks, stats.sim.unwrap().fabric.nack_retries);
    // the peak depth the block reports is the run-wide peak
    let peak = fabric.links.iter().map(|l| l.max_depth).max().unwrap();
    assert_eq!(peak, stats.sim.unwrap().fabric.max_queue_depth);
    // wire latencies now include queueing: c2 estimate must exceed the
    // bare propagation delay
    assert!(m.network.c2_estimate > 20.0);
}
