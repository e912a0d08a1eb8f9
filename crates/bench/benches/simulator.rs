//! Criterion benchmark: the discrete-event simulator.
//!
//! Measures simulated operations per second for the two Section 5
//! configurations, plus the ablation between lock-based and
//! prism-fronted balancers at equal workloads, plus the regimes of the
//! one event queue: a handful of pending events, hundreds of them,
//! `W = 100000` (wire arrivals spilling to and migrating back from the
//! far heap) and a diffracting tree, whose prism timeouts fill the
//! second constant-delay lane beside the toggles' (see `cnet-proteus`'s
//! `queue` module).

use cnet_proteus::{SimConfig, Simulator, WaitMode, Workload};
use cnet_topology::constructions;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const OPS: usize = 1_000;

fn workload(processors: usize) -> Workload {
    Workload {
        total_ops: OPS,
        wait_mode: WaitMode::Fixed,
        ..Workload::paper(processors, 50, 1_000)
    }
}

fn delayed_workload(processors: usize, wait_cycles: u64) -> Workload {
    Workload {
        wait_cycles,
        ..workload(processors)
    }
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("proteus_simulator");
    group.throughput(Throughput::Elements(OPS as u64));
    let bitonic = constructions::bitonic(32).expect("valid");
    let tree = constructions::counting_tree(32).expect("valid");
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("bitonic_queue_lock", n), &n, |b, &n| {
            let sim = Simulator::new(&bitonic, SimConfig::queue_lock(1));
            b.iter(|| sim.run(std::hint::black_box(&workload(n))))
        });
        group.bench_with_input(BenchmarkId::new("tree_diffracting", n), &n, |b, &n| {
            let sim = Simulator::new(&tree, SimConfig::diffracting(1));
            b.iter(|| sim.run(std::hint::black_box(&workload(n))))
        });
        // ablation: the same tree with prisms disabled (pure toggles)
        group.bench_with_input(BenchmarkId::new("tree_no_prism", n), &n, |b, &n| {
            let sim = Simulator::new(&tree, SimConfig::queue_lock(1));
            b.iter(|| sim.run(std::hint::black_box(&workload(n))))
        });
    }
    group.finish();

    // the event-queue regimes in isolation, one cell each
    let mut group = c.benchmark_group("proteus_event_queue");
    group.throughput(Throughput::Elements(OPS as u64));
    for (label, net, config, n, w) in [
        (
            "small_n",
            &bitonic,
            SimConfig::queue_lock(1),
            4usize,
            100u64,
        ),
        ("large_n", &bitonic, SimConfig::queue_lock(1), 256, 100),
        (
            "far_spill_high_w",
            &bitonic,
            SimConfig::queue_lock(1),
            256,
            100_000,
        ),
        ("tree_prisms", &tree, SimConfig::diffracting(1), 64, 100),
    ] {
        group.bench_function(BenchmarkId::new(label, format!("n{n}_w{w}")), |b| {
            let sim = Simulator::new(net, config);
            b.iter(|| sim.run(std::hint::black_box(&delayed_workload(n, w))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
