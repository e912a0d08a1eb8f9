//! Criterion benchmark: the timed executor, the sequential router, and
//! building the networks they run on.
//!
//! Measures tokens per second pushed through `Bitonic[32]` and the
//! width-32 counting tree, for both the untimed sequential router and
//! the event-ordered timed executor, and the time to construct (and to
//! clone) the bitonic, periodic and tree networks at widths 16–64.

use cnet_timing::executor::TimedExecutor;
use cnet_timing::{random, LinkTiming};
use cnet_topology::{constructions, router::SequentialRouter, Topology, TopologyError};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TOKENS: usize = 2_000;

fn bench_sequential_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_router");
    group.throughput(Throughput::Elements(TOKENS as u64));
    for (name, net) in [
        ("bitonic32", constructions::bitonic(32).expect("valid")),
        ("tree32", constructions::counting_tree(32).expect("valid")),
        ("periodic16", constructions::periodic(16).expect("valid")),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &net, |b, net| {
            b.iter(|| {
                let mut r = SequentialRouter::new(net);
                r.route_round_robin(TOKENS).expect("routes")
            })
        });
    }
    group.finish();
}

fn bench_timed_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("timed_executor");
    group.throughput(Throughput::Elements(TOKENS as u64));
    let timing = LinkTiming::new(10, 20).expect("valid timing");
    for (name, net) in [
        ("bitonic32", constructions::bitonic(32).expect("valid")),
        ("tree32", constructions::counting_tree(32).expect("valid")),
    ] {
        let schedule = random::uniform_schedule(&net, timing, TOKENS, 5, 7).expect("schedule");
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(net, schedule),
            |b, (net, schedule)| {
                b.iter(|| TimedExecutor::new(net).run(std::hint::black_box(schedule)))
            },
        );
    }
    group.finish();
}

fn bench_topology_build(c: &mut Criterion) {
    type Construction = fn(usize) -> Result<Topology, TopologyError>;
    let mut group = c.benchmark_group("topology_build");
    group.sample_size(50);
    for width in [16usize, 32, 64] {
        for (name, build) in [
            ("bitonic", constructions::bitonic as Construction),
            ("periodic", constructions::periodic),
            ("tree", constructions::counting_tree),
        ] {
            group.bench_function(BenchmarkId::new(name, width), |b| {
                b.iter(|| build(width).expect("valid width"))
            });
        }
        let net = constructions::bitonic(width).expect("valid width");
        group.bench_function(BenchmarkId::new("bitonic_clone", width), |b| {
            b.iter(|| net.clone())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_router,
    bench_timed_executor,
    bench_topology_build
);
criterion_main!(benches);
