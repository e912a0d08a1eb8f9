//! Criterion benchmark: the linearizability checker.
//!
//! The Definition 2.4 sweep against the quadratic reference, on traces
//! of increasing size — the design-choice ablation called out in
//! DESIGN.md. The random traces are sparse (`max end` ≈ 4n + 200, the
//! sorted table); `native_lanes` is the dense timeline a native run
//! produces (every tick of `0..2n` once), graded through the
//! tick-indexed table over its operations and through the lane sweep
//! over the lanes themselves, on 2 and on 64 client threads.

use cnet_timing::linearizability::LaneRecord;
use cnet_timing::{linearizability, Operation};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_trace(n: usize, seed: u64) -> Vec<Operation> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|token| {
            let start = rng.gen_range(0..n as u64 * 4);
            Operation {
                token,
                input: 0,
                start,
                end: start + rng.gen_range(1..200),
                counter: 0,
                value: rng.gen_range(0..n as u64),
            }
        })
        .collect()
}

/// A native-shaped run of `n` operations as its client threads leave
/// it: `lanes` clients on one logical clock that hands out every tick
/// of `0..2n` once. A client runs a burst of 1 to 64 operations and is
/// preempted inside the next one, so every operation that straddles a
/// switch overlaps the other clients' bursts; values are the start
/// order with neighbours swapped now and then, so some operations
/// violate.
fn native_lanes(n: usize, lanes: usize, seed: u64) -> Vec<Vec<LaneRecord>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<LaneRecord>> = vec![Vec::new(); lanes];
    let (mut tick, mut started) = (0u64, 0u64);
    let mut take = || {
        tick += 1;
        tick - 1
    };
    let mut lane = 0;
    while (started as usize) < n {
        let burst = rng.gen_range(1..=64u64).min(n as u64 - started);
        for _ in 0..burst {
            // the operation this client was preempted in ends first
            if let Some(open) = out[lane].last_mut().filter(|r| r.1 == u64::MAX) {
                open.1 = take();
            }
            let swap = rng.gen_range(0..8) == 0;
            let value = if swap { started ^ 4 } else { started };
            out[lane].push((take(), u64::MAX, value));
            started += 1;
        }
        lane = (lane + 1) % lanes;
    }
    let preempted = out.iter_mut().filter_map(|l| l.last_mut());
    for open in preempted.filter(|r| r.1 == u64::MAX) {
        open.1 = take();
    }
    out
}

/// The lanes as `stats_from_trace` lays them out: lane-major.
fn operations_of(lanes: &[Vec<LaneRecord>]) -> Vec<Operation> {
    let records = lanes.iter().flatten().enumerate();
    records
        .map(|(token, &(start, end, value))| Operation {
            token,
            input: 0,
            start,
            end,
            counter: 0,
            value,
        })
        .collect()
}

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearizability_checker");
    for n in [100usize, 1_000, 5_000] {
        let trace = random_trace(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sweep", n), &trace, |b, t| {
            b.iter(|| linearizability::count_nonlinearizable(std::hint::black_box(t)))
        });
        // the quadratic reference becomes unreasonable past ~5k ops
        if n <= 1_000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &trace, |b, t| {
                b.iter(|| linearizability::count_nonlinearizable_naive(std::hint::black_box(t)))
            });
        }
    }
    // one native run, graded both ways: the tick-indexed table over
    // its operations, and the lane sweep the engine's post-run uses
    let two = native_lanes(1_000_000, 2, 42);
    let trace = operations_of(&two);
    assert!(linearizability::is_dense_timeline(&trace));
    assert!(linearizability::count_nonlinearizable(&trace) > 0);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("sweep_dense", trace.len()),
        &trace,
        |b, t| b.iter(|| linearizability::count_nonlinearizable(std::hint::black_box(t))),
    );
    for lanes in [two, native_lanes(1_000_000, 64, 42)] {
        group.bench_with_input(
            BenchmarkId::new("lane_sweep", lanes.len()),
            &lanes,
            |b, lanes| {
                b.iter(|| {
                    let mut count = 0usize;
                    linearizability::lane_magnitudes(std::hint::black_box(lanes), |magnitude| {
                        count += usize::from(magnitude > 0);
                    })
                    .expect("sequential lanes");
                    count
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
