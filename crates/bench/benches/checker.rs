//! Criterion benchmark: the linearizability checker.
//!
//! The Definition 2.4 sweep against the quadratic reference, on traces
//! of increasing size — the design-choice ablation called out in
//! DESIGN.md. The random traces are sparse (`max end` ≈ 4n + 200, the
//! sorted table); `native_trace` is the dense timeline a native run
//! produces (every tick of `0..2n` once, the tick-indexed table).

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

/// A native-shaped trace: two clients alternating on one logical
/// clock, so no tick of `0..=2n` is handed out twice and operations
/// overlap their neighbour; values are the counting order with
/// neighbours swapped now and then, so some operations violate.
fn native_trace(n: usize, seed: u64) -> Vec<Operation> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|token| {
            let tick = 2 * token as u64;
            let swap = rng.gen_range(0..8) == 0;
            Operation {
                token,
                input: token % 2,
                start: tick.saturating_sub(1),
                end: tick + 2,
                counter: 0,
                value: if swap { token as u64 ^ 4 } else { token as u64 },
            }
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
    let trace = native_trace(1_000_000, 42);
    assert!(linearizability::is_dense_timeline(&trace));
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("sweep_dense", trace.len()),
        &trace,
        |b, t| b.iter(|| linearizability::count_nonlinearizable(std::hint::black_box(t))),
    );
    group.finish();
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
