//! Criterion benchmark: the linearizability checker.
//!
//! The Definition 2.4 sweep against the quadratic reference, on traces
//! of increasing size — the design-choice ablation called out in
//! DESIGN.md. The random traces are sparse (`max end` ≈ 4n + 200, the
//! sorted table); `native_trace` is the dense timeline a native run
//! produces (every tick of `0..2n` once), graded through the
//! tick-indexed table over its operations and through the lane sweep
//! over each client's runs of the buffer, on 2 and on 64 client
//! threads.

use std::ops::Range;

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

/// A native-shaped run of `n` operations as its client threads write
/// it: `lanes` clients on one logical clock that hands out every tick
/// of `0..2n` once, claiming chunks of 64 slots of one buffer in turn.
/// A client runs a burst of 1 to 64 operations (fewer once its chunk
/// and the buffer are spent) and is preempted inside the next one, so
/// every operation that straddles a switch overlaps
/// the other clients' bursts; values are the start order with
/// neighbours swapped now and then, so some operations violate.
/// Returns the buffer and each client's runs of it, in claim order.
fn native_trace(n: usize, lanes: usize, seed: u64) -> (Vec<Operation>, Vec<Vec<Range<usize>>>) {
    const CHUNK: usize = 64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = vec![Operation::default(); n];
    let mut runs: Vec<Vec<Range<usize>>> = vec![Vec::new(); lanes];
    // per client: its next slot, the end of its claimed chunk, and the
    // slot of the operation it was preempted in
    let mut next = vec![(0, 0, None::<usize>); lanes];
    let mut claimed = 0;
    let (mut tick, mut started) = (0u64, 0u64);
    let mut take = || {
        tick += 1;
        tick - 1
    };
    let mut lane = 0;
    while (started as usize) < n {
        for _ in 0..rng.gen_range(1..=64) {
            let (slot, chunk_end, open) = &mut next[lane];
            if *slot == *chunk_end && claimed == n {
                // nothing left to claim: the others finish their chunks
                break;
            }
            // the operation this client was preempted in ends first
            if let Some(i) = open.take() {
                ops[i].end = take();
            }
            if *slot == *chunk_end {
                *slot = claimed;
                *chunk_end = (claimed + CHUNK).min(n);
                runs[lane].push(claimed..*chunk_end);
                claimed = *chunk_end;
            }
            let swap = rng.gen_range(0..8) == 0;
            let value = if swap { started ^ 4 } else { started };
            ops[*slot] = Operation {
                token: *slot,
                start: take(),
                end: u64::MAX,
                value,
                ..Operation::default()
            };
            *open = Some(*slot);
            *slot += 1;
            started += 1;
        }
        lane = (lane + 1) % lanes;
    }
    for open in next.iter().filter_map(|&(_, _, open)| open) {
        ops[open].end = take();
    }
    (ops, runs)
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
    // over each client's runs of the same buffer
    let (trace, two) = native_trace(1_000_000, 2, 42);
    assert!(linearizability::is_dense_timeline(&trace));
    assert!(linearizability::count_nonlinearizable(&trace) > 0);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("sweep_dense", trace.len()),
        &trace,
        |b, t| b.iter(|| linearizability::count_nonlinearizable(std::hint::black_box(t))),
    );
    for (trace, runs) in [(trace, two), native_trace(1_000_000, 64, 42)] {
        let lanes: Vec<Vec<&[Operation]>> = runs
            .iter()
            .map(|lane| lane.iter().map(|run| &trace[run.clone()]).collect())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("lane_sweep", lanes.len()),
            &lanes,
            |b, lanes| {
                b.iter(|| {
                    let mut count = 0usize;
                    linearizability::lane_magnitudes(
                        std::hint::black_box(lanes),
                        |_, magnitude| {
                            count += usize::from(magnitude > 0);
                        },
                    )
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
