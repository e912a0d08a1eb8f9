//! Criterion benchmark: shared-counter throughput.
//!
//! Compares the centralized baselines (fetch-and-add, mutex) against
//! the counting-network counters (bitonic, periodic, diffracting tree)
//! at several thread counts. This is the classic counting-network
//! claim: the network counters trade single-thread latency for reduced
//! contention at scale.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cnet_concurrent::counter::{Counter, FetchAddCounter, LockCounter};
use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_topology::constructions;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const OPS_PER_THREAD: u64 = 2_000;

/// Runs `iters` batches of `threads x OPS_PER_THREAD` operations and
/// returns the elapsed wall time.
fn run_batch(counter: Arc<dyn Counter>, threads: usize, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    std::hint::black_box(c.next());
                }
            }));
        }
        for h in handles {
            h.join().expect("bench thread");
        }
    }
    start.elapsed()
}

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_throughput");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.throughput(Throughput::Elements(threads as u64 * OPS_PER_THREAD));

        group.bench_with_input(BenchmarkId::new("fetch_add", threads), &threads, |b, &t| {
            b.iter_custom(|iters| run_batch(Arc::new(FetchAddCounter::new()), t, iters))
        });
        group.bench_with_input(BenchmarkId::new("mutex", threads), &threads, |b, &t| {
            b.iter_custom(|iters| run_batch(Arc::new(LockCounter::new()), t, iters))
        });
        group.bench_with_input(BenchmarkId::new("bitonic8", threads), &threads, |b, &t| {
            b.iter_custom(|iters| {
                let net = constructions::bitonic(8).expect("valid width");
                run_batch(Arc::new(NetworkCounter::new(&net)), t, iters)
            })
        });
        group.bench_with_input(BenchmarkId::new("periodic8", threads), &threads, |b, &t| {
            b.iter_custom(|iters| {
                let net = constructions::periodic(8).expect("valid width");
                run_batch(Arc::new(NetworkCounter::new(&net)), t, iters)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("diffracting_tree8", threads),
            &threads,
            |b, &t| {
                b.iter_custom(|iters| {
                    let net = constructions::counting_tree(8).expect("valid width");
                    let kind = BalancerKind::Diffracting { slots: 8, spin: 64 };
                    run_batch(Arc::new(NetworkCounter::with_kind(&net, kind)), t, iters)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_counters);
criterion_main!(benches);
