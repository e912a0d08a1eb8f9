//! Criterion benchmark: the data structures of `cnet-structures`.
//!
//! Queue throughput with fetch-add vs counting-network tickets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cnet_concurrent::counter::FetchAddCounter;
use cnet_structures::queue::NetQueue;
use cnet_topology::constructions;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const ITEMS: usize = 4_000;

/// One producer and one consumer move `ITEMS` items through the queue.
fn run_queue<E, D>(queue: Arc<NetQueue<u64, E, D>>, iters: u64) -> Duration
where
    E: cnet_concurrent::counter::Counter + 'static,
    D: cnet_concurrent::counter::Counter + 'static,
{
    let start = Instant::now();
    for _ in 0..iters {
        let q = Arc::clone(&queue);
        let producer = std::thread::spawn(move || {
            for i in 0..ITEMS {
                q.enqueue(i as u64);
            }
        });
        let q = Arc::clone(&queue);
        let consumer = std::thread::spawn(move || {
            for _ in 0..ITEMS {
                std::hint::black_box(q.dequeue());
            }
        });
        producer.join().expect("producer");
        consumer.join().expect("consumer");
    }
    start.elapsed()
}

fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_queue");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ITEMS as u64));
    group.bench_function("fetch_add_tickets", |b| {
        b.iter_custom(|iters| {
            let q = Arc::new(NetQueue::with_counters(
                64,
                FetchAddCounter::new(),
                FetchAddCounter::new(),
            ));
            run_queue(q, iters)
        })
    });
    group.bench_function("bitonic8_tickets", |b| {
        b.iter_custom(|iters| {
            let net = constructions::bitonic(8).expect("valid width");
            let q = Arc::new(NetQueue::over_network(64, &net));
            run_queue(q, iters)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queue);
criterion_main!(benches);
