//! Criterion benchmark: the analysis tooling.
//!
//! Knowledge-set computation (Lemmas 3.1/3.2 machinery), the streamed
//! Definition 2.4 start witness, and the exhaustive interleaving
//! enumerator.

use cnet_timing::executor::TimedExecutor;
use cnet_timing::linearizability::StartWitness;
use cnet_timing::{interleave, knowledge, random, LinkTiming};
use cnet_topology::constructions;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_knowledge(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge_analysis");
    let net = constructions::bitonic(16).expect("valid");
    let timing = LinkTiming::new(5, 10).expect("valid");
    for tokens in [100usize, 400] {
        let schedule = random::uniform_schedule(&net, timing, tokens, 4, 3).expect("schedule");
        let exec = TimedExecutor::new(&net).run(&schedule).expect("execution");
        group.throughput(Throughput::Elements(tokens as u64));
        group.bench_with_input(BenchmarkId::new("compute", tokens), &exec, |b, exec| {
            b.iter(|| knowledge::KnowledgeAnalysis::compute(&net, std::hint::black_box(exec)))
        });
        group.bench_with_input(BenchmarkId::new("lemma_3_2", tokens), &exec, |b, exec| {
            b.iter(|| knowledge::verify_lemma_3_2(&net, std::hint::black_box(exec), timing.c1()))
        });
    }
    group.finish();
}

fn bench_online_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_checker");
    let net = constructions::bitonic(32).expect("valid");
    let timing = LinkTiming::new(5, 25).expect("valid");
    let schedule = random::uniform_schedule(&net, timing, 5_000, 3, 9).expect("schedule");
    let exec = TimedExecutor::new(&net).run(&schedule).expect("execution");
    // the trace's instants in time order, ends before starts at one
    // instant: `(tick, is_start, value)`
    let mut instants: Vec<(u64, bool, u64)> = exec
        .operations()
        .iter()
        .flat_map(|op| [(op.start, true, op.value), (op.end, false, op.value)])
        .collect();
    instants.sort_unstable();
    group.throughput(Throughput::Elements(exec.operations().len() as u64));
    group.bench_function("stream_5000", |b| {
        b.iter(|| {
            let mut finished = StartWitness::default();
            let mut violating = 0usize;
            for &(tick, is_start, value) in std::hint::black_box(&instants) {
                if is_start {
                    violating += usize::from(finished.witness(tick) > value);
                } else {
                    finished.record(tick, value);
                }
            }
            violating
        })
    });
    group.finish();
}

fn bench_interleave(c: &mut Criterion) {
    let mut group = c.benchmark_group("interleave_enumeration");
    group.sample_size(10);
    let tree = constructions::counting_tree(4).expect("valid");
    // 3 tokens x 3 moves: 1680 executions per iteration
    group.throughput(Throughput::Elements(1680));
    group.bench_function("tree4_three_tokens", |b| {
        b.iter(|| interleave::enumerate_interleavings(&tree, &[0, 0, 0], u64::MAX))
    });
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting_verification");
    group.sample_size(10);
    for w in [8usize, 16] {
        let net = constructions::bitonic(w).expect("valid");
        group.throughput(Throughput::Elements(1 << w));
        group.bench_with_input(BenchmarkId::new("zero_one_check", w), &net, |b, net| {
            b.iter(|| cnet_topology::verify::is_counting_network(net, 1 << 20))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_knowledge,
    bench_online_checker,
    bench_interleave,
    bench_verify
);
criterion_main!(benches);
