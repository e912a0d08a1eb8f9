//! The whole pipeline in one test, as living documentation: author a
//! network, prove it counts, run it four different ways (sequential,
//! timed, simulated, threaded), audit each, and render the result.

use counting_networks::concurrent::network::NetworkCounter;
use counting_networks::engine::run_counter;
use counting_networks::engine::{WaitMode, Workload};
use counting_networks::proteus::{SimConfig, Simulator};
use counting_networks::timing::executor::TimedExecutor;
use counting_networks::timing::{io as trace_io, random, render, LinkTiming};
use counting_networks::topology::router::SequentialRouter;
use counting_networks::topology::{constructions, io as topo_io, verify};

#[test]
fn end_to_end_pipeline() {
    // 1. Build and serialize a network; reload it.
    let net = constructions::bitonic(8).unwrap();
    let net = topo_io::from_text(&topo_io::to_text(&net)).unwrap();

    // 2. Prove it is a counting network, exactly.
    assert!(verify::is_counting_network(&net, 1 << 20)
        .unwrap()
        .is_counting());

    // 3. Sequential semantics: values 0.. in order.
    let mut router = SequentialRouter::new(&net);
    for expect in 0..24u64 {
        assert_eq!(router.route((expect % 8) as usize).unwrap().value, expect);
    }

    // 4. Timed execution in the guaranteed regime: linearizable.
    let timing = LinkTiming::new(10, 20).unwrap();
    assert!(timing.guarantees_linearizability());
    let schedule = random::uniform_schedule(&net, timing, 200, 5, 77).unwrap();
    let exec = TimedExecutor::new(&net).run(&schedule).unwrap();
    assert_eq!(exec.nonlinearizable_count(), 0);

    // 5. The trace round-trips through CSV and renders.
    let csv = trace_io::operations_to_csv(exec.operations());
    let back = trace_io::operations_from_csv(&csv).unwrap();
    assert_eq!(back.len(), 200);
    let svg = render::svg_timeline(&exec);
    assert!(svg.contains("200 ops, 0 violating"));

    // 6. Simulated multiprocessor run: counts exactly, stats coherent.
    let stats = Simulator::new(&net, SimConfig::queue_lock(3)).run(&Workload {
        total_ops: 400,
        wait_mode: WaitMode::Fixed,
        ..Workload::paper(16, 25, 500)
    });
    let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
    values.sort_unstable();
    assert_eq!(values, (0..400).collect::<Vec<u64>>());
    assert!(stats.program_order_violations() <= stats.nonlinearizable_count());

    // 7. Real threads: the same topology as a native shared counter,
    //    one of four clients spinning 100 iterations per node.
    let counter = NetworkCounter::new(&net);
    let outcome = run_counter(
        &counter,
        &Workload {
            total_ops: 1_000,
            ..Workload::paper(4, 25, 100)
        }
        .check()
        .expect("a well-formed workload"),
        7,
    );
    assert!(outcome.counts_exactly());
}
