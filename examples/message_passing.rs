//! The message-passing realization of a counting network.
//!
//! The paper's timing model "is general enough to capture both message
//! passing and shared memory implementations". Here every balancer and
//! counter is its own thread, tokens are messages on channels, and a
//! counting operation is a request/reply round trip — no shared memory
//! beyond the channels.
//!
//! The client side is the engine's job: the same `Workload` vocabulary
//! that drives the simulator drives this actor network through the
//! thread-per-client [`ShmBackend`] over [`CounterSpec::Mp`], so there
//! is no hand-rolled spawn/collect loop here.
//!
//! Run with: `cargo run --release --example message_passing`

use counting_networks::engine::{Backend, CounterSpec, MpConfig, ShmBackend, Workload};
use counting_networks::topology::constructions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = constructions::bitonic(8)?;
    println!(
        "running Bitonic[8] as {} balancer threads + 8 counter threads",
        net.node_count()
    );

    let backend = ShmBackend::new(&net, CounterSpec::Mp(MpConfig { hop_spin: 0 }), 1)?;
    let workload = Workload {
        total_ops: 2_000,
        ..Workload::paper(4, 0, 0)
    };
    let outcome = backend.run(&workload);

    let ops = outcome.stats.operations.len();
    println!(
        "{} clients completed {ops} operations in {:.2} ms \
         ({:.1} µs/op — each op is {} channel hops)",
        workload.processors,
        outcome.wall_ms,
        outcome.wall_ms * 1e3 / ops as f64,
        net.depth() + 1
    );
    let mut per_client = vec![0usize; workload.processors];
    for &c in &outcome.stats.completed_by {
        per_client[c as usize] += 1;
    }
    println!("ops per client: {per_client:?}");
    println!(
        "history is a permutation of 0..{ops}: {}  final counts have the step property: {}",
        outcome.counts_exactly(),
        outcome.has_step_property()
    );
    println!(
        "\nThe same Topology value drives this actor network, the shared-memory\n\
         NetworkCounter, the discrete-event simulator, and the timed executor —\n\
         and the same Workload drives all of them through the engine\n\
         (see `cargo run --release --example engine_backends`)."
    );
    Ok(())
}
