//! Concurrent timestamp generation — the motivating application of
//! linearizable counting (the paper's introduction cites timestamp
//! generation, FIFO buffers, and priority queues).
//!
//! Draws timestamps from four different shared counters under a skewed
//! workload (half the threads artificially delayed inside the network),
//! brackets every operation with a global logical clock (the engine's
//! client threads), and reports both correctness properties:
//!
//! * **counting** — every value handed out exactly once (always holds);
//! * **linearizability** — real-time order respected (holds for the
//!   centralized counters; *practically* holds for the networks).
//!
//! Run with: `cargo run --release --example timestamping`

use counting_networks::concurrent::counter::{FetchAddCounter, LockCounter, StressCounter};
use counting_networks::concurrent::network::{BalancerKind, NetworkCounter};
use counting_networks::engine::{run_counter, Workload};
use counting_networks::topology::constructions;

fn audit(name: &str, counter: &impl StressCounter) {
    // 4 threads × 2 000 operations; threads 0 and 1 spin 2 000
    // iterations after each balancer
    let workload = Workload {
        total_ops: 8_000,
        ..Workload::paper(4, 50, 2_000)
    }
    .check()
    .expect("a well-formed workload");
    let outcome = run_counter(counter, &workload, 1);
    println!(
        "{name:24} counts exactly: {:5}   non-linearizable: {:4} / {} ({:.3}%)",
        outcome.counts_exactly(),
        outcome.stats.nonlinearizable_count(),
        outcome.stats.operations.len(),
        outcome.stats.nonlinearizable_ratio() * 100.0,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("timestamp oracles under a skewed 4-thread load (2 delayed threads)\n");

    audit("atomic fetch_add", &FetchAddCounter::new());
    audit("mutex counter", &LockCounter::new());

    let net = constructions::bitonic(8)?;
    audit("bitonic[8] network", &NetworkCounter::new(&net));

    let tree = NetworkCounter::with_kind(
        &constructions::counting_tree(8)?,
        BalancerKind::Diffracting { slots: 8, spin: 64 },
    );
    audit("diffracting tree[8]", &tree);

    println!(
        "\nThe centralized counters are linearizable by construction but serialize\n\
         every thread on one cache line. The counting networks distribute the\n\
         load; the paper's result is that their occasional non-linearizability\n\
         requires timing skew (c2/c1 > 2) that is rare in practice."
    );
    Ok(())
}
