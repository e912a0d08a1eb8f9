//! Concurrent timestamp generation — the motivating application of
//! linearizable counting (the paper's introduction cites timestamp
//! generation, FIFO buffers, and priority queues).
//!
//! Draws timestamps from four different shared counters under a skewed
//! workload (half the threads artificially delayed inside the network),
//! audits every run with a global logical clock, and reports both
//! correctness properties:
//!
//! * **counting** — every value handed out exactly once (always holds);
//! * **linearizability** — real-time order respected (holds for the
//!   centralized counters; *practically* holds for the networks).
//!
//! Run with: `cargo run --release --example timestamping`

use counting_networks::concurrent::audit::{run_stress, StressConfig, StressCounter};
use counting_networks::concurrent::counter::{FetchAddCounter, LockCounter};
use counting_networks::concurrent::network::{BalancerKind, NetworkCounter};
use counting_networks::topology::constructions;

fn audit(name: &str, counter: &dyn StressCounter, delayed: usize, spin: u64) {
    let config = StressConfig {
        threads: 4,
        ops_per_thread: 2_000,
        delayed_threads: delayed,
        spin_per_node: spin,
    };
    let report = run_stress(counter, config);
    println!(
        "{name:24} counts exactly: {:5}   non-linearizable: {:4} / {} ({:.3}%)",
        report.counts_exactly(),
        report.nonlinearizable_count(),
        report.operations.len(),
        report.nonlinearizable_ratio() * 100.0,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("timestamp oracles under a skewed 4-thread load (2 delayed threads)\n");

    let fetch_add = FetchAddCounter::new();
    audit("atomic fetch_add", &fetch_add, 2, 2_000);

    let lock = LockCounter::new();
    audit("mutex counter", &lock, 2, 2_000);

    let net = constructions::bitonic(8)?;
    let bitonic = NetworkCounter::new(&net);
    audit("bitonic[8] network", &bitonic, 2, 2_000);

    let tree = NetworkCounter::with_kind(
        &constructions::counting_tree(8)?,
        BalancerKind::Diffracting { slots: 8, spin: 64 },
    );
    audit("diffracting tree[8]", &tree, 2, 2_000);

    println!(
        "\nThe centralized counters are linearizable by construction but serialize\n\
         every thread on one cache line. The counting networks distribute the\n\
         load; the paper's result is that their occasional non-linearizability\n\
         requires timing skew (c2/c1 > 2) that is rare in practice."
    );
    Ok(())
}
