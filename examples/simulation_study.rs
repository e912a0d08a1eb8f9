//! A miniature rerun of the paper's Section 5 study on the simulated
//! multiprocessor: width-32 bitonic network and diffracting tree, with
//! a fraction of the processors delayed `W` cycles after every node.
//!
//! The full-size study (5000 ops per cell over the whole grid) is
//! regenerated by the `figure5`/`figure6`/`figure7` suites of
//! `cnet-bench`; this example runs a fast slice so it completes in
//! seconds.
//!
//! Run with: `cargo run --release --example simulation_study`

use counting_networks::engine::{WaitMode, Workload};
use counting_networks::proteus::{SimConfig, Simulator};
use counting_networks::topology::constructions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bitonic = constructions::bitonic(32)?;
    let tree = constructions::counting_tree(32)?;
    println!("Section 5 slice: n = 64 processors, F = 50% delayed, 2000 ops/cell\n");
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>10}",
        "network", "W", "avg c2/c1", "nonlin", "Tog"
    );
    for wait in [0u64, 100, 1_000, 10_000] {
        let workload = Workload {
            total_ops: 2_000,
            wait_mode: WaitMode::Fixed,
            ..Workload::paper(64, 50, wait)
        };
        let b = Simulator::new(&bitonic, SimConfig::queue_lock(7)).run(&workload);
        let t = Simulator::new(&tree, SimConfig::diffracting(7)).run(&workload);
        for (name, stats) in [("bitonic[32]", &b), ("diffracting[32]", &t)] {
            println!(
                "{:<18} {:>8} {:>12.2} {:>11.2}% {:>10.0}",
                name,
                wait,
                stats.average_ratio(wait),
                stats.nonlinearizable_ratio() * 100.0,
                stats.avg_toggle_wait(),
            );
        }
    }
    println!(
        "\nAs in the paper: while the measured average c2/c1 = (Tog + W)/Tog stays\n\
         at or below ~2, no violations appear; they emerge only as the injected\n\
         delays push the ratio far beyond the Corollary 3.9 threshold."
    );
    Ok(())
}
