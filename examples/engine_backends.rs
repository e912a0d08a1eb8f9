//! One workload, three execution substrates.
//!
//! The engine's `Backend` trait runs the *same* seeded workload on the
//! discrete-event simulator (`sim`), one OS thread per client over the
//! native shared-memory counter (`shm`), and cooperative clients on a
//! small worker pool over the same counter (`async`) — three flavors of
//! the `BackendSpec` registry, parsed from the same strings `cnet run
//! --backend` takes — returning the same `RunOutcome` shape from each.
//! The semantic invariants — every history a permutation of `0..n`,
//! final counter totals with the step property — hold on all three;
//! timing (and therefore linearizability violations) is each
//! substrate's own.
//!
//! Run with: `cargo run --release --example engine_backends`

use counting_networks::engine::{ArrivalProcess, Backend, BackendSpec, Workload};
use counting_networks::topology::constructions;

fn show(title: &str, workload: &Workload, backends: &[Box<dyn Backend + '_>]) {
    println!("{title}");
    println!(
        "  {:<5} {:>6} {:>10} {:>9} {:>8} {:>6}",
        "", "ops", "wall ms", "nonlin %", "counts", "step"
    );
    for backend in backends {
        let outcome = backend.run(workload);
        println!(
            "  {:<5} {:>6} {:>10.2} {:>8.2}% {:>8} {:>6}",
            outcome.backend,
            outcome.stats.operations.len(),
            outcome.wall_ms,
            outcome.stats.nonlinearizable_ratio() * 100.0,
            if outcome.counts_exactly() {
                "ok"
            } else {
                "FAIL"
            },
            if outcome.has_step_property() {
                "ok"
            } else {
                "FAIL"
            },
        );
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = constructions::bitonic(8)?;
    let seed = 42;
    let mut backends = Vec::new();
    for flavor in ["sim", "shm", "async"] {
        backends.push(flavor.parse::<BackendSpec>()?.build(&net, seed)?);
    }

    show(
        "closed loop: 8 clients, each fires its next op on completion",
        &Workload {
            total_ops: 2_000,
            ..Workload::paper(8, 0, 0)
        },
        &backends,
    );
    show(
        "delayed fraction: half the clients spin W=1000 per node (the paper's stress)",
        &Workload {
            total_ops: 2_000,
            ..Workload::paper(8, 50, 1000)
        },
        &backends,
    );
    show(
        "open loop: tokens arrive on a seeded schedule, mean gap 200",
        &Workload {
            total_ops: 1_000,
            arrival: ArrivalProcess::Open { mean_gap: 200 },
            ..Workload::paper(8, 0, 0)
        },
        &backends,
    );
    show(
        "bursty: groups of 64 tokens released together",
        &Workload {
            total_ops: 1_000,
            arrival: ArrivalProcess::Bursty {
                burst: 64,
                gap: 20_000,
            },
            ..Workload::paper(8, 0, 0)
        },
        &backends,
    );

    println!(
        "sim wall-clock includes building + running the discrete-event model;\n\
         its *timestamps* are simulated cycles, while shm/async timestamps are\n\
         logical-clock ticks — shapes are comparable, units are not."
    );
    Ok(())
}
