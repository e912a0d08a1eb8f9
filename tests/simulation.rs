//! Cross-crate checks of the Section 5 simulator against the model,
//! the checker, and the paper's qualitative claims.

use counting_networks::engine::{WaitMode, Workload};
use counting_networks::proteus::{PrismConfig, SimConfig, Simulator};
use counting_networks::timing::linearizability;
use counting_networks::topology::{constructions, OutputCounts};

fn workload(n: usize, f: u32, w: u64, ops: usize) -> Workload {
    Workload {
        total_ops: ops,
        wait_mode: WaitMode::Fixed,
        ..Workload::paper(n, f, w)
    }
}

/// The simulator's values are always a permutation of `0..n` — the
/// counting property survives every delay/diffraction combination.
#[test]
fn simulator_counts_exactly_across_configurations() {
    let nets = [
        constructions::bitonic(8).unwrap(),
        constructions::periodic(8).unwrap(),
        constructions::counting_tree(8).unwrap(),
    ];
    for net in &nets {
        for (f, w) in [(0, 0), (50, 1000), (100, 500)] {
            for prism in [false, true] {
                let config = if prism {
                    SimConfig::diffracting(9)
                } else {
                    SimConfig::queue_lock(9)
                };
                let stats = Simulator::new(net, config).run(&workload(16, f, w, 400));
                let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
                values.sort_unstable();
                assert_eq!(values, (0..400).collect::<Vec<u64>>());
                assert!(stats.output_counts.is_step());
            }
        }
    }
}

/// The paper's control claims: `W = 0`, `F = 0`, `F = 100`, and
/// uniform-random waits are (essentially) violation-free.
#[test]
fn control_scenarios_are_clean() {
    let net = constructions::bitonic(16).unwrap();
    for (f, w, mode) in [
        (50, 0, WaitMode::Fixed),
        (0, 10_000, WaitMode::Fixed),
        (100, 10_000, WaitMode::Fixed),
    ] {
        let wl = Workload {
            total_ops: 1000,
            wait_mode: mode,
            ..Workload::paper(32, f, w)
        };
        let stats = Simulator::new(&net, SimConfig::queue_lock(5)).run(&wl);
        assert_eq!(
            stats.nonlinearizable_count(),
            0,
            "F={f} W={w} should be violation-free"
        );
    }
}

/// The simulator's internal measurement agrees with the standalone
/// checker run over the same operation records.
#[test]
fn stats_agree_with_checker() {
    let net = constructions::counting_tree(16).unwrap();
    let stats = Simulator::new(&net, SimConfig::diffracting(3)).run(&workload(32, 50, 5_000, 1500));
    assert_eq!(
        stats.nonlinearizable_count(),
        linearizability::count_nonlinearizable(&stats.operations)
    );
    assert_eq!(
        stats.nonlinearizable_count(),
        linearizability::count_nonlinearizable_naive(&stats.operations)
    );
}

/// Higher injected waits raise the measured average `c2/c1` exactly as
/// `(Tog + W)/Tog` predicts, and the ratio stays near 1 at `W = 0`.
#[test]
fn average_ratio_scales_with_wait() {
    let net = constructions::bitonic(16).unwrap();
    let mut last = 1.0f64;
    for w in [0u64, 100, 1_000, 10_000] {
        let stats = Simulator::new(&net, SimConfig::queue_lock(11)).run(&workload(16, 50, w, 600));
        let ratio = stats.average_ratio(w);
        assert!(ratio >= last, "ratio must grow with W: {ratio} < {last}");
        last = ratio;
    }
    assert!(last > 10.0, "W = 10000 must dominate Tog");
}

/// Diffraction actually happens, and disabling prisms changes the
/// measured toggle count but never the counting property.
#[test]
fn prism_ablation_preserves_counting() {
    let net = constructions::counting_tree(16).unwrap();
    let with = Simulator::new(
        &net,
        SimConfig {
            prism: Some(PrismConfig::default()),
            ..SimConfig::queue_lock(2)
        },
    )
    .run(&workload(32, 0, 0, 800));
    let without = Simulator::new(&net, SimConfig::queue_lock(2)).run(&workload(32, 0, 0, 800));
    assert!(with.sim.unwrap().diffraction_pairs > 0);
    assert_eq!(without.sim.unwrap().diffraction_pairs, 0);
    assert!(with.sim.unwrap().toggle_count < without.sim.unwrap().toggle_count);
    for stats in [&with, &without] {
        let counts: OutputCounts = stats.output_counts.as_slice().iter().copied().collect();
        assert_eq!(counts.total(), 800);
        assert!(counts.is_step());
    }
}

/// Seeded determinism holds across the facade: identical runs, cell by
/// cell.
#[test]
fn facade_runs_are_deterministic() {
    let net = constructions::counting_tree(8).unwrap();
    let a = Simulator::new(&net, SimConfig::diffracting(42)).run(&workload(16, 25, 1000, 500));
    let b = Simulator::new(&net, SimConfig::diffracting(42)).run(&workload(16, 25, 1000, 500));
    assert_eq!(a.operations, b.operations);
    assert_eq!(a.sim.unwrap().toggle_count, b.sim.unwrap().toggle_count);
    assert_eq!(
        a.sim.unwrap().diffraction_pairs,
        b.sim.unwrap().diffraction_pairs
    );
}
