//! Cross-crate checks of the automation layer: the attack search and
//! topology serialization, working together with the simulator.

use counting_networks::engine::{WaitMode, Workload};
use counting_networks::proteus::{SimConfig, Simulator};
use counting_networks::timing::adversary::{search_violations, SearchConfig};
use counting_networks::timing::executor::TimedExecutor;
use counting_networks::timing::{knowledge, LinkTiming};
use counting_networks::topology::{constructions, io as topo_io, TopologyError};

/// The automated search's witnesses are genuine: admissible schedules
/// whose executions violate, and whose knowledge lemmas still hold.
#[test]
fn search_witnesses_are_sound() {
    let net = constructions::counting_tree(8).unwrap();
    let timing = LinkTiming::new(10, 30).unwrap();
    let config = SearchConfig::for_network(&net, timing, 5);
    let out = search_violations(&net, timing, &config).unwrap();
    let witness = out.witness.expect("ratio 3 tree is attackable");
    witness.validate(&net, Some(timing)).unwrap();
    let exec = TimedExecutor::new(&net).run(&witness).unwrap();
    assert!(exec.nonlinearizable_count() > 0);
    knowledge::verify_lemma_3_1(&net, &exec).unwrap();
    knowledge::verify_lemma_3_2(&net, &exec, timing.c1()).unwrap();
}

/// Bounded Corollary 3.9 verification through the facade: no extremal
/// schedule violates at ratio exactly 2, across network families.
#[test]
fn search_confirms_corollary_3_9_for_padded_networks() {
    let timing = LinkTiming::new(5, 10).unwrap();
    let inner = constructions::counting_tree(4).unwrap();
    let padded = constructions::pad_inputs(&inner, 2).unwrap();
    let config = SearchConfig::for_network(&padded, timing, 4);
    let out = search_violations(&padded, timing, &config).unwrap();
    assert_eq!(out.violating, 0);
}

/// A topology serialized to text, reloaded, and simulated behaves
/// identically to the original.
#[test]
fn serialized_topology_simulates_identically() {
    let net = constructions::bitonic(8).unwrap();
    let reloaded = topo_io::from_text(&topo_io::to_text(&net)).unwrap();
    let wl = Workload {
        total_ops: 500,
        wait_mode: WaitMode::Fixed,
        ..Workload::paper(16, 25, 1_000)
    };
    let a = Simulator::new(&net, SimConfig::queue_lock(9)).run(&wl);
    let b = Simulator::new(&reloaded, SimConfig::queue_lock(9)).run(&wl);
    assert_eq!(a.operations, b.operations);
}

/// A hostile topology file is refused with a typed error naming its
/// line, never a panic and never an allocation sized by the file's
/// numbers: zero fan-in, zero fan-out, a counter index at `u64::MAX`,
/// a fan-out of 10^12.
#[test]
fn hostile_topology_text_is_a_typed_error() {
    for (text, line) in [
        ("node 0 0 2\n", 1),
        ("node 0 2 0\n", 1),
        ("node 0 1 1\nwire 0 0 counter 18446744073709551615\n", 2),
        ("# header\nnode 0 1 1000000000000\ninput 0 0\n", 2),
    ] {
        match topo_io::from_text(text) {
            Err(TopologyError::BadLine { line: at, .. }) => assert_eq!(at, line, "{text:?}"),
            other => panic!("{text:?} gave {other:?}"),
        }
    }
}
