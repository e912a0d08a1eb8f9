//! The pre-compilation traversal, kept as the differential oracle.
//!
//! [`ReferenceCounter`] is the original `NetworkCounter` implementation
//! from before the `compiled` refactor: nodes behind `Option`, wires in
//! a nested `Vec<Vec<WireEnd>>`, every toggle an `AcqRel` `fetch_add`,
//! the same prism on every binary node. It is deliberately *not*
//! optimized and carries no probes — it exists so `differential.rs` can
//! check, for every topology kind, width and [`BalancerKind`], that the
//! one production traversal (the compiled arena of `NetworkCounter`)
//! returns the same values and reaches the same quiescent
//! `output_counts()`. Why it is not a production path: EXPERIMENTS.md
//! "Native hot path".

use cnet_concurrent::lock::LockBalancer;
use cnet_concurrent::network::BalancerKind;
use cnet_concurrent::sync::{AtomicU64, Ordering};
use cnet_concurrent::tree::{ExchangeOutcome, Exchanger};
use cnet_concurrent::StressCounter;
use cnet_topology::{Topology, WireEnd};

/// The wait-free toggle: the `t`-th traversal (one `AcqRel`
/// `fetch_add`) exits on output `t mod fan_out`.
#[derive(Debug)]
struct Toggle {
    traversals: AtomicU64,
    fan_out: u64,
}

impl Toggle {
    fn new(fan_out: usize) -> Self {
        Toggle {
            traversals: AtomicU64::new(0),
            fan_out: fan_out as u64,
        }
    }

    fn traverse(&self) -> usize {
        (self.traversals.fetch_add(1, Ordering::AcqRel) % self.fan_out) as usize
    }
}

#[derive(Debug)]
enum NodeImpl {
    WaitFree(Toggle),
    Locked(LockBalancer),
    Diffracting {
        toggle: Toggle,
        prism: Vec<Exchanger>,
        /// Round-robin slot pick: the oracle needs collisions to be
        /// reachable, not a good spread.
        picks: AtomicU64,
        spin: u32,
    },
}

impl NodeImpl {
    fn traverse(&self) -> usize {
        match self {
            NodeImpl::WaitFree(b) => b.traverse(),
            NodeImpl::Locked(b) => b.traverse(),
            NodeImpl::Diffracting {
                toggle,
                prism,
                picks,
                spin,
            } => {
                let slot = picks.fetch_add(1, Ordering::Relaxed) as usize % prism.len();
                match prism[slot].visit(*spin) {
                    ExchangeOutcome::DiffractedFirst => 0,
                    ExchangeOutcome::DiffractedSecond => 1,
                    ExchangeOutcome::Timeout => toggle.traverse(),
                }
            }
        }
    }
}

/// The pre-refactor network counter: one `Option<NodeImpl>` per node,
/// wires resolved per hop through a nested `Vec`, `AcqRel` toggles.
#[derive(Debug)]
pub struct ReferenceCounter {
    nodes: Vec<Option<NodeImpl>>,
    /// `(node, port) -> wire` flattened per node for lock-free lookup.
    wires: Vec<Vec<WireEnd>>,
    /// Entry node per network input.
    entries: Vec<usize>,
    counters: Vec<AtomicU64>,
    width: u64,
}

impl ReferenceCounter {
    /// Builds a counter over `topology` with the chosen balancer
    /// implementation.
    pub fn with_kind(topology: &Topology, kind: BalancerKind) -> Self {
        let mut nodes: Vec<Option<NodeImpl>> = Vec::new();
        nodes.resize_with(topology.node_count(), || None);
        let mut wires: Vec<Vec<WireEnd>> = vec![Vec::new(); topology.node_count()];
        for id in topology.iter_nodes() {
            let fan_out = topology.fan_out(id);
            nodes[id.index()] = Some(match kind {
                BalancerKind::Locked => NodeImpl::Locked(LockBalancer::new(fan_out)),
                // diffraction pairs one token per output, which only
                // balances for fan-out 2
                BalancerKind::Diffracting { slots, spin } if fan_out == 2 && slots > 0 => {
                    NodeImpl::Diffracting {
                        toggle: Toggle::new(2),
                        prism: (0..slots).map(|_| Exchanger::new()).collect(),
                        picks: AtomicU64::new(0),
                        spin,
                    }
                }
                _ => NodeImpl::WaitFree(Toggle::new(fan_out)),
            });
            wires[id.index()] = (0..fan_out).map(|p| topology.output_wire(id, p)).collect();
        }
        ReferenceCounter {
            nodes,
            wires,
            entries: (0..topology.input_width())
                .map(|x| topology.input(x).node.index())
                .collect(),
            counters: (0..topology.output_width())
                .map(|_| AtomicU64::new(0))
                .collect(),
            width: topology.output_width() as u64,
        }
    }

    /// Takes the next value entering on a specific network input,
    /// spinning `spin_per_node` iterations after each balancer.
    pub fn next_on_with_delay(&self, input: usize, spin_per_node: u64) -> u64 {
        let mut at = self.entries[input];
        loop {
            let out = self.nodes[at]
                .as_ref()
                .expect("entry nodes exist")
                .traverse();
            let wire = self.wires[at][out];
            for _ in 0..spin_per_node {
                std::hint::spin_loop();
            }
            match wire {
                WireEnd::Node { node, .. } => at = node.index(),
                WireEnd::Counter { index } => {
                    let prior = self.counters[index].fetch_add(1, Ordering::AcqRel);
                    return index as u64 + self.width * prior;
                }
            }
        }
    }

    /// Takes the next value entering on a specific network input.
    pub fn next_on(&self, input: usize) -> u64 {
        self.next_on_with_delay(input, 0)
    }

    /// Per-counter totals in the current state (a step once quiescent).
    pub fn output_counts(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }
}

impl StressCounter for ReferenceCounter {
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64 {
        self.next_on_with_delay(thread % self.entries.len(), spin_per_node)
    }

    fn width(&self) -> usize {
        self.width as usize
    }

    fn input_width(&self) -> usize {
        self.entries.len()
    }
}
