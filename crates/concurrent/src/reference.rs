//! The pre-compilation traversal, preserved as an executable
//! specification.
//!
//! [`ReferenceCounter`] is the original `NetworkCounter` implementation
//! from before the [`crate::compiled`] refactor: nodes behind
//! `Option`, wires in a nested `Vec<Vec<WireEnd>>`, every toggle an
//! `AcqRel` `fetch_add`. It is deliberately *not* optimized — it
//! exists so the differential tests can check, for every topology kind
//! and width, that [`crate::compiled::CompiledNet`] produces identical
//! `output_counts()` and the same Def-2.4 behaviour, and so the native
//! benchmarks can keep measuring the before/after gap forever.

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

use cnet_topology::{Topology, WireEnd};

use crate::balancer::ToggleBalancer;
use crate::counter::Counter;
use crate::lock::LockBalancer;
use crate::network::BalancerKind;
use crate::prng;
use crate::tree::{ExchangeOutcome, Exchanger};

#[derive(Debug)]
enum NodeImpl {
    WaitFree(ToggleBalancer),
    Locked(LockBalancer),
    Diffracting {
        toggle: ToggleBalancer,
        prism: Vec<Exchanger>,
        spin: u32,
    },
}

impl NodeImpl {
    fn traverse(&self, probe: &crate::obs::BalancerProbe) -> usize {
        match self {
            NodeImpl::WaitFree(b) => {
                let t0 = crate::obs::now();
                let out = b.traverse();
                probe.record_toggle(crate::obs::now() - t0);
                out
            }
            NodeImpl::Locked(b) => b.traverse_probed(probe),
            NodeImpl::Diffracting {
                toggle,
                prism,
                spin,
            } => {
                let t0 = crate::obs::now();
                if !prism.is_empty() {
                    let slot = prng::thread_rand() as usize % prism.len();
                    match prism[slot].visit(*spin) {
                        ExchangeOutcome::DiffractedFirst => {
                            probe.record_diffraction(crate::obs::now() - t0);
                            return 0;
                        }
                        ExchangeOutcome::DiffractedSecond => {
                            probe.record_diffraction(crate::obs::now() - t0);
                            return 1;
                        }
                        ExchangeOutcome::Timeout => {}
                    }
                }
                let out = toggle.traverse();
                probe.record_toggle(crate::obs::now() - t0);
                out
            }
        }
    }
}

/// The pre-refactor network counter: one `Option<NodeImpl>` per node,
/// wires resolved per hop through a nested `Vec`, `AcqRel` toggles.
///
/// Semantically interchangeable with
/// [`crate::network::NetworkCounter`]; kept as the baseline side of
/// the differential tests and the `reference` engine flavor.
#[derive(Debug)]
pub struct ReferenceCounter {
    nodes: Vec<Option<NodeImpl>>,
    /// `(node, port) -> wire` flattened per node for lock-free lookup.
    wires: Vec<Vec<WireEnd>>,
    /// Entry node per network input.
    entries: Vec<usize>,
    counters: Vec<AtomicU64>,
    next_input: AtomicUsize,
    width: u64,
    depth: usize,
    /// Probe recorders; a set of ZSTs unless the `obs` feature is on.
    obs: crate::obs::NetObserver,
}

impl ReferenceCounter {
    /// Builds a counter over `topology` with wait-free balancers.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        Self::with_kind(topology, BalancerKind::WaitFree)
    }

    /// Builds a counter over `topology` with the chosen balancer
    /// implementation.
    #[must_use]
    pub fn with_kind(topology: &Topology, kind: BalancerKind) -> Self {
        let mut nodes: Vec<Option<NodeImpl>> = Vec::with_capacity(topology.node_count());
        let mut wires: Vec<Vec<WireEnd>> = Vec::with_capacity(topology.node_count());
        for i in 0..topology.node_count() {
            nodes.push(None);
            wires.push(Vec::new());
            debug_assert_eq!(wires.len(), i + 1);
        }
        for id in topology.iter_nodes() {
            let fan_out = topology.fan_out(id);
            nodes[id.index()] = Some(match kind {
                BalancerKind::WaitFree => NodeImpl::WaitFree(ToggleBalancer::new(fan_out)),
                BalancerKind::Locked => NodeImpl::Locked(LockBalancer::new(fan_out)),
                BalancerKind::Diffracting { slots, spin } => {
                    if fan_out == 2 && slots > 0 {
                        NodeImpl::Diffracting {
                            toggle: ToggleBalancer::new(2),
                            prism: (0..slots).map(|_| Exchanger::new()).collect(),
                            spin,
                        }
                    } else {
                        // diffraction pairs one token per output, which
                        // only balances for fan-out 2
                        NodeImpl::WaitFree(ToggleBalancer::new(fan_out))
                    }
                }
            });
            wires[id.index()] = (0..fan_out).map(|p| topology.output_wire(id, p)).collect();
        }
        let entries = (0..topology.input_width())
            .map(|x| topology.input(x).node.index())
            .collect();
        ReferenceCounter {
            nodes,
            wires,
            entries,
            counters: (0..topology.output_width())
                .map(|_| AtomicU64::new(0))
                .collect(),
            next_input: AtomicUsize::new(0),
            width: topology.output_width() as u64,
            depth: topology.depth(),
            obs: crate::obs::NetObserver::new(topology.node_count()),
        }
    }

    /// The network's output width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// The network's input width `v`.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.entries.len()
    }

    /// The network depth `h` (balancer layers per operation).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Takes the next value entering on a specific network input.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn next_on(&self, input: usize) -> u64 {
        self.next_on_with_delay(input, 0)
    }

    /// Takes the next value, spinning `spin_per_node` dummy iterations
    /// after each balancer traversal — the real-threads analogue of the
    /// paper's `W`-cycle delay injection.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn next_on_with_delay(&self, input: usize, spin_per_node: u64) -> u64 {
        let start = crate::obs::now();
        let mut at = self.entries[input];
        loop {
            let hop_start = crate::obs::now();
            let out = self.nodes[at]
                .as_ref()
                .expect("entry nodes exist")
                .traverse(self.obs.probe(at));
            let wire = self.wires[at][out];
            for _ in 0..spin_per_node {
                std::hint::spin_loop();
            }
            self.obs.record_wire(crate::obs::now() - hop_start);
            match wire {
                WireEnd::Node { node, .. } => at = node.index(),
                WireEnd::Counter { index } => {
                    let prior = self.counters[index].fetch_add(1, Ordering::AcqRel);
                    let value = index as u64 + self.width * prior;
                    self.obs.record_op(start, crate::obs::now());
                    return value;
                }
            }
        }
    }

    /// Per-counter totals in the current state (a step once quiescent).
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }

    /// The contention metrics recorded so far, or `None` when this
    /// build's probe layer is the disabled one (no `obs` feature).
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.obs.snapshot(wait_cycles)
    }
}

impl Counter for ReferenceCounter {
    fn next(&self) -> u64 {
        let v = self.entries.len();
        let input = self.next_input.fetch_add(1, Ordering::Relaxed) % v;
        self.next_on(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    #[test]
    fn sequential_use_counts_in_order() {
        let net = constructions::bitonic(4).unwrap();
        let c = ReferenceCounter::new(&net);
        for expect in 0..50 {
            assert_eq!(c.next(), expect);
        }
    }

    #[test]
    fn all_kinds_count_sequentially() {
        let net = constructions::bitonic(4).unwrap();
        for kind in [
            BalancerKind::WaitFree,
            BalancerKind::Locked,
            BalancerKind::Diffracting { slots: 2, spin: 8 },
        ] {
            let c = ReferenceCounter::with_kind(&net, kind);
            for expect in 0..40 {
                assert_eq!(c.next_on((expect % 4) as usize), expect, "{kind:?}");
            }
        }
    }
}
