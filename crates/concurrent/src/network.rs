//! Any validated topology as a real concurrent counter.
//!
//! [`NetworkCounter`] is the public face; since the compiled-hot-path
//! refactor it is a thin shell around [`crate::compiled::CompiledNet`],
//! which lowers the topology into a cache-line-aligned arena with
//! pre-resolved successor links at construction.

use crate::sync::{AtomicUsize, Ordering};

use cnet_topology::Topology;

use crate::compiled::CompiledNet;
use crate::counter::Counter;

/// How the balancers of a [`NetworkCounter`] are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalancerKind {
    /// Wait-free toggles (the default). On the compiled arena an
    /// all-binary network uses one relaxed `fetch_xor` bit per
    /// balancer; wider nodes fall back to a `fetch_add` over the
    /// fan-out.
    #[default]
    WaitFree,
    /// Toggles in critical sections guarded by FIFO ticket locks — the
    /// paper's Section 5 implementation style.
    Locked,
    /// Wait-free toggles fronted by prism (elimination) arrays on every
    /// binary balancer — diffraction generalized from trees to whole
    /// networks: a colliding pair takes one output each without
    /// touching the toggle. Over `constructions::counting_tree` this is
    /// the Shavit–Zemach diffracting tree: `slots` exchangers at layer
    /// 1, halved per layer (minimum 1), `spin` iterations of waiting.
    Diffracting {
        /// Exchanger slots of a layer-1 binary balancer; layer `l` gets
        /// `slots >> (l - 1)`, at least 1. 0 disables diffraction
        /// (pure toggles, the ablation).
        slots: usize,
        /// Spin budget while waiting for a partner.
        spin: u32,
    },
}

/// A counting network instantiated over shared atomics.
///
/// Each call to [`Counter::next`] sends one token through the network:
/// it enters on a round-robin-assigned input, toggles one balancer per
/// layer, and performs a final `fetch_add` on the output counter it
/// reaches. After any `n` completed calls the returned values are
/// exactly `0..n` (the counting property), with the linearizability
/// caveats the paper quantifies.
///
/// The structure is immutable after construction; every shared location
/// is an atomic, so the type is `Send + Sync` by construction.
#[derive(Debug)]
pub struct NetworkCounter {
    net: CompiledNet,
    next_input: AtomicUsize,
}

impl NetworkCounter {
    /// Builds a counter over `topology` with wait-free balancers.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        Self::with_kind(topology, BalancerKind::WaitFree)
    }

    /// Builds a counter over `topology` with the chosen balancer
    /// implementation. All lowering and validation happens here; see
    /// [`CompiledNet::compile`].
    #[must_use]
    pub fn with_kind(topology: &Topology, kind: BalancerKind) -> Self {
        NetworkCounter {
            net: CompiledNet::compile(topology, kind),
            next_input: AtomicUsize::new(0),
        }
    }

    /// The compiled execution plan, for callers that want to drive it
    /// directly (the engine's backends, the benches).
    #[must_use]
    pub fn compiled(&self) -> &CompiledNet {
        &self.net
    }

    /// The network's output width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.net.width()
    }

    /// The network's input width `v`.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.net.input_width()
    }

    /// The network depth `h` (balancer layers per operation).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.net.depth()
    }

    /// Takes the next value entering on a specific network input.
    ///
    /// # Panics
    ///
    /// Panics if `input >= input_width()` — the only panic on the
    /// traversal path; internal links were validated when the plan was
    /// compiled.
    pub fn next_on(&self, input: usize) -> u64 {
        self.net.next_on(input)
    }

    /// Takes the next value, spinning `spin_per_node` dummy iterations
    /// after each balancer traversal — the real-threads analogue of the
    /// paper's `W`-cycle delay injection.
    ///
    /// # Panics
    ///
    /// Panics if `input >= input_width()` — the only panic on the
    /// traversal path; internal links were validated when the plan was
    /// compiled.
    pub fn next_on_with_delay(&self, input: usize, spin_per_node: u64) -> u64 {
        self.net.next_on_with_delay(input, spin_per_node)
    }

    /// Reserves `k` contiguous values with one traversal — the
    /// combining frontend's primitive; see
    /// [`CompiledNet::next_batch_on`] for the allocator contract (a
    /// counter must be driven exclusively through the batch path or
    /// the plain path, never both).
    ///
    /// # Panics
    ///
    /// Panics if `input >= input_width()` or `k == 0`.
    pub fn next_batch_on(&self, input: usize, k: u64, spin_per_node: u64) -> u64 {
        self.net.next_batch_on(input, k, spin_per_node)
    }

    /// Per-counter totals in the current state (a step once quiescent).
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.net.output_counts()
    }

    /// The contention metrics recorded so far, or `None` when this
    /// build's probe layer is the disabled one (no `obs` feature).
    ///
    /// Meaningful at quiescence (no concurrent callers mid-operation);
    /// `wait_cycles` is the workload's injected `W`, used for the live
    /// `(Tog + W)/Tog` ratio. Latencies are in nanoseconds. Probes are
    /// keyed by arena slot (nodes in layer order).
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.net.metrics_snapshot(wait_cycles)
    }
}

impl Counter for NetworkCounter {
    fn next(&self) -> u64 {
        let v = self.net.input_width();
        let input = self.next_input.fetch_add(1, Ordering::Relaxed) % v;
        self.next_on(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;
    use std::sync::Arc;

    fn hammer(counter: &Arc<NetworkCounter>, cfg: crate::testcfg::StressParams) -> Vec<u64> {
        crate::testcfg::with_seed_report(crate::testcfg::seed(), |_| {
            let mut handles = Vec::new();
            for t in 0..cfg.threads {
                let c = Arc::clone(counter);
                handles.push(std::thread::spawn(move || {
                    (0..cfg.per_thread)
                        .map(|_| c.next_on(t % c.input_width()))
                        .collect::<Vec<u64>>()
                }));
            }
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("no panic"))
                .collect();
            all.sort_unstable();
            all
        })
    }

    #[test]
    fn sequential_use_counts_in_order() {
        let net = constructions::bitonic(4).unwrap();
        let c = NetworkCounter::new(&net);
        for expect in 0..50 {
            assert_eq!(c.next(), expect);
        }
    }

    #[test]
    fn concurrent_bitonic_hands_out_each_value_once() {
        let cfg = crate::testcfg::stress().with_per_thread(1000);
        let net = constructions::bitonic(8).unwrap();
        let c = Arc::new(NetworkCounter::new(&net));
        let all = hammer(&c, cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
        let counts: Vec<u64> = c.output_counts();
        assert_eq!(counts.iter().sum::<u64>(), cfg.total());
    }

    #[test]
    fn concurrent_periodic_counts_exactly() {
        let cfg = crate::testcfg::stress();
        let net = constructions::periodic(4).unwrap();
        let c = Arc::new(NetworkCounter::new(&net));
        let all = hammer(&c, cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
    }

    #[test]
    fn locked_balancers_count_exactly() {
        let cfg = crate::testcfg::stress();
        let net = constructions::bitonic(4).unwrap();
        let c = Arc::new(NetworkCounter::with_kind(&net, BalancerKind::Locked));
        let all = hammer(&c, cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
    }

    #[test]
    fn padded_network_counts_exactly() {
        let cfg = crate::testcfg::stress().with_per_thread(400);
        let inner = constructions::bitonic(4).unwrap();
        let padded = constructions::pad_inputs(&inner, 3).unwrap();
        let c = Arc::new(NetworkCounter::new(&padded));
        let all = hammer(&c, cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
        assert_eq!(c.depth(), inner.depth() + 3);
    }

    #[test]
    fn quiescent_counts_form_a_step() {
        // deliberately not a multiple of the width
        let cfg = crate::testcfg::stress().with_per_thread(251);
        let net = constructions::bitonic(8).unwrap();
        let c = Arc::new(NetworkCounter::new(&net));
        let _ = hammer(&c, cfg);
        let counts = cnet_topology::OutputCounts::from(c.output_counts());
        assert!(counts.is_step(), "{counts}");
    }

    #[test]
    fn delay_injection_does_not_break_counting() {
        let cfg = crate::testcfg::stress().with_per_thread(300);
        crate::testcfg::with_seed_report(crate::testcfg::seed(), |_| {
            let net = constructions::bitonic(4).unwrap();
            let c = Arc::new(NetworkCounter::new(&net));
            let mut handles = Vec::new();
            for t in 0..cfg.threads.min(4) {
                let c = Arc::clone(&c);
                // half the threads are "slow"
                let spin = if t % 2 == 0 { 200 } else { 0 };
                handles.push(std::thread::spawn(move || {
                    (0..cfg.per_thread)
                        .map(|_| c.next_on_with_delay(t, spin))
                        .collect::<Vec<u64>>()
                }));
            }
            let spawned = cfg.threads.min(4);
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("no panic"))
                .collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..(spawned * cfg.per_thread) as u64).collect::<Vec<u64>>()
            );
        });
    }

    #[test]
    fn counter_trait_round_robins_inputs() {
        let net = constructions::bitonic(4).unwrap();
        let c = NetworkCounter::new(&net);
        let values: Vec<u64> = (0..8).map(|_| c.next()).collect();
        assert_eq!(values, (0..8).collect::<Vec<u64>>());
    }
}

// the zero-cost claim from the crate root: without the `obs` feature
// the probe layer must add no bytes to any counter (its recorders are
// ZSTs and every call site folds away)
#[cfg(all(test, not(feature = "obs")))]
mod obs_disabled_tests {
    #[test]
    fn disabled_probe_layer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<crate::obs::NetObserver>(), 0);
        assert_eq!(std::mem::size_of::<crate::obs::BalancerProbe>(), 0);
        assert_eq!(crate::obs::now(), 0);
    }
}

#[cfg(test)]
mod diffracting_network_tests {
    use super::*;
    use cnet_topology::constructions;
    use std::sync::Arc;

    #[test]
    fn diffracting_bitonic_counts_exactly() {
        let cfg = crate::testcfg::stress().with_per_thread(800);
        crate::testcfg::with_seed_report(crate::testcfg::seed(), |_| {
            let net = constructions::bitonic(8).unwrap();
            let kind = BalancerKind::Diffracting {
                slots: 2,
                spin: 500,
            };
            let c = Arc::new(NetworkCounter::with_kind(&net, kind));
            let mut handles = Vec::new();
            for t in 0..cfg.threads {
                let c = Arc::clone(&c);
                handles.push(std::thread::spawn(move || {
                    (0..cfg.per_thread)
                        .map(|_| c.next_on(t % 8))
                        .collect::<Vec<u64>>()
                }));
            }
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
            let counts = cnet_topology::OutputCounts::from(c.output_counts());
            assert!(counts.is_step(), "{counts}");
        });
    }

    #[test]
    fn zero_slots_falls_back_to_wait_free() {
        let net = constructions::bitonic(4).unwrap();
        let kind = BalancerKind::Diffracting { slots: 0, spin: 0 };
        let c = NetworkCounter::with_kind(&net, kind);
        for expect in 0..20 {
            assert_eq!(c.next(), expect);
        }
    }
}
