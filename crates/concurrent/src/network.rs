//! Any validated topology as a real concurrent counter: the balancer
//! styles a [`NetworkCounter`] is built with. The counter itself lowers
//! the topology into the cache-line-aligned arena of
//! [`crate::compiled`] at construction.

pub use crate::compiled::NetworkCounter;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::Counter;
    use cnet_topology::constructions;
    use std::sync::Arc;

    fn hammer(counter: &Arc<NetworkCounter>, cfg: crate::testcfg::StressParams) -> Vec<u64> {
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
    use crate::counter::Counter;
    use cnet_topology::constructions;
    use std::sync::Arc;

    #[test]
    fn diffracting_bitonic_counts_exactly() {
        let cfg = crate::testcfg::stress().with_per_thread(800);
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
