//! A diffracting tree over native atomics, per Shavit and Zemach.
//!
//! The tree has the topology of
//! [`cnet_topology::constructions::counting_tree`]: a complete binary
//! tree of 1-in/2-out balancers whose `2^h` leaves feed the output
//! counters. Each node is fronted by a *prism*: an array of
//! [`Exchanger`]s in which two concurrent tokens can *collide* and
//! diffract — one token takes output 0 and the other output 1 without
//! anybody touching the toggle bit. Since a diffracted pair contributes
//! one token to each output, the balancer's step property is preserved
//! while the toggle (the contention hot-spot) is bypassed.

use cnet_topology::TopologyError;

use crate::counter::Counter;
use crate::prng;
use crate::sync::{spin_loop, AtomicU64, Ordering};

const EMPTY: u64 = 0;
const WAITING: u64 = 1;
const PAIRED: u64 = 2;

/// A single elimination slot: two tokens that meet here pair up.
///
/// The protocol is the classic three-state exchanger:
///
/// 1. A token CASes `EMPTY -> WAITING` and spins for a partner.
/// 2. A second token CASes `WAITING -> PAIRED`; it is the *partner*
///    and diffracts to output 1.
/// 3. The waiter observes `PAIRED`, resets the slot to `EMPTY`, and
///    diffracts to output 0.
/// 4. A waiter that times out CASes `WAITING -> EMPTY` and withdraws;
///    if that CAS fails, a partner arrived at the last instant and the
///    collision proceeds as in (3).
#[derive(Debug, Default)]
pub struct Exchanger {
    state: AtomicU64,
}

/// The outcome of visiting an [`Exchanger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// Collided as the earlier party: take output 0.
    DiffractedFirst,
    /// Collided as the later party: take output 1.
    DiffractedSecond,
    /// No partner showed up (or the slot was busy): use the toggle.
    Timeout,
}

impl Exchanger {
    /// Creates an empty exchanger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to pair with another token, spinning for at most
    /// `spin` iterations when waiting.
    pub fn visit(&self, spin: u32) -> ExchangeOutcome {
        match self
            .state
            .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // we are the waiter
                for _ in 0..spin {
                    if self.state.load(Ordering::Acquire) == PAIRED {
                        self.state.store(EMPTY, Ordering::Release);
                        return ExchangeOutcome::DiffractedFirst;
                    }
                    spin_loop();
                }
                // withdraw — unless a partner sneaks in right now
                match self.state.compare_exchange(
                    WAITING,
                    EMPTY,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ExchangeOutcome::Timeout,
                    Err(_) => {
                        // partner arrived: state is PAIRED
                        self.state.store(EMPTY, Ordering::Release);
                        ExchangeOutcome::DiffractedFirst
                    }
                }
            }
            Err(WAITING) => {
                // someone is waiting: try to be their partner
                match self.state.compare_exchange(
                    WAITING,
                    PAIRED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => ExchangeOutcome::DiffractedSecond,
                    Err(_) => ExchangeOutcome::Timeout,
                }
            }
            Err(_) => ExchangeOutcome::Timeout, // slot mid-handshake
        }
    }
}

/// Prism and spin parameters for a [`DiffractingTreeCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Exchanger slots at the root; halved per layer (minimum 1).
    pub root_slots: usize,
    /// Spin iterations a waiter spends in a slot before falling back
    /// to the toggle.
    pub spin: u32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            root_slots: 8,
            spin: 64,
        }
    }
}

#[derive(Debug)]
struct TreeNode {
    toggle: AtomicU64,
    prism: Vec<Exchanger>,
}

impl TreeNode {
    /// Routes one token through this node, returning the output bit.
    fn traverse(&self, spin: u32, rng: &mut u64, probe: &crate::obs::BalancerProbe) -> usize {
        let t0 = crate::obs::now();
        if !self.prism.is_empty() {
            let slot = (prng::step(rng) as usize) % self.prism.len();
            match self.prism[slot].visit(spin) {
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
        let out = (self.toggle.fetch_add(1, Ordering::AcqRel) % 2) as usize;
        probe.record_toggle(crate::obs::now() - t0);
        out
    }
}

/// A counting tree with prism (elimination) arrays — a concurrent
/// shared counter.
///
/// # Example
///
/// ```
/// use cnet_concurrent::counter::Counter;
/// use cnet_concurrent::tree::DiffractingTreeCounter;
///
/// let tree = DiffractingTreeCounter::new(8)?;
/// assert_eq!(tree.next(), 0);
/// assert_eq!(tree.next(), 1);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct DiffractingTreeCounter {
    /// Heap-ordered internal nodes, index 1-based: children of `i` are
    /// `2i` and `2i + 1`. Index 0 is unused.
    nodes: Vec<TreeNode>,
    counters: Vec<AtomicU64>,
    depth: usize,
    width: u64,
    spin: u32,
    /// Probe recorders; a set of ZSTs unless the `obs` feature is on.
    obs: crate::obs::NetObserver,
}

impl DiffractingTreeCounter {
    /// Builds a diffracting tree with `width` leaves and default prism
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is
    /// a power of two `>= 2`.
    pub fn new(width: usize) -> Result<Self, TopologyError> {
        Self::with_config(width, TreeConfig::default())
    }

    /// Builds a diffracting tree with explicit prism parameters. A
    /// `root_slots` of 0 disables diffraction entirely (pure toggles —
    /// the plain counting tree, useful for ablation).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is
    /// a power of two `>= 2`.
    pub fn with_config(width: usize, config: TreeConfig) -> Result<Self, TopologyError> {
        if width < 2 || !width.is_power_of_two() {
            return Err(TopologyError::WidthNotPowerOfTwo { width });
        }
        let depth = width.trailing_zeros() as usize;
        let mut nodes = Vec::with_capacity(width);
        for i in 0..width {
            // node i's layer: floor(log2 i) + 1 (index 0 is a dummy)
            let layer = if i == 0 {
                1
            } else {
                usize::BITS as usize - 1 - i.leading_zeros() as usize + 1
            };
            let slots = if config.root_slots == 0 || i == 0 {
                0
            } else {
                (config.root_slots >> (layer - 1)).max(1)
            };
            nodes.push(TreeNode {
                toggle: AtomicU64::new(0),
                prism: (0..slots).map(|_| Exchanger::new()).collect(),
            });
        }
        Ok(DiffractingTreeCounter {
            obs: crate::obs::NetObserver::new(nodes.len()),
            nodes,
            counters: (0..width).map(|_| AtomicU64::new(0)).collect(),
            depth,
            width: width as u64,
            spin: config.spin,
        })
    }

    /// The number of leaves (output counters).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width as usize
    }

    /// The tree depth `log width`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Takes the next value, spinning `spin_per_node` dummy iterations
    /// after each node — the real-threads analogue of the paper's
    /// `W`-cycle delay injection.
    pub fn next_with_delay(&self, spin_per_node: u64) -> u64 {
        let mut rng = prng::begin();
        let start = crate::obs::now();
        let mut idx = 1usize; // root
        let mut leaf = 0usize;
        for level in 0..self.depth {
            let hop_start = crate::obs::now();
            let bit = self.nodes[idx].traverse(self.spin, &mut rng, self.obs.probe(idx));
            leaf |= bit << level;
            idx = 2 * idx + bit;
            for _ in 0..spin_per_node {
                std::hint::spin_loop();
            }
            self.obs.record_wire(crate::obs::now() - hop_start);
        }
        prng::commit(rng);
        let prior = self.counters[leaf].fetch_add(1, Ordering::AcqRel);
        let value = leaf as u64 + self.width * prior;
        self.obs.record_op(start, crate::obs::now());
        value
    }

    /// Per-leaf totals (a step once quiescent).
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }

    /// The contention metrics recorded so far, or `None` when this
    /// build's probe layer is the disabled one (no `obs` feature).
    ///
    /// Meaningful at quiescence; node index 0 is the unused heap dummy
    /// and always reports zeros. Latencies are in nanoseconds.
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.obs.snapshot(wait_cycles)
    }
}

impl Counter for DiffractingTreeCounter {
    fn next(&self) -> u64 {
        self.next_with_delay(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_counts_in_order() {
        let tree = DiffractingTreeCounter::new(8).unwrap();
        for expect in 0..64 {
            assert_eq!(tree.next(), expect);
        }
    }

    #[test]
    fn leaf_interleaving_matches_counting_tree() {
        // with no concurrency the toggle path must visit leaves
        // 0,1,2,…,w-1 in order, like the model tree
        let tree = DiffractingTreeCounter::with_config(
            4,
            TreeConfig {
                root_slots: 0,
                spin: 0,
            },
        )
        .unwrap();
        let leaves: Vec<u64> = (0..8).map(|_| tree.next() % 4).collect();
        assert_eq!(leaves, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_tree_hands_out_each_value_once() {
        let cfg = crate::testcfg::stress().with_per_thread(1000);
        crate::testcfg::with_seed_report(crate::testcfg::seed(), |_| {
            let tree = Arc::new(DiffractingTreeCounter::new(8).unwrap());
            let mut handles = Vec::new();
            for _ in 0..cfg.threads {
                let t = Arc::clone(&tree);
                handles.push(std::thread::spawn(move || {
                    (0..cfg.per_thread).map(|_| t.next()).collect::<Vec<u64>>()
                }));
            }
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("no panic"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
            let counts = cnet_topology::OutputCounts::from(tree.output_counts());
            assert!(counts.is_step(), "{counts}");
        });
    }

    #[test]
    fn exchanger_pairs_exactly_two() {
        // deterministic handshake, no sleeps: the main thread keeps
        // offering to pair until a collision happens. Whichever thread
        // reaches the slot first becomes the waiter, so the roles can
        // land either way — but a collision always produces exactly one
        // First and one Second.
        let ex = Arc::new(Exchanger::new());
        let a = Arc::clone(&ex);
        let peer = std::thread::spawn(move || a.visit(u32::MAX));
        let mine = loop {
            match ex.visit(1) {
                ExchangeOutcome::Timeout => std::thread::yield_now(),
                hit => break hit,
            }
        };
        let theirs = peer.join().expect("no panic");
        let mut pair = [mine, theirs];
        pair.sort_by_key(|o| *o as u8);
        assert_eq!(
            pair,
            [
                ExchangeOutcome::DiffractedFirst,
                ExchangeOutcome::DiffractedSecond
            ]
        );
    }

    #[test]
    fn exchanger_timeout_when_alone() {
        let ex = Exchanger::new();
        assert_eq!(ex.visit(10), ExchangeOutcome::Timeout);
        // slot is reusable afterwards
        assert_eq!(ex.visit(10), ExchangeOutcome::Timeout);
    }

    #[test]
    fn invalid_width_rejected() {
        assert!(DiffractingTreeCounter::new(3).is_err());
        assert!(DiffractingTreeCounter::new(0).is_err());
    }

    #[test]
    fn delay_injection_preserves_counting() {
        let cfg = crate::testcfg::stress();
        crate::testcfg::with_seed_report(crate::testcfg::seed(), |_| {
            let tree = Arc::new(DiffractingTreeCounter::new(4).unwrap());
            let mut handles = Vec::new();
            for t in 0..cfg.threads {
                let tr = Arc::clone(&tree);
                let spin = if t % 2 == 0 { 300 } else { 0 };
                handles.push(std::thread::spawn(move || {
                    (0..cfg.per_thread)
                        .map(|_| tr.next_with_delay(spin))
                        .collect::<Vec<u64>>()
                }));
            }
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("no panic"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
        });
    }
}
