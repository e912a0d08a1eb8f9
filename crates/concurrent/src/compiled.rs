//! The compiled native hot path: a validated [`Topology`] lowered into
//! one contiguous, cache-line-aligned arena of node slots.
//!
//! [`NetworkCounter`] is any validated topology as a real concurrent
//! counter. The paper's model treats a balancer transition as a single
//! cheap atomic event, but the pre-refactor traversal paid per hop for
//! an `Option::expect`, a `Vec<Vec<WireEnd>>` double indirection, and
//! an enum match the step property never required.
//! [`NetworkCounter::with_kind`] does all of that work once, at
//! construction:
//!
//! * every node becomes one `#[repr(align(64))]` `Slot` in a single
//!   contiguous arena, laid out in layer order so consecutive layers
//!   are adjacent in memory and no two slots share a cache line (the
//!   declanvk/counting-networks idiom for killing false sharing);
//! * every successor is pre-resolved into a tagged `Link`: one `u32`
//!   whose high bit says *arena slot* or *output counter*, so a hop
//!   decodes with a mask instead of matching a `WireEnd` through two
//!   `Vec` lookups — the index-threaded rendition of pointer-threaded
//!   wiring that `forbid(unsafe_code)` allows;
//! * binary wait-free balancers demote to a single
//!   `fetch_xor(1, Relaxed)` toggle bit. Atomicity of the RMW is all
//!   the step property needs: each traversal flips the bit exactly
//!   once and takes the exit the *previous* state names, so any
//!   interleaving of `t` tokens exits `ceil(t/2)` / `floor(t/2)` —
//!   there is no ordering obligation for the toggle to carry (the
//!   value an operation returns is derived solely from its own final
//!   `fetch_add` on the output counter). The modelcheck suite verifies
//!   the compiled toggle and the compiled width-2 bitonic
//!   exhaustively;
//! * each [`BalancerKind`] gets its own monomorphized traversal loop
//!   (the `Route` implementations), so the wait-free hop compiles to
//!   pure index chasing with zero allocation, no `Option`, and no
//!   per-hop branch on the balancer style.
//!
//! Entries are validated once at build time; the only panic left on
//! the hot path is the documented out-of-range `input` in
//! [`NetworkCounter::next_on`]. This is the only native traversal: the
//! pre-refactor one is the differential oracle of `cnet-engine`'s
//! tests, and a diffracting tree is the [`BalancerKind::Diffracting`]
//! plan over `constructions::counting_tree`.

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

use cnet_topology::{Topology, WireEnd};

use crate::counter::{Counter, StressCounter};
use crate::lock::LockBalancer;
use crate::network::BalancerKind;
use crate::prng;
use crate::tree::{ExchangeOutcome, Exchanger};

/// A pre-resolved successor: either another arena slot or an output
/// counter, tagged in the high bit. Decoding is one mask — no enum,
/// no second lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link(u32);

/// High bit set ⇒ the link names an output counter.
const COUNTER_BIT: u32 = 1 << 31;

impl Link {
    fn node(slot: usize) -> Self {
        let slot = u32::try_from(slot).expect("arena slot index fits in 31 bits");
        assert!(slot & COUNTER_BIT == 0, "arena slot index fits in 31 bits");
        Link(slot)
    }

    fn counter(index: usize) -> Self {
        let index = u32::try_from(index).expect("counter index fits in 31 bits");
        assert!(index & COUNTER_BIT == 0, "counter index fits in 31 bits");
        Link(index | COUNTER_BIT)
    }
}

/// One balancer style on the compiled arena. Implementations route a
/// token to an output port; the surrounding loop is monomorphized per
/// implementation, so each kind gets its own straight-line hop.
trait Route {
    fn route(&self, rng: &mut u64, probe: &crate::obs::BalancerProbe) -> usize;
}

/// Wait-free binary balancer: the shared toggle bit of Aspnes, Herlihy,
/// and Shavit as one `fetch_xor(1, Relaxed)`. Used when every node of
/// the topology has fan-out ≤ 2 (fan-out-1 nodes duplicate their
/// single link across both ports, so the flip is harmless and the hop
/// stays branch-free).
#[derive(Debug, Default)]
struct BitToggle {
    bit: AtomicU64,
}

impl Route for BitToggle {
    #[inline]
    fn route(&self, _rng: &mut u64, probe: &crate::obs::BalancerProbe) -> usize {
        let t0 = crate::obs::now();
        let out = (self.bit.fetch_xor(1, Ordering::Relaxed) & 1) as usize;
        probe.record_toggle(crate::obs::now() - t0);
        out
    }
}

/// Wait-free balancer for arbitrary fan-out: the `t`-th traversal exits
/// on port `t mod fan_out`, one `fetch_add` with the `Relaxed` ordering
/// the step property actually needs.
#[derive(Debug)]
struct ModToggle {
    traversals: AtomicU64,
    fan_out: u32,
}

impl Route for ModToggle {
    #[inline]
    fn route(&self, _rng: &mut u64, probe: &crate::obs::BalancerProbe) -> usize {
        let t0 = crate::obs::now();
        let t = self.traversals.fetch_add(1, Ordering::Relaxed);
        probe.record_toggle(crate::obs::now() - t0);
        (t % u64::from(self.fan_out)) as usize
    }
}

/// The paper's Section 5 style: a toggle in a critical section behind
/// a FIFO queue lock.
#[derive(Debug)]
struct LockedToggle(LockBalancer);

impl Route for LockedToggle {
    #[inline]
    fn route(&self, _rng: &mut u64, probe: &crate::obs::BalancerProbe) -> usize {
        self.0.traverse_probed(probe)
    }
}

/// A wait-free toggle fronted by a prism (elimination) array: a
/// colliding pair takes one output each without touching the toggle.
/// Non-binary nodes and `slots == 0` get an empty prism and fall back
/// to the plain toggle.
#[derive(Debug)]
struct PrismToggle {
    toggle: AtomicU64,
    prism: Box<[Exchanger]>,
    spin: u32,
    fan_out: u32,
}

impl PrismToggle {
    /// The Shavit–Zemach sizing: `root_slots` exchangers at layer 1,
    /// halved per layer (a tree node sees half its parent's traffic)
    /// but never below one; `root_slots == 0` means no prism anywhere.
    fn new(fan_out: usize, layer: usize, root_slots: usize, spin: u32) -> Self {
        let slots = if fan_out == 2 && root_slots > 0 {
            let halvings = u32::try_from(layer - 1).unwrap_or(u32::MAX);
            root_slots.checked_shr(halvings).unwrap_or(0).max(1)
        } else {
            0
        };
        PrismToggle {
            toggle: AtomicU64::new(0),
            prism: (0..slots).map(|_| Exchanger::new()).collect(),
            spin,
            fan_out: u32::try_from(fan_out).expect("fan-out fits in u32"),
        }
    }
}

impl Route for PrismToggle {
    #[inline]
    fn route(&self, rng: &mut u64, probe: &crate::obs::BalancerProbe) -> usize {
        let t0 = crate::obs::now();
        if !self.prism.is_empty() {
            let slot = (prng::step(rng) as usize) % self.prism.len();
            match self.prism[slot].visit(self.spin) {
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
        let out = match self.fan_out {
            1 => 0,
            2 => (self.toggle.fetch_xor(1, Ordering::Relaxed) & 1) as usize,
            f => (self.toggle.fetch_add(1, Ordering::Relaxed) % u64::from(f)) as usize,
        };
        probe.record_toggle(crate::obs::now() - t0);
        out
    }
}

/// One arena entry: the balancer state plus its two inline successor
/// links, padded to a full cache line so no two balancers ever share
/// one (false sharing is the dominant cost of a hot toggle).
///
/// Ports 0 and 1 resolve inline; the rare fan-out > 2 node keeps its
/// remaining links contiguously in the arena's overflow table at
/// `ext_base`. Fan-out-1 nodes store their single link twice, so every
/// binary-plan hop is `links[port]` unconditionally.
#[repr(align(64))]
#[derive(Debug)]
struct Slot<B> {
    bal: B,
    links: [Link; 2],
    ext_base: u32,
}

/// The contiguous node arena for one balancer style.
#[derive(Debug)]
struct Arena<B> {
    slots: Box<[Slot<B>]>,
    /// Overflow links for ports ≥ 2 of fan-out > 2 nodes; empty for
    /// the binary constructions.
    ext: Box<[Link]>,
}

/// Lowers `topology` into an arena, making one `B` per node via
/// `make(fan_out, layer)`. Slots are laid out in layer order (layer 1
/// first; `slot_of` maps node index to arena slot), every link resolved
/// and validated here — the traversal never sees a dangling or
/// out-of-range successor.
fn lower<B>(
    topology: &Topology,
    slot_of: &[u32],
    mut make: impl FnMut(usize, usize) -> B,
) -> Arena<B> {
    let mut ext = Vec::new();
    // sized up front: `iter_nodes` flattens the layers and has no
    // useful size hint, and a cache-line slot is expensive to regrow
    let mut slots = Vec::with_capacity(topology.node_count());
    for id in topology.iter_nodes() {
        let fan_out = topology.fan_out(id);
        let resolve = |port: usize| match topology.output_wire(id, port) {
            WireEnd::Node { node, .. } => Link::node(slot_of[node.index()] as usize),
            WireEnd::Counter { index } => {
                assert!(
                    index < topology.output_width(),
                    "validated topologies wire counters in range"
                );
                Link::counter(index)
            }
        };
        let links = if fan_out == 1 {
            let only = resolve(0);
            [only, only]
        } else {
            [resolve(0), resolve(1)]
        };
        let ext_base = u32::try_from(ext.len()).expect("overflow table fits in u32");
        for port in 2..fan_out {
            ext.push(resolve(port));
        }
        slots.push(Slot {
            bal: make(fan_out, topology.layer_of(id)),
            links,
            ext_base,
        });
    }
    Arena {
        slots: slots.into_boxed_slice(),
        ext: ext.into_boxed_slice(),
    }
}

/// The per-kind monomorphized plans. The dispatch happens once per
/// operation, outside the hop loop.
#[derive(Debug)]
enum Plan {
    /// `WaitFree` over an all-binary topology: relaxed toggle bits.
    Binary(Arena<BitToggle>),
    /// `WaitFree` with at least one fan-out > 2 node.
    Wide(Arena<ModToggle>),
    /// `Locked`: FIFO-queue-lock balancers.
    Locked(Arena<LockedToggle>),
    /// `Diffracting`: prism arrays over relaxed toggles.
    Diffracting(Arena<PrismToggle>),
}

/// An output counter on its own cache line: the final `fetch_add` of
/// every operation lands here, so adjacent counters must not share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedCounter(AtomicU64);

/// A counting network instantiated over shared atomics, compiled for
/// traversal.
///
/// Each call to [`Counter::next`] sends one token through the network:
/// it enters on a round-robin-assigned input, toggles one balancer per
/// layer, and performs a final `fetch_add` on the output counter it
/// reaches. After any `n` completed calls the returned values are
/// exactly `0..n` (the counting property), with the linearizability
/// caveats the paper quantifies.
///
/// Construction ([`NetworkCounter::with_kind`]) validates and resolves
/// everything; traversal ([`NetworkCounter::next_on_with_delay`]) is
/// pure index chasing over the arena. Every shared location is an
/// atomic, so the type is `Send + Sync` by construction.
#[derive(Debug)]
pub struct NetworkCounter {
    plan: Plan,
    /// Entry arena slot per network input.
    entries: Box<[u32]>,
    counters: Box<[PaddedCounter]>,
    /// Global interval allocator for [`NetworkCounter::next_batch_on`]:
    /// one `fetch_add(k)` here reserves the contiguous value interval
    /// `[base, base + k)` regardless of which output counter the
    /// traversal landed on. Kept separate from the per-counter tallies
    /// so unequal batch sizes can never leave gaps in the value space
    /// (deriving batch values from `index + width * prior` would).
    issued: AtomicU64,
    width: u64,
    depth: usize,
    input_width: usize,
    /// Probe recorders keyed by arena slot (layer order); a set of
    /// ZSTs unless the `obs` feature is on.
    obs: crate::obs::NetObserver,
    /// The round-robin input cursor of [`Counter::next`].
    next_input: AtomicUsize,
}

impl NetworkCounter {
    /// Builds a counter over `topology` with wait-free balancers.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        Self::with_kind(topology, BalancerKind::WaitFree)
    }

    /// Builds a counter over `topology` with the chosen balancer
    /// implementation, lowering the topology into the arena: all
    /// lowering and validation happens here.
    #[must_use]
    pub fn with_kind(topology: &Topology, kind: BalancerKind) -> Self {
        // arena slot per node index: layer order, layer 1 first
        // (construction is cold; traversal never touches NodeId again)
        let mut slot_of = vec![u32::MAX; topology.node_count()];
        let mut max_fan_out = 0;
        for (slot, id) in topology.iter_nodes().enumerate() {
            slot_of[id.index()] = u32::try_from(slot).expect("slot index fits in u32");
            max_fan_out = max_fan_out.max(topology.fan_out(id));
        }
        assert!(
            slot_of.iter().all(|&slot| slot != u32::MAX),
            "validated topologies have no unreachable nodes"
        );
        let plan = match kind {
            BalancerKind::WaitFree if max_fan_out <= 2 => {
                Plan::Binary(lower(topology, &slot_of, |_, _| BitToggle::default()))
            }
            BalancerKind::WaitFree => {
                Plan::Wide(lower(topology, &slot_of, |fan_out, _| ModToggle {
                    traversals: AtomicU64::new(0),
                    fan_out: u32::try_from(fan_out).expect("fan-out fits in u32"),
                }))
            }
            BalancerKind::Locked => Plan::Locked(lower(topology, &slot_of, |fan_out, _| {
                LockedToggle(LockBalancer::new(fan_out))
            })),
            BalancerKind::Diffracting { slots, spin } => {
                Plan::Diffracting(lower(topology, &slot_of, |fan_out, layer| {
                    PrismToggle::new(fan_out, layer, slots, spin)
                }))
            }
        };
        let entries: Box<[u32]> = (0..topology.input_width())
            .map(|x| slot_of[topology.input(x).node.index()])
            .collect();
        NetworkCounter {
            plan,
            entries,
            counters: (0..topology.output_width())
                .map(|_| PaddedCounter(AtomicU64::new(0)))
                .collect(),
            issued: AtomicU64::new(0),
            width: topology.output_width() as u64,
            depth: topology.depth(),
            input_width: topology.input_width(),
            obs: crate::obs::NetObserver::new(topology.node_count()),
            next_input: AtomicUsize::new(0),
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
        self.input_width
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
    /// Panics if `input >= input_width()` — the only panic on the
    /// traversal path; every internal link was validated at compile
    /// time.
    pub fn next_on(&self, input: usize) -> u64 {
        self.next_on_with_delay(input, 0)
    }

    /// Takes the next value, spinning `spin_per_node` dummy iterations
    /// after each balancer traversal — the real-threads analogue of
    /// the paper's `W`-cycle delay injection.
    ///
    /// # Panics
    ///
    /// Panics if `input >= input_width()` — the only panic on the
    /// traversal path; every internal link was validated at compile
    /// time.
    pub fn next_on_with_delay(&self, input: usize, spin_per_node: u64) -> u64 {
        self.traverse(input, spin_per_node, |index| {
            let prior = self.counters[index].0.fetch_add(1, Ordering::AcqRel);
            index as u64 + self.width * prior
        })
    }

    /// Reserves a contiguous interval of `k` values with a *single*
    /// traversal: one token walks the network, then the output counter
    /// it lands on absorbs all `k` arrivals in one `fetch_add(k)` and
    /// the returned base comes from the global interval allocator, so
    /// the caller owns values `base..base + k`.
    ///
    /// This is the combining frontend's primitive. The per-counter
    /// tallies still sum to the number of values handed out, but a
    /// k-batch lands on one counter, so the quiescent counts are only
    /// a `(k-1)`-relaxed step — the ordering cost the frontend bench
    /// measures. Values from this path come from a different allocator
    /// than [`NetworkCounter::next_on`]; a net must be driven exclusively
    /// through one of the two or values would collide (solo operations
    /// on a batching frontend call this with `k == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `input >= input_width()` or `k == 0`.
    pub fn next_batch_on(&self, input: usize, k: u64, spin_per_node: u64) -> u64 {
        assert!(k > 0, "a batch reserves at least one value");
        self.traverse(input, spin_per_node, |index| {
            self.counters[index].0.fetch_add(k, Ordering::AcqRel);
            self.issued.fetch_add(k, Ordering::AcqRel)
        })
    }

    /// Dispatches on the plan once per operation, outside the hop
    /// loop; `land` is what the token does at the output counter it
    /// reaches, and the value it returns is the operation's.
    #[inline]
    fn traverse(&self, input: usize, spin_per_node: u64, land: impl FnOnce(usize) -> u64) -> u64 {
        let at = self.entries[input];
        match &self.plan {
            Plan::Binary(arena) => self.run(arena, at, spin_per_node, &mut 0, land),
            Plan::Wide(arena) => self.run(arena, at, spin_per_node, &mut 0, land),
            Plan::Locked(arena) => self.run(arena, at, spin_per_node, &mut 0, land),
            Plan::Diffracting(arena) => {
                // one TLS access pair per operation, not one per hop
                let mut rng = prng::begin();
                let value = self.run(arena, at, spin_per_node, &mut rng, land);
                prng::commit(rng);
                value
            }
        }
    }

    /// The hop loop, monomorphized per balancer style and per
    /// terminal: route, decode the tagged link, repeat until a counter
    /// link ends the traversal in `land`.
    #[inline]
    fn run<B: Route>(
        &self,
        arena: &Arena<B>,
        mut at: u32,
        spin_per_node: u64,
        rng: &mut u64,
        land: impl FnOnce(usize) -> u64,
    ) -> u64 {
        let start = crate::obs::now();
        loop {
            let hop_start = crate::obs::now();
            let slot = &arena.slots[at as usize];
            let port = slot.bal.route(rng, self.obs.probe(at as usize));
            let link = if port < 2 {
                slot.links[port]
            } else {
                arena.ext[slot.ext_base as usize + (port - 2)]
            };
            for _ in 0..spin_per_node {
                std::hint::spin_loop();
            }
            self.obs.record_wire(crate::obs::now() - hop_start);
            if link.0 & COUNTER_BIT == 0 {
                at = link.0;
            } else {
                let value = land((link.0 & !COUNTER_BIT) as usize);
                self.obs.record_op(start, crate::obs::now());
                return value;
            }
        }
    }

    /// Per-counter totals in the current state (a step once quiescent).
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.0.load(Ordering::Acquire))
            .collect()
    }

    /// The contention metrics recorded so far, or `None` when this
    /// build's probe layer is the disabled one (no `obs` feature).
    ///
    /// Meaningful at quiescence (no concurrent callers mid-operation);
    /// `wait_cycles` is the workload's injected `W`, used for the live
    /// `(Tog + W)/Tog` ratio. Probes are keyed by *arena slot* — nodes
    /// in layer order, layer 1 first — which matches topology node ids
    /// for the standard constructions (they add nodes layer by layer).
    /// Latencies are in nanoseconds.
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.obs.snapshot(wait_cycles)
    }
}

impl Counter for NetworkCounter {
    fn next(&self) -> u64 {
        let input = self.next_input.fetch_add(1, Ordering::Relaxed) % self.input_width;
        self.next_on(input)
    }
}

impl StressCounter for NetworkCounter {
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64 {
        self.next_on_with_delay(thread % self.input_width, spin_per_node)
    }

    fn width(&self) -> usize {
        NetworkCounter::width(self)
    }

    fn input_width(&self) -> usize {
        self.input_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::{constructions, TopologyBuilder};

    #[test]
    fn link_tag_round_trips() {
        assert_eq!(Link::node(5).0, 5);
        assert_eq!(Link::counter(5).0 & !COUNTER_BIT, 5);
        assert_ne!(Link::node(5), Link::counter(5));
        assert!(Link::counter(0).0 & COUNTER_BIT != 0);
    }

    #[test]
    fn slots_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<Slot<BitToggle>>(), 64);
        assert_eq!(std::mem::align_of::<Slot<LockedToggle>>(), 64);
        assert_eq!(std::mem::align_of::<Slot<PrismToggle>>(), 64);
        assert_eq!(std::mem::align_of::<PaddedCounter>(), 64);
        // one balancer per line, never two
        assert!(std::mem::size_of::<Slot<BitToggle>>() >= 64);
    }

    #[test]
    fn waitfree_binary_topologies_take_the_bit_plan() {
        let net = constructions::bitonic(8).unwrap();
        let c = NetworkCounter::with_kind(&net, BalancerKind::WaitFree);
        assert!(matches!(c.plan, Plan::Binary(_)));
        for expect in 0..64 {
            assert_eq!(c.next_on((expect % 8) as usize), expect);
        }
    }

    #[test]
    fn padded_networks_duplicate_fanout1_links() {
        let inner = constructions::bitonic(4).unwrap();
        let padded = constructions::pad_inputs(&inner, 2).unwrap();
        let c = NetworkCounter::with_kind(&padded, BalancerKind::WaitFree);
        assert!(matches!(c.plan, Plan::Binary(_)), "fan-out 1 stays binary");
        for expect in 0..32 {
            assert_eq!(c.next_on((expect % 4) as usize), expect);
        }
    }

    #[test]
    fn wide_fanout_routes_through_the_overflow_table() {
        // one 3-in/3-out balancer feeding three counters
        let mut b = TopologyBuilder::new();
        let n = b.add_node(3, 3);
        for port in 0..3 {
            b.add_input(n, port).unwrap();
            b.connect_counter(n, port, port).unwrap();
        }
        let net = b.finalize().unwrap();
        let c = NetworkCounter::with_kind(&net, BalancerKind::WaitFree);
        assert!(matches!(c.plan, Plan::Wide(_)));
        let values: Vec<u64> = (0..9).map(|i| c.next_on((i % 3) as usize)).collect();
        assert_eq!(values, (0..9).collect::<Vec<u64>>());
        assert_eq!(c.output_counts(), vec![3, 3, 3]);
    }

    #[test]
    fn locked_and_diffracting_plans_count_sequentially() {
        let net = constructions::bitonic(4).unwrap();
        for kind in [
            BalancerKind::Locked,
            BalancerKind::Diffracting { slots: 2, spin: 8 },
            BalancerKind::Diffracting { slots: 0, spin: 0 },
        ] {
            let c = NetworkCounter::with_kind(&net, kind);
            for expect in 0..40 {
                assert_eq!(c.next_on((expect % 4) as usize), expect, "{kind:?}");
            }
        }
    }

    #[test]
    fn batch_reservations_are_contiguous_and_gap_free() {
        let net = constructions::bitonic(4).unwrap();
        for kind in [
            BalancerKind::WaitFree,
            BalancerKind::Locked,
            BalancerKind::Diffracting { slots: 2, spin: 8 },
        ] {
            let c = NetworkCounter::with_kind(&net, kind);
            // unequal batch sizes: the classic counterexample for a
            // per-counter interval scheme (it would gap); the global
            // allocator hands out exactly 0..total
            let mut values = Vec::new();
            for (i, k) in [2u64, 3, 1, 5, 1, 4].iter().enumerate() {
                let base = c.next_batch_on(i % 4, *k, 0);
                values.extend(base..base + k);
            }
            values.sort_unstable();
            assert_eq!(values, (0..16).collect::<Vec<u64>>(), "{kind:?}");
            // per-counter tallies still sum to every value handed out
            assert_eq!(c.output_counts().iter().sum::<u64>(), 16, "{kind:?}");
        }
    }

    #[test]
    fn solo_batches_count_like_a_sequential_counter() {
        let net = constructions::bitonic(8).unwrap();
        let c = NetworkCounter::with_kind(&net, BalancerKind::WaitFree);
        for expect in 0..64 {
            assert_eq!(c.next_batch_on((expect % 8) as usize, 1, 0), expect);
        }
        // k == 1 everywhere: tallies are exactly the sequential step
        let counts = c.output_counts();
        assert_eq!(counts.iter().sum::<u64>(), 64);
        assert!(counts.iter().all(|&c| c == 8));
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_width_batch_panics() {
        let net = constructions::bitonic(2).unwrap();
        let c = NetworkCounter::with_kind(&net, BalancerKind::WaitFree);
        let _ = c.next_batch_on(0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_range_input_panics() {
        let net = constructions::bitonic(2).unwrap();
        let c = NetworkCounter::with_kind(&net, BalancerKind::WaitFree);
        let _ = c.next_on(2);
    }
}
