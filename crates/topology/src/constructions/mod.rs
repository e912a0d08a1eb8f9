//! Constructions of the counting networks studied in the paper.
//!
//! * [`bitonic`] / [`merger`] — Aspnes–Herlihy–Shavit bitonic counting
//!   network `Bitonic[w]` of depth `log w (log w + 1) / 2` and its
//!   merging network `Merger[w]` of depth `log w`.
//! * [`periodic`] / [`block`] — the AHS periodic counting network of
//!   depth `(log w)^2` built from `log w` copies of `Block[w]`.
//! * [`counting_tree`] — the counting-tree shape underlying diffracting
//!   trees (Shavit–Zemach): a binary tree of 1-in/2-out balancers of
//!   depth `log w`.
//! * [`single_balancer`] — the width-2 network of the paper's
//!   introductory example.
//! * [`by_name`] — any of the above from its command-line name.
//! * [`pad_inputs`] / [`linearizing_prefix`] — Corollary 3.12: prefix
//!   every input with a path of 1-in/1-out balancers so that the padded
//!   network is linearizable whenever `c2 < k·c1`.
//!
//! All constructions produce validated, uniform [`Topology`] values.

mod comparator;
mod compose;
mod prefix;
mod tree;

pub use compose::compose;
pub use prefix::{linearizing_prefix, pad_inputs};
pub use tree::{counting_tree, counting_tree_d};

use crate::error::TopologyError;
use crate::topology::{Topology, TopologyBuilder};

use comparator::{Layers, Wire};

/// The width-2 counting network of the paper's introduction: a single
/// 2-in/2-out balancer feeding two counters.
///
/// # Example
///
/// ```
/// let net = cnet_topology::constructions::single_balancer();
/// assert_eq!(net.depth(), 1);
/// ```
#[must_use]
pub fn single_balancer() -> Topology {
    let mut b = TopologyBuilder::new();
    let n = b.add_node(2, 2);
    b.add_input(n, 0).expect("fresh node");
    b.add_input(n, 1).expect("fresh node");
    b.connect_counter(n, 0, 0).expect("fresh node");
    b.connect_counter(n, 1, 1).expect("fresh node");
    b.finalize()
        .expect("single balancer is a valid uniform network")
}

/// Builds the construction a CLI argument or scenario file names:
/// `bitonic`, `periodic`, `tree` (of the given `arity`; 2 is the
/// binary [`counting_tree`]), `merger`, `block`, or `single` (which
/// ignores `width`).
///
/// # Errors
///
/// Returns [`TopologyError::UnknownKind`] for any other name, and the
/// named construction's own error for a width it cannot take.
///
/// # Example
///
/// ```
/// let net = cnet_topology::constructions::by_name("tree", 9, 3)?;
/// assert_eq!(net.output_width(), 9);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
pub fn by_name(kind: &str, width: usize, arity: usize) -> Result<Topology, TopologyError> {
    match kind {
        "bitonic" => bitonic(width),
        "periodic" => periodic(width),
        "tree" if arity == 2 => counting_tree(width),
        "tree" => counting_tree_d(width, arity),
        "merger" => merger(width),
        "block" => block(width),
        "single" => Ok(single_balancer()),
        other => Err(TopologyError::UnknownKind {
            kind: other.to_string(),
        }),
    }
}

/// Checks a width argument is a power of two at least 2.
fn check_width(width: usize) -> Result<(), TopologyError> {
    if width < 2 || !width.is_power_of_two() {
        return Err(TopologyError::WidthNotPowerOfTwo { width });
    }
    Ok(())
}

/// The depth of `Bitonic[width]`: `log w (log w + 1) / 2`.
fn bitonic_depth(width: usize) -> usize {
    let lg = width.trailing_zeros() as usize;
    lg * (lg + 1) / 2
}

/// Builds `Bitonic[width]`, the bitonic counting network of Aspnes,
/// Herlihy, and Shavit.
///
/// `Bitonic[w]` has `w` inputs, `w` outputs, and depth
/// `log w (log w + 1) / 2`.
///
/// # Errors
///
/// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is a
/// power of two `>= 2`.
///
/// # Example
///
/// ```
/// let net = cnet_topology::constructions::bitonic(16)?;
/// assert_eq!(net.depth(), 10);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
pub fn bitonic(width: usize) -> Result<Topology, TopologyError> {
    check_width(width)?;
    let mut layers = Layers::new(width, bitonic_depth(width));
    let mut wires: Vec<Wire> = (0..width).collect();
    bitonic_rec(&mut wires, &mut vec![0; width], 0, &mut layers);
    comparator::realize(width, &layers, &wires)
}

/// Recursively writes the balancers of `Bitonic[len(wires)]` on the
/// given wires into `layers` from layer `at` on, and leaves `wires` in
/// the sub-network's output order. `scratch` is at least as long as
/// `wires`.
fn bitonic_rec(wires: &mut [Wire], scratch: &mut [Wire], at: usize, layers: &mut Layers) {
    let w = wires.len();
    if w == 1 {
        return;
    }
    let (lo, hi) = wires.split_at_mut(w / 2);
    bitonic_rec(lo, scratch, at, layers);
    bitonic_rec(hi, scratch, at, layers);
    merger_rec(wires, scratch, at + bitonic_depth(w / 2), layers);
}

/// Builds the merging network `Merger[width]` as a standalone topology.
///
/// `Merger[w]` has depth `log w`; it merges two step sequences (its
/// first and second `w/2` inputs) into one. As a balancing network it
/// is not by itself a counting network, but it is uniform and useful
/// for testing the bitonic recursion.
///
/// # Errors
///
/// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is a
/// power of two `>= 2`.
pub fn merger(width: usize) -> Result<Topology, TopologyError> {
    check_width(width)?;
    let mut layers = Layers::new(width, width.trailing_zeros() as usize);
    let mut wires: Vec<Wire> = (0..width).collect();
    merger_rec(&mut wires, &mut vec![0; width], 0, &mut layers);
    comparator::realize(width, &layers, &wires)
}

/// Recursively writes the balancers of `Merger[len(wires)]` from layer
/// `at` on, leaving `wires` in the merger's output order.
///
/// For `w > 2` the construction follows the paper's Figure 4 / the AHS
/// recursion: `Merger_1[w/2]` merges the even-indexed wires of the
/// first half with the odd-indexed wires of the second half,
/// `Merger_2[w/2]` the remaining wires; a final row of `w/2` balancers
/// combines output `i` of each sub-merger into outputs `2i`, `2i + 1`.
fn merger_rec(wires: &mut [Wire], scratch: &mut [Wire], at: usize, layers: &mut Layers) {
    let w = wires.len();
    debug_assert!(w >= 2 && w.is_power_of_two());
    if w == 2 {
        layers.put(at, wires[0], wires[1]);
        return;
    }
    let h = w / 2;
    scratch[..w].copy_from_slice(wires);
    let (x, xp) = scratch[..w].split_at(h);
    let m_in = even(x).chain(odd(xp)).chain(odd(x)).chain(even(xp));
    for (slot, wire) in wires.iter_mut().zip(m_in) {
        *slot = wire;
    }
    let (m1, m2) = wires.split_at_mut(h);
    merger_rec(m1, scratch, at, layers);
    merger_rec(m2, scratch, at, layers);
    // `wires` now holds z, the first sub-merger's outputs, then z'
    scratch[..w].copy_from_slice(wires);
    let last = at + h.trailing_zeros() as usize;
    for i in 0..h {
        let (z, zp) = (scratch[i], scratch[h + i]);
        layers.put(last, z, zp);
        wires[2 * i] = z;
        wires[2 * i + 1] = zp;
    }
}

/// Builds the periodic counting network of Aspnes, Herlihy, and Shavit:
/// `log width` consecutive copies of [`block`], total depth
/// `(log width)^2`.
///
/// # Errors
///
/// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is a
/// power of two `>= 2`.
///
/// # Example
///
/// ```
/// let net = cnet_topology::constructions::periodic(8)?;
/// assert_eq!(net.depth(), 9);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
pub fn periodic(width: usize) -> Result<Topology, TopologyError> {
    blocks(width, width.trailing_zeros() as usize)
}

/// Builds a single `Block[width]` network (depth `log width`) as a
/// standalone topology. One block is *not* a counting network; the
/// periodic network chains `log width` of them.
///
/// # Errors
///
/// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is a
/// power of two `>= 2`.
pub fn block(width: usize) -> Result<Topology, TopologyError> {
    blocks(width, 1)
}

/// `rounds` consecutive copies of `Block[width]`. A block leaves every
/// wire where it found it, so the outputs are the wires in order.
fn blocks(width: usize, rounds: usize) -> Result<Topology, TopologyError> {
    check_width(width)?;
    let lg = width.trailing_zeros() as usize;
    let mut layers = Layers::new(width, rounds * lg);
    for round in 0..rounds {
        block_rec(0, width, round * lg, &mut layers);
    }
    let wires: Vec<Wire> = (0..width).collect();
    comparator::realize(width, &layers, &wires)
}

/// Recursively writes the balancers of `Block[w]` on wires
/// `first..first + w` from layer `at` on — the *balanced* block of
/// Dowd, Perl, Rudolph, and Saks that the AHS periodic network is
/// built from: a reflection layer pairing wire `i` with wire
/// `w - 1 - i`, followed by two parallel `Block[w/2]` networks on the
/// two halves.
fn block_rec(first: Wire, w: usize, at: usize, layers: &mut Layers) {
    debug_assert!(w >= 2 && w.is_power_of_two());
    for i in 0..w / 2 {
        layers.put(at, first + i, first + w - 1 - i);
    }
    if w > 2 {
        block_rec(first, w / 2, at + 1, layers);
        block_rec(first + w / 2, w / 2, at + 1, layers);
    }
}

fn even(xs: &[Wire]) -> impl Iterator<Item = Wire> + '_ {
    xs.iter().step_by(2).copied()
}

fn odd(xs: &[Wire]) -> impl Iterator<Item = Wire> + '_ {
    xs.iter().skip(1).step_by(2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::SequentialRouter;
    use proptest::prelude::*;

    fn expected_bitonic_depth(w: usize) -> usize {
        let lg = w.trailing_zeros() as usize;
        lg * (lg + 1) / 2
    }

    #[test]
    fn by_name_builds_each_kind_and_names_an_unknown_one() {
        let text = |net: Result<Topology, TopologyError>| crate::io::to_text(&net.unwrap());
        assert_eq!(text(by_name("bitonic", 8, 2)), text(bitonic(8)));
        assert_eq!(text(by_name("periodic", 8, 2)), text(periodic(8)));
        assert_eq!(text(by_name("tree", 8, 2)), text(counting_tree(8)));
        assert_eq!(text(by_name("tree", 9, 3)), text(counting_tree_d(9, 3)));
        assert_eq!(text(by_name("merger", 8, 2)), text(merger(8)));
        assert_eq!(text(by_name("block", 8, 2)), text(block(8)));
        assert_eq!(text(by_name("single", 0, 2)), text(Ok(single_balancer())));
        assert_eq!(
            by_name("bitonic", 6, 2).unwrap_err(),
            TopologyError::WidthNotPowerOfTwo { width: 6 }
        );
        let err = by_name("torus", 8, 2).unwrap_err();
        assert!(err.to_string().contains("`torus`"), "{err}");
    }

    #[test]
    fn bitonic_shapes() {
        for w in [2usize, 4, 8, 16, 32] {
            let net = bitonic(w).unwrap();
            assert_eq!(net.input_width(), w, "width {w}");
            assert_eq!(net.output_width(), w, "width {w}");
            assert_eq!(net.depth(), expected_bitonic_depth(w), "width {w}");
            // Bitonic[w] has w/2 balancers per layer
            for l in 1..=net.depth() {
                assert_eq!(net.layer(l).len(), w / 2, "width {w} layer {l}");
            }
        }
    }

    #[test]
    fn merger_shapes() {
        for w in [2usize, 4, 8, 16] {
            let net = merger(w).unwrap();
            assert_eq!(net.depth(), w.trailing_zeros() as usize, "width {w}");
            assert_eq!(net.input_width(), w);
            assert_eq!(net.output_width(), w);
        }
    }

    #[test]
    fn periodic_shapes() {
        for w in [2usize, 4, 8, 16] {
            let net = periodic(w).unwrap();
            let lg = w.trailing_zeros() as usize;
            assert_eq!(net.depth(), lg * lg, "width {w}");
        }
    }

    #[test]
    fn block_shape() {
        let net = block(8).unwrap();
        assert_eq!(net.depth(), 3);
    }

    #[test]
    fn invalid_widths_rejected() {
        for w in [0usize, 1, 3, 6, 12] {
            assert!(matches!(
                bitonic(w),
                Err(TopologyError::WidthNotPowerOfTwo { .. })
            ));
            assert!(matches!(
                periodic(w),
                Err(TopologyError::WidthNotPowerOfTwo { .. })
            ));
        }
    }

    /// The defining property: in any quiescent state (here: after
    /// routing any token mix sequentially) the output counts form a
    /// step.
    #[test]
    fn bitonic_step_property_uneven_inputs() {
        let net = bitonic(8).unwrap();
        let mut r = SequentialRouter::new(&net);
        // all tokens on input 0
        for _ in 0..13 {
            r.route(0).unwrap();
        }
        assert!(r.output_counts().is_step(), "{}", r.output_counts());
        // then a burst on input 5
        for _ in 0..29 {
            r.route(5).unwrap();
        }
        assert!(r.output_counts().is_step(), "{}", r.output_counts());
    }

    #[test]
    fn periodic_step_property_uneven_inputs() {
        let net = periodic(8).unwrap();
        let mut r = SequentialRouter::new(&net);
        for i in 0..37 {
            r.route((i * 3) % 8).unwrap();
        }
        assert!(r.output_counts().is_step(), "{}", r.output_counts());
    }

    /// Lemma 4.2(b): after a solo token through input x0 exits on y0,
    /// the next two tokens through x0 exit on y1 and y2 (mod w).
    #[test]
    fn bitonic_lemma_4_2_exit_pattern() {
        for w in [2usize, 4, 8, 16, 32] {
            let net = bitonic(w).unwrap();
            let mut r = SequentialRouter::new(&net);
            let t0 = r.route(0).unwrap();
            let t1 = r.route(0).unwrap();
            let t2 = r.route(0).unwrap();
            assert_eq!(t0.counter, 0, "width {w}");
            assert_eq!(t1.counter, 1 % w, "width {w}");
            assert_eq!(t2.counter, 2 % w, "width {w}");
        }
    }

    /// Lemma 4.2(a): T1 and T2 (the two tokens after the solo token)
    /// share only their entry balancer.
    #[test]
    fn bitonic_lemma_4_2_disjoint_paths() {
        for w in [4usize, 8, 16, 32] {
            let net = bitonic(w).unwrap();
            let mut r = SequentialRouter::new(&net);
            let _t0 = r.route(0).unwrap();
            let t1 = r.route(0).unwrap();
            let t2 = r.route(0).unwrap();
            let shared: Vec<_> = t1
                .hops
                .iter()
                .filter(|(n, _)| t2.hops.iter().any(|(m, _)| m == n))
                .collect();
            assert_eq!(
                shared.len(),
                1,
                "width {w}: share exactly the entry balancer"
            );
            assert_eq!(shared[0].0, net.input(0).node, "width {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Quiescent step property for bitonic networks over random
        /// token placements.
        #[test]
        fn bitonic_counts_any_distribution(
            width_exp in 1usize..5,
            tokens in proptest::collection::vec(0usize..32, 0..200),
        ) {
            let w = 1 << width_exp;
            let net = bitonic(w).unwrap();
            let mut r = SequentialRouter::new(&net);
            for t in &tokens {
                r.route(t % w).unwrap();
            }
            prop_assert!(r.output_counts().is_step());
            prop_assert_eq!(r.output_counts().total(), tokens.len() as u64);
        }

        /// Same for the periodic network.
        #[test]
        fn periodic_counts_any_distribution(
            width_exp in 1usize..4,
            tokens in proptest::collection::vec(0usize..32, 0..150),
        ) {
            let w = 1 << width_exp;
            let net = periodic(w).unwrap();
            let mut r = SequentialRouter::new(&net);
            for t in &tokens {
                r.route(t % w).unwrap();
            }
            prop_assert!(r.output_counts().is_step());
        }

        /// Sequential tokens through any counting network return the
        /// consecutive values 0, 1, 2, ... regardless of entry inputs.
        #[test]
        fn sequential_routing_counts_consecutively(
            width_exp in 1usize..5,
            tokens in proptest::collection::vec(0usize..32, 1..100),
        ) {
            let w = 1 << width_exp;
            let net = bitonic(w).unwrap();
            let mut r = SequentialRouter::new(&net);
            for (i, t) in tokens.iter().enumerate() {
                let v = r.route(t % w).unwrap().value;
                prop_assert_eq!(v, i as u64);
            }
        }
    }
}

/// A degenerate "network" with a single line of `depth` unary
/// balancers feeding one counter — the model of a *centralized*
/// counter (every token serializes through the same nodes).
///
/// Useful as the baseline the paper's introduction contrasts counting
/// networks against: it is trivially linearizable (one counter, FIFO
/// arrival order) but a sequential bottleneck.
///
/// # Panics
///
/// Panics if `depth` is zero.
#[must_use]
pub fn serial_line(depth: usize) -> Topology {
    assert!(depth > 0, "a network needs at least one layer");
    let mut b = TopologyBuilder::new();
    let head = b.add_node(1, 1);
    let mut tail = head;
    for _ in 1..depth {
        let next = b.add_node(1, 1);
        b.connect(tail, 0, next, 0).expect("fresh nodes");
        tail = next;
    }
    b.connect_counter(tail, 0, 0).expect("fresh node");
    b.add_input(head, 0).expect("fresh node");
    b.finalize().expect("a line is a valid uniform network")
}

#[cfg(test)]
mod serial_line_tests {
    use super::*;
    use crate::router::SequentialRouter;

    #[test]
    fn shape_and_counting() {
        let net = serial_line(3);
        assert_eq!(net.depth(), 3);
        assert_eq!(net.input_width(), 1);
        assert_eq!(net.output_width(), 1);
        let mut r = SequentialRouter::new(&net);
        for expect in 0..10u64 {
            assert_eq!(r.route(0).unwrap().value, expect);
        }
    }

    #[test]
    fn single_node_line() {
        let net = serial_line(1);
        assert_eq!(net.depth(), 1);
        assert_eq!(net.node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_depth_panics() {
        let _ = serial_line(0);
    }
}
