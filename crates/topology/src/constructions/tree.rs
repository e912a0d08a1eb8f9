//! The counting tree of Shavit and Zemach's diffracting trees.
//!
//! A counting tree `Tree[w]` is a complete binary tree of 1-in/2-out
//! balancers of depth `log w`. Tokens enter at the root (the network
//! has a single input); the root's first output leads to the subtree
//! whose leaves are the even-numbered counters and its second output to
//! the odd-numbered counters, recursively, which yields the step
//! property on the leaves in every quiescent state.
//!
//! Diffracting trees implement exactly this topology but replace each
//! balancer's toggle bit with a "prism" that lets pairs of tokens
//! *diffract* (one left, one right) without touching the toggle; the
//! quiescent behaviour — and therefore this topology — is identical.

use crate::error::TopologyError;
use crate::topology::{NodeId, Topology, TopologyBuilder};

/// Builds a `d`-ary counting tree: a complete tree of 1-in/`arity`-out
/// balancers of depth `log_d width` — the "uniform trees" of Busch and
/// Mavronicolas the paper's Corollary 3.11 also covers.
///
/// Child `i` of a node owns the counters congruent to `i` modulo the
/// arity (recursively), which gives the step property on the leaves in
/// every quiescent state. [`counting_tree`] is the `arity = 2` case.
///
/// # Errors
///
/// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `arity >= 2`
/// and `width` is a positive power of `arity` with at least one level
/// (the error reuses the power-of-two variant for uniformity of the
/// API; the offending width is reported either way).
///
/// # Example
///
/// ```
/// let tree = cnet_topology::constructions::counting_tree_d(27, 3)?;
/// assert_eq!(tree.depth(), 3);
/// assert_eq!(tree.output_width(), 27);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
pub fn counting_tree_d(width: usize, arity: usize) -> Result<Topology, TopologyError> {
    if arity < 2 || !is_power_of(width, arity) {
        return Err(TopologyError::WidthNotPowerOfTwo { width });
    }
    let mut b = TopologyBuilder::new();
    let root = subtree(&mut b, 0, 1, width, arity)?;
    b.add_input(root, 0)?;
    b.finalize()
}

fn is_power_of(width: usize, arity: usize) -> bool {
    if width < arity {
        return false;
    }
    let mut w = width;
    while w > 1 {
        if !w.is_multiple_of(arity) {
            return false;
        }
        w /= arity;
    }
    true
}

/// Recursively builds the `arity`-ary subtree whose `leaves` leaves
/// feed counters `first`, `first + stride`, `first + 2·stride`, …;
/// child `i` receives the counters at positions congruent to `i` mod
/// `arity`, the progression from `first + i·stride` in steps of
/// `stride·arity`. Returns the subtree root.
fn subtree(
    b: &mut TopologyBuilder,
    first: usize,
    stride: usize,
    leaves: usize,
    arity: usize,
) -> Result<NodeId, TopologyError> {
    debug_assert!(leaves >= arity);
    let node = b.add_node(1, arity);
    for port in 0..arity {
        // the first counter of this port's share
        let share = first + port * stride;
        if leaves == arity {
            b.connect_counter(node, port, share)?;
        } else {
            let child = subtree(b, share, stride * arity, leaves / arity, arity)?;
            b.connect(node, port, child, 0)?;
        }
    }
    Ok(node)
}

/// Builds the counting tree with `width` leaves (output counters).
///
/// The resulting network has one input, `width` outputs, and depth
/// `log width`.
///
/// # Errors
///
/// Returns [`TopologyError::WidthNotPowerOfTwo`] unless `width` is a
/// power of two `>= 2`.
///
/// # Example
///
/// ```
/// let tree = cnet_topology::constructions::counting_tree(8)?;
/// assert_eq!(tree.input_width(), 1);
/// assert_eq!(tree.output_width(), 8);
/// assert_eq!(tree.depth(), 3);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
pub fn counting_tree(width: usize) -> Result<Topology, TopologyError> {
    counting_tree_d(width, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::SequentialRouter;
    use proptest::prelude::*;

    #[test]
    fn tree_shapes() {
        for w in [2usize, 4, 8, 16, 32, 64] {
            let t = counting_tree(w).unwrap();
            assert_eq!(t.depth(), w.trailing_zeros() as usize, "width {w}");
            assert_eq!(t.input_width(), 1);
            assert_eq!(t.output_width(), w);
            assert_eq!(t.node_count(), w - 1, "a binary tree with w leaves");
        }
    }

    #[test]
    fn invalid_widths_rejected() {
        for w in [0usize, 1, 3, 5, 12] {
            assert!(matches!(
                counting_tree(w),
                Err(TopologyError::WidthNotPowerOfTwo { .. })
            ));
        }
    }

    #[test]
    fn sequential_tokens_count_consecutively() {
        let t = counting_tree(8).unwrap();
        let mut r = SequentialRouter::new(&t);
        for expect in 0..40u64 {
            assert_eq!(r.route(0).unwrap().value, expect);
        }
    }

    #[test]
    fn first_token_reaches_counter_zero() {
        for w in [2usize, 4, 8, 16] {
            let t = counting_tree(w).unwrap();
            let mut r = SequentialRouter::new(&t);
            assert_eq!(r.route(0).unwrap().counter, 0);
        }
    }

    #[test]
    fn layers_double_in_size() {
        let t = counting_tree(16).unwrap();
        for l in 1..=t.depth() {
            assert_eq!(t.layer(l).len(), 1 << (l - 1), "layer {l}");
        }
    }

    proptest! {
        #[test]
        fn tree_step_property(width_exp in 1usize..6, tokens in 0usize..300) {
            let w = 1 << width_exp;
            let t = counting_tree(w).unwrap();
            let mut r = SequentialRouter::new(&t);
            for _ in 0..tokens {
                r.route(0).unwrap();
            }
            prop_assert!(r.output_counts().is_step());
            prop_assert_eq!(r.output_counts().total(), tokens as u64);
        }
    }
}

#[cfg(test)]
mod d_ary_tests {
    use super::*;
    use crate::router::SequentialRouter;
    use proptest::prelude::*;

    #[test]
    fn d_ary_shapes() {
        for (w, d, depth, nodes) in [
            (9usize, 3usize, 2usize, 4usize),
            (27, 3, 3, 13),
            (16, 4, 2, 5),
            (64, 4, 3, 21),
            (8, 2, 3, 7),
        ] {
            let t = counting_tree_d(w, d).unwrap();
            assert_eq!(t.depth(), depth, "w={w} d={d}");
            assert_eq!(t.node_count(), nodes, "w={w} d={d}");
            assert_eq!(t.output_width(), w);
            assert_eq!(t.input_width(), 1);
        }
    }

    #[test]
    fn binary_case_matches_counting_tree() {
        let a = counting_tree(16).unwrap();
        let b = counting_tree_d(16, 2).unwrap();
        let mut ra = SequentialRouter::new(&a);
        let mut rb = SequentialRouter::new(&b);
        for _ in 0..50 {
            let pa = ra.route(0).unwrap();
            let pb = rb.route(0).unwrap();
            assert_eq!(pa.value, pb.value);
            assert_eq!(pa.counter, pb.counter);
        }
    }

    #[test]
    fn d_ary_counts_consecutively() {
        let t = counting_tree_d(27, 3).unwrap();
        let mut r = SequentialRouter::new(&t);
        for expect in 0..81u64 {
            assert_eq!(r.route(0).unwrap().value, expect);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(counting_tree_d(9, 1).is_err());
        assert!(counting_tree_d(10, 3).is_err());
        assert!(counting_tree_d(3, 9).is_err());
        assert!(counting_tree_d(0, 2).is_err());
        assert!(counting_tree_d(2, 3).is_err());
    }

    proptest! {
        #[test]
        fn d_ary_step_property(levels in 1usize..4, arity in 2usize..5, tokens in 0usize..200) {
            let w = arity.pow(levels as u32);
            let t = counting_tree_d(w, arity).unwrap();
            let mut r = SequentialRouter::new(&t);
            for _ in 0..tokens {
                r.route(0).unwrap();
            }
            prop_assert!(r.output_counts().is_step());
        }
    }
}
