//! Comparator-network representation used by the recursive
//! constructions.
//!
//! Bitonic and periodic networks are *layered* networks in which every
//! layer pairs up all `w` wires into `w/2` two-input balancers. This
//! module holds such a network as one table of wire pairs, `w/2` slots
//! per layer, that the recursive constructions write each balancer into
//! at its own depth, then *realizes* it as a validated [`Topology`]. A
//! balancer on the pair `(i, j)` routes its first output back onto wire
//! `i` and its second onto wire `j`, so a wire keeps its identity
//! through the whole network; the construction's output ordering is a
//! permutation of wires handed to [`realize`].

use crate::error::TopologyError;
use crate::topology::{NodeId, Topology, TopologyBuilder};

/// A logical wire index, stable through the whole construction.
pub(super) type Wire = usize;

/// A layered pair network under construction: `depth` layers of
/// `width / 2` balancer slots, each layer filled in the order its
/// balancers are written.
#[derive(Debug)]
pub(super) struct Layers {
    half: usize,
    pairs: Vec<(Wire, Wire)>,
    /// Balancers written so far into each layer.
    filled: Vec<usize>,
}

impl Layers {
    /// An empty network of `depth` layers on `width` wires.
    pub(super) fn new(width: usize, depth: usize) -> Self {
        Layers {
            half: width / 2,
            pairs: vec![(0, 0); depth * (width / 2)],
            filled: vec![0; depth],
        }
    }

    /// Writes the balancer on wires `(a, b)` into the next free slot of
    /// `layer` (0-based). Two sub-networks written at the same depth
    /// therefore sit side by side, the one written first first in every
    /// layer they share.
    pub(super) fn put(&mut self, layer: usize, a: Wire, b: Wire) {
        let filled = &mut self.filled[layer];
        debug_assert!(
            *filled < self.half,
            "layer {layer} already covers every wire"
        );
        self.pairs[layer * self.half + *filled] = (a, b);
        *filled += 1;
    }
}

/// Materializes a layered pair network as a validated [`Topology`].
///
/// `width` is the number of wires; `outs` gives, for each network
/// output position `k`, the wire whose final value feeds counter `k`
/// (a permutation of `0..width`).
pub(super) fn realize(
    width: usize,
    layers: &Layers,
    outs: &[Wire],
) -> Result<Topology, TopologyError> {
    debug_assert_eq!(outs.len(), width);
    debug_assert!(
        !layers.filled.is_empty(),
        "a network needs at least one layer"
    );

    let mut b = TopologyBuilder::new();

    // The node currently producing each wire's value, as
    // (node, out_port). A layer uses every wire once, so it is updated
    // in place.
    let mut producer = vec![(NodeId(0), 0); width];
    for (depth, layer) in layers.pairs.chunks(layers.half).enumerate() {
        debug_assert_eq!(
            layers.filled[depth], layers.half,
            "layer {depth} must cover every wire exactly once"
        );
        for &(wa, wb) in layer {
            let node = b.add_node(2, 2);
            for (port, wire) in [(0usize, wa), (1usize, wb)] {
                if depth > 0 {
                    let (src, src_port) = producer[wire];
                    b.connect(src, src_port, node, port)?;
                }
                producer[wire] = (node, port);
            }
        }
        if depth == 0 {
            // Declare network inputs x_0..x_{w-1} in wire order: layer
            // 1 takes each wire in on the port it sends it out of.
            for &(node, port) in &producer {
                b.add_input(node, port)?;
            }
        }
    }

    for (k, &wire) in outs.iter().enumerate() {
        let (node, port) = producer[wire];
        b.connect_counter(node, port, k)?;
    }

    b.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realize_single_layer() {
        let mut layers = Layers::new(4, 1);
        layers.put(0, 0, 1);
        layers.put(0, 2, 3);
        let t = realize(4, &layers, &[0, 1, 2, 3]).unwrap();
        assert_eq!(t.depth(), 1);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.input_width(), 4);
        assert_eq!(t.output_width(), 4);
    }

    #[test]
    fn realize_respects_output_permutation() {
        use crate::router::SequentialRouter;
        let mut layers = Layers::new(2, 1);
        layers.put(0, 0, 1);
        // counters swapped relative to wires: out0 <- wire 1, out1 <- wire 0
        let t = realize(2, &layers, &[1, 0]).unwrap();
        let mut r = SequentialRouter::new(&t);
        // the balancer's first token leaves on its port 0 = wire 0,
        // which now feeds counter 1
        let p = r.route(0).unwrap();
        assert_eq!(p.counter, 1);
    }

    #[test]
    fn sub_networks_at_one_depth_sit_side_by_side_in_write_order() {
        // two 2-layer halves written at depth 0, the lower half first
        let mut layers = Layers::new(4, 2);
        for half in [[2, 3], [0, 1]] {
            layers.put(0, half[0], half[1]);
            layers.put(1, half[0], half[1]);
        }
        let t = realize(4, &layers, &[0, 1, 2, 3]).unwrap();
        for l in 1..=2 {
            assert_eq!(t.layer(l).len(), 2);
        }
        // the lower half's balancers come first in each layer, so they
        // get the lower node ids
        assert_eq!(t.input(2).node, NodeId(0));
        assert_eq!(t.input(0).node, NodeId(1));
    }
}
