//! The immutable wiring graph of a balancing network.
//!
//! A [`Topology`] records balancing nodes, the wires between their
//! ports, the network inputs, and the output counters. Construction
//! goes through [`TopologyBuilder`], whose [`TopologyBuilder::finalize`]
//! validates the structural invariants the paper's analysis requires:
//!
//! * every node input port is driven exactly once (by a wire or a
//!   network input), every node output port and counter is wired
//!   exactly once;
//! * the wiring is acyclic;
//! * the network is **uniform** (Definition 2.1): every node lies on a
//!   path from inputs to outputs and all input-to-output paths have
//!   equal length. Consequently every node belongs to a unique *layer*
//!   and the network has a well-defined *depth* `h` — the number of
//!   links between an input node and an output counter.

use std::fmt;
use std::ops::Range;

use crate::error::TopologyError;

/// Identifier of a balancing node within one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in the topology's node list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A reference to one port (input or output) of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The node owning the port.
    pub node: NodeId,
    /// The port index within the node.
    pub port: usize,
}

/// Where a node's output wire terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireEnd {
    /// The wire feeds input `port` of `node`.
    Node {
        /// Destination node.
        node: NodeId,
        /// Destination input port.
        port: usize,
    },
    /// The wire feeds the atomic output counter with this index.
    Counter {
        /// Destination counter index (the network output `Y_index`).
        index: usize,
    },
}

/// Incremental builder for a [`Topology`].
///
/// # Example
///
/// Build the paper's introductory width-2 network: one balancer feeding
/// two counters.
///
/// ```
/// use cnet_topology::TopologyBuilder;
///
/// let mut b = TopologyBuilder::new();
/// let bal = b.add_node(2, 2);
/// b.add_input(bal, 0)?;
/// b.add_input(bal, 1)?;
/// b.connect_counter(bal, 0, 0)?;
/// b.connect_counter(bal, 1, 1)?;
/// let net = b.finalize()?;
/// assert_eq!(net.depth(), 1);
/// assert_eq!(net.output_width(), 2);
/// # Ok::<(), cnet_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct TopologyBuilder {
    /// Per node, the index of its first output port in `outputs`, then
    /// one past the last node's: node `i` owns
    /// `outputs[out_start[i]..out_start[i + 1]]`.
    out_start: Vec<usize>,
    /// The same offsets into `driven`, for input ports.
    in_start: Vec<usize>,
    /// Wire target per output port; `None` while building.
    outputs: Vec<Option<WireEnd>>,
    /// Whether each input port has been driven; used for validation.
    driven: Vec<bool>,
    inputs: Vec<PortRef>,
    /// Which counter indices have been wired.
    counters: Vec<bool>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            out_start: vec![0],
            in_start: vec![0],
            outputs: Vec::new(),
            driven: Vec::new(),
            inputs: Vec::new(),
            counters: Vec::new(),
        }
    }
}

impl TopologyBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a balancing node with the given fan-in and fan-out,
    /// returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in` or `fan_out` is zero.
    pub fn add_node(&mut self, fan_in: usize, fan_out: usize) -> NodeId {
        assert!(fan_in > 0, "node fan-in must be positive");
        assert!(fan_out > 0, "node fan-out must be positive");
        let id = NodeId(self.out_start.len() - 1);
        self.outputs.resize(self.outputs.len() + fan_out, None);
        self.driven.resize(self.driven.len() + fan_in, false);
        self.out_start.push(self.outputs.len());
        self.in_start.push(self.driven.len());
        id
    }

    /// Declares input `port` of `node` to be a network input.
    ///
    /// Network inputs are numbered in declaration order: the first call
    /// creates network input `x_0`, the second `x_1`, and so on.
    ///
    /// # Errors
    ///
    /// Returns an error if the node or port does not exist or the port
    /// is already driven.
    pub fn add_input(&mut self, node: NodeId, port: usize) -> Result<usize, TopologyError> {
        let slot = self.in_port(node, port)?;
        self.drive_input(node, port, slot)?;
        self.inputs.push(PortRef { node, port });
        Ok(self.inputs.len() - 1)
    }

    /// Wires output `out_port` of `from` to input `in_port` of `to`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist, the output is
    /// already wired, or the input is already driven.
    pub fn connect(
        &mut self,
        from: NodeId,
        out_port: usize,
        to: NodeId,
        in_port: usize,
    ) -> Result<(), TopologyError> {
        let out_slot = self.out_port(from, out_port)?;
        let in_slot = self.in_port(to, in_port)?;
        self.wire_output(
            from,
            out_port,
            out_slot,
            WireEnd::Node {
                node: to,
                port: in_port,
            },
        )?;
        self.drive_input(to, in_port, in_slot)
    }

    /// Wires output `out_port` of `from` to output counter `counter`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node or port does not exist, the output
    /// is already wired, or the counter is already driven.
    pub fn connect_counter(
        &mut self,
        from: NodeId,
        out_port: usize,
        counter: usize,
    ) -> Result<(), TopologyError> {
        let slot = self.out_port(from, out_port)?;
        if counter >= self.counters.len() {
            self.counters.resize(counter + 1, false);
        }
        if self.counters[counter] {
            return Err(TopologyError::CounterAlreadyDriven { counter });
        }
        self.wire_output(from, out_port, slot, WireEnd::Counter { index: counter })?;
        self.counters[counter] = true;
        Ok(())
    }

    /// The index of `port` in a flat port table whose per-node offsets
    /// are `starts`.
    fn port_slot(starts: &[usize], node: NodeId, port: usize) -> Result<usize, TopologyError> {
        let (Some(&first), Some(&end)) = (starts.get(node.0), starts.get(node.0 + 1)) else {
            return Err(TopologyError::UnknownNode { node });
        };
        if port >= end - first {
            return Err(TopologyError::PortOutOfRange {
                node,
                port,
                available: end - first,
            });
        }
        Ok(first + port)
    }

    fn in_port(&self, node: NodeId, port: usize) -> Result<usize, TopologyError> {
        Self::port_slot(&self.in_start, node, port)
    }

    fn out_port(&self, node: NodeId, port: usize) -> Result<usize, TopologyError> {
        Self::port_slot(&self.out_start, node, port)
    }

    fn wire_output(
        &mut self,
        node: NodeId,
        port: usize,
        slot: usize,
        end: WireEnd,
    ) -> Result<(), TopologyError> {
        let slot = &mut self.outputs[slot];
        if slot.is_some() {
            return Err(TopologyError::OutputAlreadyWired { node, port });
        }
        *slot = Some(end);
        Ok(())
    }

    fn drive_input(&mut self, node: NodeId, port: usize, slot: usize) -> Result<(), TopologyError> {
        let slot = &mut self.driven[slot];
        if *slot {
            return Err(TopologyError::InputAlreadyDriven { node, port });
        }
        *slot = true;
        Ok(())
    }

    /// Validates the wiring and produces an immutable [`Topology`].
    ///
    /// # Errors
    ///
    /// Returns an error if any port or counter is dangling, the graph is
    /// cyclic, or the network is not uniform (Definition 2.1).
    pub fn finalize(self) -> Result<Topology, TopologyError> {
        if self.inputs.is_empty() {
            return Err(TopologyError::NoInputs);
        }
        if self.counters.is_empty() {
            return Err(TopologyError::NoOutputs);
        }
        if let Some(c) = self.counters.iter().position(|wired| !wired) {
            return Err(TopologyError::UnwiredCounter { counter: c });
        }
        for i in 0..self.out_start.len() - 1 {
            let node = NodeId(i);
            if let Some(p) = self.driven[span(&self.in_start, i)].iter().position(|d| !d) {
                return Err(TopologyError::UndrivenInput { node, port: p });
            }
            let outputs = &self.outputs[span(&self.out_start, i)];
            if let Some(p) = outputs.iter().position(Option::is_none) {
                return Err(TopologyError::UnwiredOutput { node, port: p });
            }
        }
        let outputs: Vec<WireEnd> = self.outputs.into_iter().flatten().collect();

        let node_layer = assign_layers(&self.out_start, &outputs, &self.inputs).map_err(|e| {
            if is_cyclic(&self.out_start, &outputs) {
                TopologyError::Cyclic
            } else {
                e
            }
        })?;
        let depth = check_uniformity(&self.out_start, &outputs, &node_layer)?;

        // Counting sort by layer, stable in node id: layer `l` ends up
        // in `layer_nodes[layer_start[l - 1]..layer_start[l]]`.
        let mut layer_start = vec![0; depth + 1];
        for &l in &node_layer {
            layer_start[l - 1] += 1;
        }
        for l in 1..depth {
            layer_start[l] += layer_start[l - 1];
        }
        let mut layer_nodes = vec![NodeId(0); node_layer.len()];
        for (i, &l) in node_layer.iter().enumerate().rev() {
            layer_start[l - 1] -= 1;
            layer_nodes[layer_start[l - 1]] = NodeId(i);
        }
        layer_start[depth] = node_layer.len();

        Ok(Topology {
            out_start: self.out_start,
            in_start: self.in_start,
            outputs,
            inputs: self.inputs,
            output_width: self.counters.len(),
            node_layer,
            layer_nodes,
            layer_start,
        })
    }
}

/// The ports of node `i` in a flat port table whose per-node offsets
/// are `starts`.
fn span(starts: &[usize], i: usize) -> Range<usize> {
    starts[i]..starts[i + 1]
}

/// Assigns a 1-based layer to every node: input nodes are layer 1 and a
/// wire always goes from layer `i` to layer `i + 1`. Fails if a node is
/// unreachable or reachable at two different distances
/// (non-uniformity), which every cycle causes: a layering that succeeds
/// has none, so [`is_cyclic`] is asked only when this fails.
fn assign_layers(
    out_start: &[usize],
    outputs: &[WireEnd],
    inputs: &[PortRef],
) -> Result<Vec<usize>, TopologyError> {
    let nodes = out_start.len() - 1;
    // 0 until the node is reached
    let mut layer = vec![0; nodes];
    let mut queue: Vec<usize> = Vec::with_capacity(nodes);
    for pr in inputs {
        match layer[pr.node.0] {
            0 => {
                layer[pr.node.0] = 1;
                queue.push(pr.node.0);
            }
            1 => {} // several network inputs on the same node is fine
            _ => unreachable!("input node already at deeper layer before BFS"),
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let lu = layer[u];
        for out in &outputs[span(out_start, u)] {
            if let WireEnd::Node { node: v, .. } = *out {
                match layer[v.0] {
                    0 => {
                        layer[v.0] = lu + 1;
                        queue.push(v.0);
                    }
                    lv if lv == lu + 1 => {}
                    lv => {
                        return Err(TopologyError::NotUniform {
                            detail: format!(
                                "node {v} reachable at distances {} and {}",
                                lv,
                                lu + 1
                            ),
                        });
                    }
                }
            }
        }
    }
    if let Some(i) = layer.iter().position(|&l| l == 0) {
        return Err(TopologyError::NotUniform {
            detail: format!("node n{i} is not reachable from any input"),
        });
    }
    Ok(layer)
}

/// Whether the wiring has a cycle, by Kahn's pass over every node:
/// peeling in-degree-zero nodes leaves exactly the nodes on or behind a
/// cycle.
fn is_cyclic(out_start: &[usize], outputs: &[WireEnd]) -> bool {
    let nodes = out_start.len() - 1;
    let mut in_degree = vec![0usize; nodes];
    for out in outputs {
        if let WireEnd::Node { node, .. } = *out {
            in_degree[node.0] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..nodes).filter(|&u| in_degree[u] == 0).collect();
    let mut peeled = 0;
    while let Some(u) = ready.pop() {
        peeled += 1;
        for out in &outputs[span(out_start, u)] {
            if let WireEnd::Node { node: v, .. } = *out {
                in_degree[v.0] -= 1;
                if in_degree[v.0] == 0 {
                    ready.push(v.0);
                }
            }
        }
    }
    peeled < nodes
}

/// Checks that all counters hang off last-layer nodes (equal-length
/// paths to outputs) and every input node is at layer 1. Returns the
/// network depth `h` = number of links from an input node to a counter,
/// which equals the number of balancer layers.
fn check_uniformity(
    out_start: &[usize],
    outputs: &[WireEnd],
    layers: &[usize],
) -> Result<usize, TopologyError> {
    let depth = *layers.iter().max().expect("at least one node");
    for (i, &l) in layers.iter().enumerate() {
        for out in &outputs[span(out_start, i)] {
            match *out {
                WireEnd::Counter { index } => {
                    if l != depth {
                        return Err(TopologyError::NotUniform {
                            detail: format!(
                                "counter {index} attached to node n{i} at layer {l}, \
                                 but the deepest layer is {depth}"
                            ),
                        });
                    }
                }
                WireEnd::Node { .. } => {
                    if l == depth {
                        return Err(TopologyError::NotUniform {
                            detail: format!(
                                "node n{i} at the deepest layer {depth} feeds another node"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(depth)
}

/// An immutable, validated balancing-network wiring graph.
///
/// See the [module documentation](self) for the invariants a `Topology`
/// upholds. Use [`crate::router::SequentialRouter`] to actually route
/// tokens, or the timed executor in the `cnet-timing` crate for timed
/// executions.
#[derive(Debug, Clone)]
pub struct Topology {
    // Flat tables, so a clone is a handful of array copies: node `i`'s
    // output wires are `outputs[out_start[i]..out_start[i + 1]]`, its
    // fan-in is `in_start[i + 1] - in_start[i]`, and layer `l` is
    // `layer_nodes[layer_start[l - 1]..layer_start[l]]`.
    out_start: Vec<usize>,
    in_start: Vec<usize>,
    outputs: Vec<WireEnd>,
    inputs: Vec<PortRef>,
    output_width: usize,
    node_layer: Vec<usize>,
    layer_nodes: Vec<NodeId>,
    layer_start: Vec<usize>,
}

impl Topology {
    /// The number of network inputs `v` (ports on which tokens enter).
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.inputs.len()
    }

    /// The number of output counters `w`.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// The network depth `h`: the number of links between an input node
    /// and an output counter (equivalently, the number of balancer
    /// layers).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layer_start.len() - 1
    }

    /// The number of balancing nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_layer.len()
    }

    /// Builds `count` equal bitonic networks of output width `width` —
    /// the shard array behind a sharded counter frontend, in one call
    /// instead of hand-built narrow nets at every use site. The network
    /// is built once and cloned.
    ///
    /// Returns [`TopologyError::NoShards`] when `count == 0` and
    /// [`TopologyError::WidthNotPowerOfTwo`] unless `width` is a power
    /// of two `>= 2` (each shard is a full counting network of its
    /// own).
    ///
    /// # Example
    ///
    /// ```
    /// // four width-4 shards race one width-16 network at equal
    /// // total width
    /// let shards = cnet_topology::Topology::shards(4, 4)?;
    /// assert_eq!(shards.len(), 4);
    /// assert_eq!(shards.iter().map(|t| t.output_width()).sum::<usize>(), 16);
    /// # Ok::<(), cnet_topology::TopologyError>(())
    /// ```
    pub fn shards(width: usize, count: usize) -> Result<Vec<Topology>, TopologyError> {
        if count == 0 {
            return Err(TopologyError::NoShards);
        }
        Ok(vec![crate::constructions::bitonic(width)?; count])
    }

    /// The 1-based layer of `node` (Definition: layer `i` holds the
    /// nodes at distance `i - 1` links from the inputs).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this topology.
    #[must_use]
    pub fn layer_of(&self, node: NodeId) -> usize {
        self.node_layer[node.0]
    }

    /// The nodes of layer `i` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or greater than [`Self::depth`].
    #[must_use]
    pub fn layer(&self, layer: usize) -> &[NodeId] {
        &self.layer_nodes[self.layer_start[layer - 1]..self.layer_start[layer]]
    }

    /// The `(node, in_port)` pair behind network input `x_input`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= input_width()`.
    #[must_use]
    pub fn input(&self, input: usize) -> PortRef {
        self.inputs[input]
    }

    /// Fan-in of `node`.
    #[must_use]
    pub fn fan_in(&self, node: NodeId) -> usize {
        span(&self.in_start, node.0).len()
    }

    /// Fan-out of `node`.
    #[must_use]
    pub fn fan_out(&self, node: NodeId) -> usize {
        self.wires(node.0).len()
    }

    /// Where output `port` of `node` is wired.
    ///
    /// # Panics
    ///
    /// Panics if the node or port is out of range.
    #[must_use]
    pub fn output_wire(&self, node: NodeId, port: usize) -> WireEnd {
        self.wires(node.0)[port]
    }

    /// The output wires of node `i`, by port.
    fn wires(&self, i: usize) -> &[WireEnd] {
        &self.outputs[span(&self.out_start, i)]
    }

    /// Iterates over all node ids in layer order (layer 1 first).
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.layer_nodes.iter().copied()
    }

    /// Renders the network in Graphviz DOT format (for debugging and
    /// documentation).
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph counting_network {\n  rankdir=LR;\n");
        for (i, layer) in self.node_layer.iter().enumerate() {
            let _ = writeln!(s, "  n{i} [shape=box,label=\"n{i}\\nL{layer}\"];");
        }
        for c in 0..self.output_width {
            let _ = writeln!(s, "  c{c} [shape=circle,label=\"Y{c}\"];");
        }
        for (x, pr) in self.inputs.iter().enumerate() {
            let _ = writeln!(s, "  x{x} [shape=plaintext,label=\"x{x}\"];");
            let _ = writeln!(s, "  x{x} -> n{};", pr.node.0);
        }
        for i in 0..self.node_count() {
            for (p, out) in self.wires(i).iter().enumerate() {
                match *out {
                    WireEnd::Node { node, port } => {
                        let _ = writeln!(s, "  n{i} -> n{} [label=\"{p}->{port}\"];", node.0);
                    }
                    WireEnd::Counter { index } => {
                        let _ = writeln!(s, "  n{i} -> c{index} [label=\"{p}\"];");
                    }
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_balancer() -> Topology {
        let mut b = TopologyBuilder::new();
        let n = b.add_node(2, 2);
        b.add_input(n, 0).unwrap();
        b.add_input(n, 1).unwrap();
        b.connect_counter(n, 0, 0).unwrap();
        b.connect_counter(n, 1, 1).unwrap();
        b.finalize().unwrap()
    }

    #[test]
    fn shards_builds_equal_validated_networks() {
        let shards = Topology::shards(4, 4).unwrap();
        assert_eq!(shards.len(), 4);
        for t in &shards {
            assert_eq!(t.output_width(), 4);
            assert_eq!(t.input_width(), 4);
            assert_eq!(t.depth(), 3); // bitonic(4)
        }
        // a single shard is just the plain construction
        let one = Topology::shards(16, 1).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].output_width(), 16);
    }

    #[test]
    fn shards_rejects_invalid_arguments() {
        assert_eq!(Topology::shards(4, 0).unwrap_err(), TopologyError::NoShards);
        assert_eq!(
            Topology::shards(3, 2).unwrap_err(),
            TopologyError::WidthNotPowerOfTwo { width: 3 }
        );
        assert_eq!(
            Topology::shards(1, 2).unwrap_err(),
            TopologyError::WidthNotPowerOfTwo { width: 1 }
        );
    }

    #[test]
    fn single_balancer_shape() {
        let t = single_balancer();
        assert_eq!(t.depth(), 1);
        assert_eq!(t.input_width(), 2);
        assert_eq!(t.output_width(), 2);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.layer(1).len(), 1);
        assert_eq!(t.layer_of(NodeId(0)), 1);
    }

    #[test]
    fn two_layer_network() {
        // two balancers in series on 2 wires
        let mut b = TopologyBuilder::new();
        let a = b.add_node(2, 2);
        let c = b.add_node(2, 2);
        b.add_input(a, 0).unwrap();
        b.add_input(a, 1).unwrap();
        b.connect(a, 0, c, 0).unwrap();
        b.connect(a, 1, c, 1).unwrap();
        b.connect_counter(c, 0, 0).unwrap();
        b.connect_counter(c, 1, 1).unwrap();
        let t = b.finalize().unwrap();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.layer_of(a), 1);
        assert_eq!(t.layer_of(c), 2);
        assert_eq!(t.output_wire(a, 0), WireEnd::Node { node: c, port: 0 });
    }

    #[test]
    fn dangling_output_rejected() {
        let mut b = TopologyBuilder::new();
        let n = b.add_node(2, 2);
        b.add_input(n, 0).unwrap();
        b.add_input(n, 1).unwrap();
        b.connect_counter(n, 0, 0).unwrap();
        // output port 1 left unwired
        assert!(matches!(
            b.finalize(),
            Err(TopologyError::UnwiredCounter { .. }) | Err(TopologyError::UnwiredOutput { .. })
        ));
    }

    #[test]
    fn undriven_input_rejected() {
        let mut b = TopologyBuilder::new();
        let n = b.add_node(2, 2);
        b.add_input(n, 0).unwrap();
        b.connect_counter(n, 0, 0).unwrap();
        b.connect_counter(n, 1, 1).unwrap();
        assert_eq!(
            b.finalize().unwrap_err(),
            TopologyError::UndrivenInput {
                node: NodeId(0),
                port: 1
            }
        );
    }

    #[test]
    fn double_drive_rejected() {
        let mut b = TopologyBuilder::new();
        let n = b.add_node(2, 2);
        b.add_input(n, 0).unwrap();
        assert_eq!(
            b.add_input(n, 0).unwrap_err(),
            TopologyError::InputAlreadyDriven { node: n, port: 0 }
        );
    }

    #[test]
    fn counter_double_drive_rejected() {
        let mut b = TopologyBuilder::new();
        let n = b.add_node(2, 2);
        b.add_input(n, 0).unwrap();
        b.add_input(n, 1).unwrap();
        b.connect_counter(n, 0, 0).unwrap();
        assert_eq!(
            b.connect_counter(n, 1, 0).unwrap_err(),
            TopologyError::CounterAlreadyDriven { counter: 0 }
        );
    }

    #[test]
    fn unequal_paths_rejected() {
        // a -> c directly on one wire, a -> b -> c on the other: not uniform
        let mut bld = TopologyBuilder::new();
        let a = bld.add_node(2, 2);
        let b = bld.add_node(1, 1);
        let c = bld.add_node(2, 2);
        bld.add_input(a, 0).unwrap();
        bld.add_input(a, 1).unwrap();
        bld.connect(a, 0, c, 0).unwrap();
        bld.connect(a, 1, b, 0).unwrap();
        bld.connect(b, 0, c, 1).unwrap();
        bld.connect_counter(c, 0, 0).unwrap();
        bld.connect_counter(c, 1, 1).unwrap();
        assert!(matches!(
            bld.finalize(),
            Err(TopologyError::NotUniform { .. })
        ));
    }

    #[test]
    fn counter_on_shallow_layer_rejected() {
        // first-layer node feeds a counter while another path is longer
        let mut bld = TopologyBuilder::new();
        let a = bld.add_node(2, 2);
        let b = bld.add_node(1, 1);
        bld.add_input(a, 0).unwrap();
        bld.add_input(a, 1).unwrap();
        bld.connect(a, 0, b, 0).unwrap();
        bld.connect_counter(a, 1, 0).unwrap();
        bld.connect_counter(b, 0, 1).unwrap();
        assert!(matches!(
            bld.finalize(),
            Err(TopologyError::NotUniform { .. })
        ));
    }

    #[test]
    fn empty_network_rejected() {
        assert_eq!(
            TopologyBuilder::new().finalize().unwrap_err(),
            TopologyError::NoInputs
        );
    }

    #[test]
    fn unreachable_node_rejected() {
        let mut bld = TopologyBuilder::new();
        let a = bld.add_node(1, 1);
        let b = bld.add_node(1, 1);
        bld.add_input(a, 0).unwrap();
        bld.connect_counter(a, 0, 0).unwrap();
        // node b: drive its input from... nothing is possible without a
        // wire, so wire b to a counter and its input from a network input
        // is the only way; instead leave it undriven -> UndrivenInput
        bld.connect_counter(b, 0, 1).unwrap();
        assert!(matches!(
            bld.finalize(),
            Err(TopologyError::UndrivenInput { .. })
        ));
    }

    #[test]
    fn dot_output_mentions_all_parts() {
        let t = single_balancer();
        let dot = t.to_dot();
        assert!(dot.contains("n0"));
        assert!(dot.contains("c0"));
        assert!(dot.contains("c1"));
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
    }

    #[test]
    fn iter_nodes_in_layer_order() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node(2, 2);
        let c = b.add_node(2, 2);
        b.add_input(a, 0).unwrap();
        b.add_input(a, 1).unwrap();
        b.connect(a, 0, c, 0).unwrap();
        b.connect(a, 1, c, 1).unwrap();
        b.connect_counter(c, 0, 0).unwrap();
        b.connect_counter(c, 1, 1).unwrap();
        let t = b.finalize().unwrap();
        let ids: Vec<NodeId> = t.iter_nodes().collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn a_two_node_cycle_is_cyclic() {
        // a and c feed each other; d beside them makes the cycle
        // shorter than the node count
        let mut b = TopologyBuilder::new();
        let a = b.add_node(2, 2);
        let c = b.add_node(1, 2);
        let d = b.add_node(2, 2);
        b.add_input(a, 0).unwrap();
        b.add_input(d, 0).unwrap();
        b.add_input(d, 1).unwrap();
        b.connect(a, 0, c, 0).unwrap();
        b.connect(c, 0, a, 1).unwrap();
        for (node, port, counter) in [(a, 1, 0), (c, 1, 1), (d, 0, 2), (d, 1, 3)] {
            b.connect_counter(node, port, counter).unwrap();
        }
        assert_eq!(b.finalize().unwrap_err(), TopologyError::Cyclic);
    }
}
