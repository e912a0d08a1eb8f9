use std::error::Error;
use std::fmt;

use crate::topology::NodeId;

/// Errors raised while constructing or using a balancing-network
/// [`Topology`](crate::Topology).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A width argument was not a power of two `>= 2`.
    WidthNotPowerOfTwo {
        /// The offending width.
        width: usize,
    },
    /// A node id referenced a node that does not exist.
    UnknownNode {
        /// The offending node id.
        node: NodeId,
    },
    /// A port index was out of range for the node's fan-in/fan-out.
    PortOutOfRange {
        /// The node whose port was referenced.
        node: NodeId,
        /// The offending port index.
        port: usize,
        /// Number of ports of that kind on the node.
        available: usize,
    },
    /// An output port was wired more than once.
    OutputAlreadyWired {
        /// The node whose output port was re-wired.
        node: NodeId,
        /// The port that was already connected.
        port: usize,
    },
    /// An input port was driven by more than one wire or network input.
    InputAlreadyDriven {
        /// The node whose input port was re-driven.
        node: NodeId,
        /// The port that was already driven.
        port: usize,
    },
    /// An output counter was driven by more than one wire.
    ///
    /// The paper's counters have a single input each, so a counter index
    /// may be the target of exactly one node output.
    CounterAlreadyDriven {
        /// The counter index that was driven twice.
        counter: usize,
    },
    /// After building, some node input port was left undriven.
    UndrivenInput {
        /// The node with the dangling input.
        node: NodeId,
        /// The dangling input port.
        port: usize,
    },
    /// After building, some node output port was left unwired.
    UnwiredOutput {
        /// The node with the dangling output.
        node: NodeId,
        /// The dangling output port.
        port: usize,
    },
    /// After building, some counter in `0..output_width` was never wired.
    UnwiredCounter {
        /// The counter that was never wired.
        counter: usize,
    },
    /// The network has no inputs.
    NoInputs,
    /// The network has no output counters.
    NoOutputs,
    /// The wiring contains a cycle; balancing networks are acyclic.
    Cyclic,
    /// The network is not *uniform*: some node is reachable from the
    /// inputs along paths of different lengths, or counters sit at
    /// different depths (Definition 2.1 of the paper).
    NotUniform {
        /// Human-readable description of the uniformity violation.
        detail: String,
    },
    /// A sharded construction was asked for zero shards.
    NoShards,
    /// [`constructions::by_name`](crate::constructions::by_name) was
    /// given a name no construction has.
    UnknownKind {
        /// The offending name.
        kind: String,
    },
    /// A token was injected on a nonexistent network input.
    InputOutOfRange {
        /// The offending network-input index.
        input: usize,
        /// The network's input width.
        width: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::WidthNotPowerOfTwo { width } => {
                write!(f, "width {width} is not a power of two >= 2")
            }
            TopologyError::UnknownNode { node } => write!(f, "unknown node {node:?}"),
            TopologyError::PortOutOfRange {
                node,
                port,
                available,
            } => write!(
                f,
                "port {port} out of range for node {node:?} with {available} ports"
            ),
            TopologyError::OutputAlreadyWired { node, port } => {
                write!(f, "output port {port} of node {node:?} is already wired")
            }
            TopologyError::InputAlreadyDriven { node, port } => {
                write!(f, "input port {port} of node {node:?} is already driven")
            }
            TopologyError::CounterAlreadyDriven { counter } => {
                write!(f, "output counter {counter} is already driven")
            }
            TopologyError::UndrivenInput { node, port } => {
                write!(f, "input port {port} of node {node:?} is not driven")
            }
            TopologyError::UnwiredOutput { node, port } => {
                write!(f, "output port {port} of node {node:?} is not wired")
            }
            TopologyError::UnwiredCounter { counter } => {
                write!(f, "output counter {counter} is not wired")
            }
            TopologyError::NoInputs => write!(f, "network has no inputs"),
            TopologyError::NoOutputs => write!(f, "network has no output counters"),
            TopologyError::Cyclic => write!(f, "network wiring contains a cycle"),
            TopologyError::NotUniform { detail } => {
                write!(f, "network is not uniform: {detail}")
            }
            TopologyError::NoShards => write!(f, "a sharded construction needs at least one shard"),
            TopologyError::UnknownKind { kind } => write!(
                f,
                "unknown network kind `{kind}` (bitonic|periodic|tree|merger|block|single)"
            ),
            TopologyError::InputOutOfRange { input, width } => {
                write!(f, "input {input} out of range for input width {width}")
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TopologyError::WidthNotPowerOfTwo { width: 3 };
        let s = e.to_string();
        assert!(s.starts_with("width 3"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TopologyError>();
    }
}
