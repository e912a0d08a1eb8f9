//! Plain-text serialization of topologies.
//!
//! A simple line-based format so custom networks can be authored by
//! hand, stored beside experiments, and fed to the CLI:
//!
//! ```text
//! # counting-network topology v1
//! node 0 2 2
//! node 1 2 2
//! wire 0 0 node 1 0
//! wire 0 1 node 1 1
//! wire 1 0 counter 0
//! wire 1 1 counter 1
//! input 0 0
//! input 0 1
//! ```
//!
//! Parsing funnels through [`crate::TopologyBuilder`], so a loaded
//! topology satisfies exactly the same structural invariants
//! (uniformity, no dangling ports) as a programmatically built one.

use std::fmt::Write as _;

use crate::error::TopologyError;
use crate::topology::{NodeId, Topology, TopologyBuilder, WireEnd};

/// Renders a topology in the v1 text format.
#[must_use]
pub fn to_text(topology: &Topology) -> String {
    let mut out = String::from("# counting-network topology v1\n");
    let mut ids: Vec<NodeId> = topology.iter_nodes().collect();
    ids.sort_unstable();
    for id in &ids {
        let _ = writeln!(
            out,
            "node {} {} {}",
            id.index(),
            topology.fan_in(*id),
            topology.fan_out(*id)
        );
    }
    for id in &ids {
        for port in 0..topology.fan_out(*id) {
            match topology.output_wire(*id, port) {
                WireEnd::Node {
                    node,
                    port: in_port,
                } => {
                    let _ = writeln!(
                        out,
                        "wire {} {} node {} {}",
                        id.index(),
                        port,
                        node.index(),
                        in_port
                    );
                }
                WireEnd::Counter { index } => {
                    let _ = writeln!(out, "wire {} {} counter {}", id.index(), port, index);
                }
            }
        }
    }
    for x in 0..topology.input_width() {
        let pr = topology.input(x);
        let _ = writeln!(out, "input {} {}", pr.node.index(), pr.port);
    }
    out
}

/// Parses the v1 text format and validates the result.
///
/// Node ids must be dense (`0..n`) and declared before use; `#` starts
/// a comment line.
///
/// # Errors
///
/// Returns [`TopologyError::BadLine`], naming the line, for a malformed
/// line, a node with a zero fan-in or fan-out, and a fan-in, fan-out or
/// counter index that is at least the text's line count (a valid file
/// spends one `wire` or `input` line on every port, so it never names
/// one that large). References to undeclared nodes are
/// [`TopologyError::UnknownNode`]; bad wiring gets the usual builder
/// errors, and final validation the [`TopologyError::NotUniform`]-class
/// ones.
pub fn from_text(text: &str) -> Result<Topology, TopologyError> {
    let mut builder = TopologyBuilder::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let line_count = text.lines().count();

    let lookup = |nodes: &[NodeId], idx: usize| -> Result<NodeId, TopologyError> {
        nodes
            .get(idx)
            .copied()
            .ok_or(TopologyError::UnknownNode { node: NodeId(idx) })
    };

    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |detail: String| TopologyError::BadLine {
            line: line_no + 1,
            detail,
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| -> Result<usize, TopologyError> {
            s.parse()
                .map_err(|_| bad(format!("`{s}` is not a non-negative integer")))
        };
        // a fan-in, fan-out or counter index the file cannot wire
        let within = |what: &str, s: &str| -> Result<usize, TopologyError> {
            let n = num(s)?;
            if n >= line_count {
                return Err(bad(format!(
                    "{what} {n} needs more lines than the file's {line_count}"
                )));
            }
            Ok(n)
        };
        match fields.as_slice() {
            ["node", id, fan_in, fan_out] => {
                if num(id)? != nodes.len() {
                    return Err(bad(format!(
                        "node ids must be dense: expected {}",
                        nodes.len()
                    )));
                }
                if num(fan_in)? == 0 || num(fan_out)? == 0 {
                    return Err(bad("a node needs a positive fan-in and fan-out".to_string()));
                }
                let (fan_in, fan_out) = (within("fan-in", fan_in)?, within("fan-out", fan_out)?);
                nodes.push(builder.add_node(fan_in, fan_out));
            }
            ["wire", from, out_port, "node", to, in_port] => {
                let from = lookup(&nodes, num(from)?)?;
                let to = lookup(&nodes, num(to)?)?;
                builder.connect(from, num(out_port)?, to, num(in_port)?)?;
            }
            ["wire", from, out_port, "counter", index] => {
                let from = lookup(&nodes, num(from)?)?;
                builder.connect_counter(from, num(out_port)?, within("counter index", index)?)?;
            }
            ["input", node, port] => {
                let node = lookup(&nodes, num(node)?)?;
                builder.add_input(node, num(port)?)?;
            }
            _ => return Err(bad(format!("not a node, wire or input line: `{line}`"))),
        }
    }
    builder.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions;
    use crate::router::SequentialRouter;

    #[test]
    fn round_trips_every_construction() {
        let nets = [
            constructions::single_balancer(),
            constructions::bitonic(8).unwrap(),
            constructions::periodic(4).unwrap(),
            constructions::counting_tree(8).unwrap(),
            constructions::counting_tree_d(9, 3).unwrap(),
            constructions::serial_line(3),
        ];
        for net in &nets {
            let text = to_text(net);
            let back = from_text(&text).unwrap();
            assert_eq!(back.depth(), net.depth());
            assert_eq!(back.input_width(), net.input_width());
            assert_eq!(back.output_width(), net.output_width());
            assert_eq!(back.node_count(), net.node_count());
            // behavioural equality: same values for the same token feed
            let mut a = SequentialRouter::new(net);
            let mut b = SequentialRouter::new(&back);
            for i in 0..40usize {
                let x = i % net.input_width();
                assert_eq!(a.route(x).unwrap().value, b.route(x).unwrap().value);
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nnode 0 2 2\nwire 0 0 counter 0\nwire 0 1 counter 1\n\
                    input 0 0\ninput 0 1\n";
        let net = from_text(text).unwrap();
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn undeclared_node_rejected() {
        let text = "node 0 2 2\nwire 0 0 node 7 0\ninput 0 0\ninput 0 1\n";
        assert!(matches!(
            from_text(text),
            Err(TopologyError::UnknownNode { .. })
        ));
    }

    #[test]
    fn non_dense_ids_rejected() {
        let text = "node 5 2 2\n";
        assert!(from_text(text).is_err());
    }

    #[test]
    fn malformed_lines_rejected() {
        assert_eq!(bad_line("node 0 two 2\n").0, 1);
        assert_eq!(bad_line("wiring 0 0 counter 0\n").0, 1);
        assert_eq!(bad_line("node 0 2\n").0, 1);
        assert_eq!(bad_line("node 0 1 1\nwiring 0 0 counter 0\n").0, 2);
    }

    /// The line and message of the `BadLine` error `text` must give.
    fn bad_line(text: &str) -> (usize, String) {
        match from_text(text) {
            Err(TopologyError::BadLine { line, detail }) => (line, detail),
            other => panic!("{text:?} gave {other:?}"),
        }
    }

    #[test]
    fn zero_fan_in_is_a_typed_error() {
        let (line, detail) = bad_line("# header\nnode 0 0 2\ninput 0 0\n");
        assert_eq!(line, 2);
        assert!(detail.contains("positive fan-in"), "{detail}");
    }

    #[test]
    fn zero_fan_out_is_a_typed_error() {
        let (line, _) = bad_line("node 0 2 0\ninput 0 0\ninput 0 1\n");
        assert_eq!(line, 1);
    }

    #[test]
    fn overflowing_counter_index_is_a_typed_error() {
        let text = "node 0 1 1\nwire 0 0 counter 18446744073709551615\ninput 0 0\n";
        let (line, detail) = bad_line(text);
        assert_eq!(line, 2);
        assert!(detail.starts_with("counter index"), "{detail}");
    }

    #[test]
    fn ports_and_counters_beyond_the_file_are_refused() {
        // refused before anything is sized by the number
        let (_, detail) = bad_line("node 0 1 1000000000000\ninput 0 0\n");
        assert!(detail.starts_with("fan-out"), "{detail}");
        let (_, detail) = bad_line("node 0 1000000000000 1\nwire 0 0 counter 0\n");
        assert!(detail.starts_with("fan-in"), "{detail}");
        let (line, _) = bad_line("node 0 1 1\nwire 0 0 counter 3\ninput 0 0\n");
        assert_eq!(line, 2);
        // a valid file spends a line per port, so it is never refused
        let text = "node 0 1 2\nwire 0 0 counter 0\nwire 0 1 counter 1\ninput 0 0\n";
        assert_eq!(from_text(text).unwrap().output_width(), 2);
    }

    #[test]
    fn validation_still_applies() {
        // a dangling output port must be caught by finalize
        let text = "node 0 2 2\nwire 0 0 counter 0\ninput 0 0\ninput 0 1\n";
        assert!(matches!(
            from_text(text),
            Err(TopologyError::UnwiredOutput { .. })
        ));
    }
}
