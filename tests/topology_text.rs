//! Generated hostile topology text: one structural mutation of a
//! construction's `io::to_text` must load as a typed error of the
//! expected class, never a panic or a hang, and the text left as it
//! is must load back to itself.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use counting_networks::topology::{constructions, io, NodeId, Topology, TopologyError, WireEnd};
use proptest::prelude::*;

const KINDS: [&str; 6] = ["bitonic", "periodic", "tree", "merger", "block", "single"];

/// How long one load may take before it counts as a hang.
const LOAD_BOUND: Duration = Duration::from_secs(10);

/// Loads `text` on a thread of its own: `Err` names a panic or a hang.
fn load_bounded(text: String) -> Result<Result<Topology, TopologyError>, String> {
    let (tx, rx) = mpsc::channel();
    let loader = thread::spawn(move || {
        let _ = tx.send(io::from_text(&text));
    });
    match rx.recv_timeout(LOAD_BOUND) {
        Ok(loaded) => {
            loader.join().expect("the loader sent its result");
            Ok(loaded)
        }
        // the loader is left running; the case fails
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("no answer within {LOAD_BOUND:?}")),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(match loader.join() {
            Err(panic) => format!("the loader panicked: {panic:?}"),
            Ok(()) => "the loader sent nothing".to_string(),
        }),
    }
}

/// A network's text form, as lines to mutate.
struct Text<'a> {
    net: &'a Topology,
    lines: Vec<String>,
}

impl<'a> Text<'a> {
    fn new(net: &'a Topology) -> Self {
        Text {
            net,
            lines: io::to_text(net).lines().map(str::to_string).collect(),
        }
    }

    /// Indices of the lines that start with `head`.
    fn lines_of(&self, head: &str) -> Vec<usize> {
        (0..self.lines.len())
            .filter(|&i| self.lines[i].starts_with(head))
            .collect()
    }

    /// Index of the line wiring output `port` of `node`.
    fn wire(&self, node: NodeId, port: usize) -> usize {
        let head = format!("wire {} {port} ", node.index());
        self.lines_of(&head)[0]
    }

    /// The line wiring output `port` of `node`, re-pointed at `to`.
    fn wire_to(&self, node: NodeId, port: usize, to: WireEnd) -> String {
        match to {
            WireEnd::Node { node: v, port: p } => {
                format!("wire {} {port} node {} {p}", node.index(), v.index())
            }
            WireEnd::Counter { index } => format!("wire {} {port} counter {index}", node.index()),
        }
    }

    /// Swaps the targets of two output ports.
    fn swap_targets(&mut self, a: (NodeId, usize), b: (NodeId, usize)) {
        let (ta, tb) = (
            self.net.output_wire(a.0, a.1),
            self.net.output_wire(b.0, b.1),
        );
        let (la, lb) = (self.wire(a.0, a.1), self.wire(b.0, b.1));
        self.lines[la] = self.wire_to(a.0, a.1, tb);
        self.lines[lb] = self.wire_to(b.0, b.1, ta);
    }

    /// Every output port of the network, with its target.
    fn ports(&self) -> Vec<(NodeId, usize, WireEnd)> {
        self.net
            .iter_nodes()
            .flat_map(|n| (0..self.net.fan_out(n)).map(move |p| (n, p)))
            .map(|(n, p)| (n, p, self.net.output_wire(n, p)))
            .collect()
    }

    /// The node and output port driving input `port` of `node`.
    fn source_of(&self, node: NodeId, port: usize) -> (NodeId, usize) {
        self.ports()
            .into_iter()
            .find(|&(_, _, to)| to == WireEnd::Node { node, port })
            .map(|(n, p, _)| (n, p))
            .expect("every input port of a layer-2+ node is wired")
    }

    fn text(&self) -> String {
        self.lines.join("\n") + "\n"
    }
}

fn pick<T: Copy>(xs: &[T], seed: usize) -> T {
    xs[seed % xs.len()]
}

/// Applies mutation `kind` to `net`'s text, drawing its choices from
/// the seeds `a` and `b`. Returns the text and a test for the errors
/// that mutation may give.
fn mutate(net: &Topology, kind: usize, a: usize, b: usize) -> (String, fn(&TopologyError) -> bool) {
    let mut t = Text::new(net);
    let mut edges = t.lines_of("wire ");
    edges.extend(t.lines_of("input "));
    let ports = t.ports();
    let is_node = |to: &WireEnd| matches!(to, WireEnd::Node { .. });
    match kind {
        // drop a `wire` or `input` line
        0 => {
            t.lines.remove(pick(&edges, a));
            (t.text(), |e| {
                matches!(
                    e,
                    TopologyError::NoInputs
                        | TopologyError::UndrivenInput { .. }
                        | TopologyError::UnwiredOutput { .. }
                        | TopologyError::UnwiredCounter { .. }
                )
            })
        }
        // duplicate a `wire` or `input` line
        1 => {
            let at = pick(&edges, a);
            t.lines.insert(at, t.lines[at].clone());
            (t.text(), |e| {
                matches!(
                    e,
                    TopologyError::OutputAlreadyWired { .. }
                        | TopologyError::InputAlreadyDriven { .. }
                        | TopologyError::CounterAlreadyDriven { .. }
                )
            })
        }
        // a cycle: output `p` of a node `u` takes over the input of an
        // ancestor-or-self `y` of `u`, whose old source takes `p`'s target
        2 => {
            let inner: Vec<_> = ports
                .iter()
                .filter(|(n, _, to)| net.layer_of(*n) >= 2 && is_node(to))
                .collect();
            let &(u, p, _) = pick(&inner, a);
            let mut y = u;
            for _ in 0..b % (net.layer_of(u) - 1) {
                y = t.source_of(y, 0).0;
            }
            let q = b % net.fan_in(y);
            t.swap_targets((u, p), t.source_of(y, q));
            (t.text(), |e| matches!(e, TopologyError::Cyclic))
        }
        // an unequal path: a node short of the last layer feeds a
        // counter, and the counter's last-layer node its old target
        3 => {
            let inner: Vec<_> = ports.iter().filter(|(_, _, to)| is_node(to)).collect();
            let outer: Vec<_> = ports.iter().filter(|(_, _, to)| !is_node(to)).collect();
            let &(u, p, _) = pick(&inner, a);
            let &(z, q, _) = pick(&outer, b);
            t.swap_targets((u, p), (z, q));
            (t.text(), |e| {
                matches!(e, TopologyError::NotUniform { .. } | TopologyError::Cyclic)
            })
        }
        // a port one past its node's ports, or further
        4 => {
            let past = b / 2 % 3;
            if b.is_multiple_of(2) {
                let x = a % net.input_width();
                let input = net.input(x);
                let at = t.lines_of("input ")[x];
                let port = net.fan_in(input.node) + past;
                t.lines[at] = format!("input {} {port}", input.node.index());
            } else {
                let (n, p, to) = pick(&ports, a);
                let at = t.wire(n, p);
                t.lines[at] = t.wire_to(n, net.fan_out(n) + past, to);
            }
            (t.text(), |e| {
                matches!(e, TopologyError::PortOutOfRange { .. })
            })
        }
        // a sparse node id: declared out of order, or named past the last
        5 => {
            let sparse = net.node_count() + b % 3;
            if b.is_multiple_of(2) {
                let at = pick(&t.lines_of("node "), a);
                let fields: Vec<&str> = t.lines[at].split(' ').collect();
                t.lines[at] = format!("node {sparse} {} {}", fields[2], fields[3]);
            } else {
                let at = pick(&edges, a);
                let mut fields: Vec<String> = t.lines[at].split(' ').map(str::to_string).collect();
                fields[1] = sparse.to_string();
                t.lines[at] = fields.join(" ");
            }
            (t.text(), |e| {
                matches!(
                    e,
                    TopologyError::BadLine { .. } | TopologyError::UnknownNode { .. }
                )
            })
        }
        // a counter gap: one counter moves past the last
        _ => {
            let outer: Vec<_> = ports.iter().filter(|(_, _, to)| !is_node(to)).collect();
            let &(z, q, _) = pick(&outer, a);
            let gap = WireEnd::Counter {
                index: net.output_width() + b % 4,
            };
            let at = t.wire(z, q);
            t.lines[at] = t.wire_to(z, q, gap);
            (t.text(), |e| {
                matches!(
                    e,
                    TopologyError::UnwiredCounter { .. } | TopologyError::BadLine { .. }
                )
            })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_topology_text_is_a_typed_error(
        shape in (0usize..KINDS.len(), 1usize..=5, 0usize..=3),
        mutation in (0usize..=7, 0usize..1 << 16, 0usize..1 << 16),
    ) {
        let (kind, exp, pad) = shape;
        let (mutation, a, b) = mutation;
        let inner = constructions::by_name(KINDS[kind], 1 << exp, 2).unwrap();
        // a cycle needs a node at layer 2 with a wire out, an unequal
        // path one at layer 1
        let pad = if matches!(mutation, 2 | 3) { pad.max(2) } else { pad };
        let net = constructions::pad_inputs(&inner, pad).unwrap();
        let text = io::to_text(&net);
        if mutation == 7 {
            let back = load_bounded(text.clone())?;
            prop_assert!(back.is_ok(), "unmutated text refused: {back:?}");
            prop_assert_eq!(io::to_text(&back.unwrap()), text);
        } else {
            let (mutated, expected) = mutate(&net, mutation, a, b);
            match load_bounded(mutated.clone())? {
                Ok(_) => prop_assert!(false, "mutation {mutation} loaded:\n{mutated}"),
                Err(e) => prop_assert!(
                    expected(&e),
                    "mutation {mutation} gave {e:?}:\n{mutated}"
                ),
            }
        }
    }
}
