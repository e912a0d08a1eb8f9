//! The result of a timed execution: transition events and per-token
//! operations.

use cnet_topology::{NodeId, OutputCounts};

use crate::linearizability;
use crate::link::Time;

/// Where a transition event happened: a balancing node or an output
/// counter (the paper's executions range `D` over both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Place {
    /// A balancing node.
    Node(NodeId),
    /// The output counter `Y_index`.
    Counter(usize),
}

/// One instantaneous transition event `⟨T, D⟩` of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The real-time instant of the transition.
    pub time: Time,
    /// The token `T` making the transition.
    pub token: usize,
    /// The node or counter `D` being traversed.
    pub place: Place,
}

/// One completed counting operation: a token's traversal of the whole
/// network and the value its counter assigned.
///
/// 40 bytes: `input` and `counter` are wire indices below the
/// network's width, held as `u32` like the simulator's and the compiled
/// arena's indices (index with `as usize`). `token` stays `usize`: a
/// served history numbers tokens by global completion count, which
/// outgrows `u32`. The default is the all-zero record a native run
/// fills its buffer with before its client threads write into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Operation {
    /// Token id (index into the schedule).
    pub token: usize,
    /// Network input the token entered on.
    pub input: u32,
    /// Entry time `Q(k, 1)` — when the token passed its input node.
    pub start: Time,
    /// Exit time `Q(k, h+1)` — when the token reached its counter.
    pub end: Time,
    /// The output counter the token exited on.
    pub counter: u32,
    /// The value assigned: `counter + w · (prior arrivals at counter)`.
    pub value: u64,
}

// a native pass materialises one record per operation; a wider one is
// paid in page faults on every pass
const _: () = assert!(std::mem::size_of::<Operation>() == 40);

impl Operation {
    /// Whether this operation completely precedes `other` in real time.
    #[must_use]
    pub fn precedes(&self, other: &Operation) -> bool {
        self.end < other.start
    }
}

/// A complete timed execution of a counting network.
///
/// Produced by [`crate::executor::TimedExecutor::run`]; consumed by the
/// [linearizability checker](crate::linearizability) and the
/// [knowledge analysis](crate::knowledge).
#[derive(Debug, Clone)]
pub struct Execution {
    events: Vec<Event>,
    operations: Vec<Operation>,
    output_counts: OutputCounts,
}

impl Execution {
    pub(crate) fn new(
        events: Vec<Event>,
        operations: Vec<Operation>,
        output_counts: OutputCounts,
    ) -> Self {
        Execution {
            events,
            operations,
            output_counts,
        }
    }

    /// The transition events in execution order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The completed operations, indexed by token id.
    #[must_use]
    pub fn operations(&self) -> &[Operation] {
        &self.operations
    }

    /// Final per-counter exit counts (a quiescent state, so these form
    /// a step for any counting network).
    #[must_use]
    pub fn output_counts(&self) -> &OutputCounts {
        &self.output_counts
    }

    /// The number of non-linearizable operations (Definition 2.4).
    #[must_use]
    pub fn nonlinearizable_count(&self) -> usize {
        linearizability::count_nonlinearizable(&self.operations)
    }

    /// The fraction of non-linearizable operations among all
    /// operations, the quantity plotted in the paper's Figures 5 and 6.
    #[must_use]
    pub fn nonlinearizable_ratio(&self) -> f64 {
        linearizability::nonlinearizable_ratio(&self.operations)
    }

    /// Whether the execution is linearizable (no operation violates
    /// Definition 2.4).
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.nonlinearizable_count() == 0
    }

    /// All witnessed violations, as `(earlier, later)` operation pairs
    /// where `earlier` completely precedes `later` yet returned a
    /// higher value. See
    /// [`linearizability::violations`].
    #[must_use]
    pub fn violations(&self) -> Vec<(Operation, Operation)> {
        linearizability::violations(&self.operations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(token: usize, start: Time, end: Time, value: u64) -> Operation {
        Operation {
            token,
            input: 0,
            start,
            end,
            counter: (value % 2) as u32,
            value,
        }
    }

    #[test]
    fn precedes_is_strict() {
        let a = op(0, 0, 5, 0);
        let b = op(1, 6, 8, 1);
        let c = op(2, 5, 8, 1);
        assert!(a.precedes(&b));
        assert!(!a.precedes(&c)); // touching intervals overlap
        assert!(!b.precedes(&a));
    }

    #[test]
    fn execution_accessors() {
        let ops = vec![op(0, 0, 5, 1), op(1, 6, 9, 0)];
        let ev = vec![Event {
            time: 0,
            token: 0,
            place: Place::Counter(0),
        }];
        let exec = Execution::new(ev, ops, OutputCounts::from(vec![1, 1]));
        assert_eq!(exec.events().len(), 1);
        assert_eq!(exec.operations().len(), 2);
        assert_eq!(exec.nonlinearizable_count(), 1);
        assert!(!exec.is_linearizable());
        assert_eq!(exec.violations().len(), 1);
        assert!((exec.nonlinearizable_ratio() - 0.5).abs() < 1e-12);
    }
}
