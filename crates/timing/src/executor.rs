//! Replaying a [`TimingSchedule`] over a [`Topology`].
//!
//! The executor resolves a schedule's per-layer pass times into a
//! concrete execution: which node of each layer every token visits is
//! determined by the balancer states, which in turn depend only on the
//! *order* of the instantaneous transition events. Events are ordered
//! by `(time, token id)` — simultaneous transitions by different tokens
//! are serialized by token id, which makes executions fully
//! deterministic and lets adversarial schedules pin down exact
//! interleavings with integer times.

use cnet_topology::{BalancerState, NodeId, OutputCounts, Topology, WireEnd};

use crate::error::TimingError;
use crate::execution::{Event, Execution, Operation, Place};
use crate::schedule::TimingSchedule;

/// Deterministic timed executor for a fixed network.
///
/// # Example
///
/// Reproduce the paper's introductory non-linearizable execution on the
/// width-2 network (Section 1): `T0` is delayed on its way to counter
/// `A_0`; `T1` overtakes and returns 1; `T2` then runs fast, returns 0.
///
/// ```
/// use cnet_timing::{executor::TimedExecutor, TimingSchedule};
/// use cnet_topology::constructions;
///
/// let net = constructions::single_balancer(); // depth 1
/// let mut s = TimingSchedule::new(1);
/// s.push_delays(0, 0, &[8])?; // T0: enters at 0, slow link (8)
/// s.push_delays(0, 1, &[2])?; // T1: enters at 1, fast link (2)
/// s.push_delays(0, 4, &[2])?; // T2: enters at 4 (after T1 exits at 3)
///
/// let exec = TimedExecutor::new(&net).run(&s)?;
/// let ops = exec.operations();
/// assert_eq!(ops[1].value, 1); // T1 returned 1…
/// assert_eq!(ops[2].value, 0); // …but the later T2 returned 0
/// assert_eq!(exec.nonlinearizable_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimedExecutor<'a> {
    topology: &'a Topology,
}

impl<'a> TimedExecutor<'a> {
    /// Creates an executor for `topology`.
    #[must_use]
    pub fn new(topology: &'a Topology) -> Self {
        TimedExecutor { topology }
    }

    /// The network this executor runs over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// Runs the schedule to completion and returns the execution.
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule does not fit the network (wrong
    /// depth, bad input indices, empty, or non-monotonic times). Link
    /// delays are *not* checked against any [`crate::LinkTiming`] here;
    /// call [`TimingSchedule::validate`] if bounds matter.
    pub fn run(&self, schedule: &TimingSchedule) -> Result<Execution, TimingError> {
        schedule.validate(self.topology, None)?;
        let h = self.topology.depth();
        let w = self.topology.output_width();

        // (time, token, layer j) for all tokens and layers, sorted by
        // (time, token). A token's own events are strictly increasing
        // in time, so the sort keeps per-token layer order.
        let mut pending: Vec<(u64, usize, usize)> = Vec::new();
        for (k, tok) in schedule.tokens().iter().enumerate() {
            for (j0, &t) in tok.times.iter().enumerate() {
                pending.push((t, k, j0 + 1));
            }
        }
        pending.sort_unstable();

        let mut balancers: Vec<BalancerState> = (0..self.topology.node_count())
            .map(|_| BalancerState::new(1))
            .collect();
        for id in self.topology.iter_nodes() {
            balancers[id.index()] = BalancerState::new(self.topology.fan_out(id));
        }

        // Per-token current node (None once headed for a counter).
        let mut at: Vec<Option<NodeId>> = schedule
            .tokens()
            .iter()
            .map(|tok| Some(self.topology.input(tok.input).node))
            .collect();
        let mut dest_counter: Vec<Option<usize>> = vec![None; schedule.len()];

        let mut counts = OutputCounts::zeros(w);
        let mut events = Vec::with_capacity(pending.len());
        let mut operations: Vec<Option<Operation>> = vec![None; schedule.len()];

        for (time, k, j) in pending {
            if j <= h {
                let node = at[k].expect("token still inside the network");
                debug_assert_eq!(
                    self.topology.layer_of(node),
                    j,
                    "token {k} visits node {node:?} at layer {j}"
                );
                let out = balancers[node.index()].route();
                events.push(Event {
                    time,
                    token: k,
                    place: Place::Node(node),
                });
                match self.topology.output_wire(node, out) {
                    WireEnd::Node { node: next, .. } => at[k] = Some(next),
                    WireEnd::Counter { index } => {
                        at[k] = None;
                        dest_counter[k] = Some(index);
                    }
                }
            } else {
                let counter = dest_counter[k].expect("token routed to a counter at layer h");
                let value = counter as u64 + w as u64 * counts.as_slice()[counter];
                counts.increment(counter);
                events.push(Event {
                    time,
                    token: k,
                    place: Place::Counter(counter),
                });
                let tok = schedule.token(k);
                operations[k] = Some(Operation {
                    token: k,
                    input: u32::try_from(tok.input).expect("a network input index fits u32"),
                    start: tok.entry(),
                    end: time,
                    counter: u32::try_from(counter).expect("a counter index fits u32"),
                    value,
                });
            }
        }

        let operations: Vec<Operation> = operations
            .into_iter()
            .map(|o| o.expect("every scheduled token completes"))
            .collect();
        Ok(Execution::new(events, operations, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkTiming;
    use crate::schedule::TimingSchedule;
    use cnet_topology::constructions;

    /// All tokens at the same pace behave exactly like sequential
    /// routing: values are assigned in entry order.
    #[test]
    fn lockstep_tokens_count_in_entry_order() {
        let net = constructions::bitonic(4).unwrap();
        let h = net.depth();
        let mut s = TimingSchedule::new(h);
        for k in 0..16 {
            // entries 10 apart, all links take exactly 5
            s.push_delays(k % 4, 10 * k as u64, &vec![5; h]).unwrap();
        }
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        assert!(exec.is_linearizable());
        assert!(exec.output_counts().is_step());
        // entry order == exit order == value order here
        let mut ops = exec.operations().to_vec();
        ops.sort_by_key(|o| o.start);
        for (i, o) in ops.iter().enumerate() {
            assert_eq!(o.value, i as u64);
        }
    }

    #[test]
    fn quiescent_counts_form_a_step_even_when_skewed() {
        let net = constructions::bitonic(8).unwrap();
        let h = net.depth();
        let mut s = TimingSchedule::new(h);
        // wildly varying (but fixed) delays
        for k in 0..40usize {
            let d: Vec<u64> = (0..h).map(|j| 1 + ((k * 7 + j * 13) % 50) as u64).collect();
            s.push_delays(k % 8, (k as u64) * 3, &d).unwrap();
        }
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        assert!(exec.output_counts().is_step());
        assert_eq!(exec.output_counts().total(), 40);
        // every value 0..40 is assigned exactly once
        let mut values: Vec<u64> = exec.operations().iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn intro_example_is_nonlinearizable() {
        let net = constructions::single_balancer();
        let timing = LinkTiming::new(2, 8).unwrap(); // ratio 4 > 2
        let mut s = TimingSchedule::new(1);
        s.push_delays(0, 0, &[8]).unwrap(); // T0 slow
        s.push_delays(0, 1, &[2]).unwrap(); // T1 fast, exits at 3
        s.push_delays(0, 4, &[2]).unwrap(); // T2 enters after T1 exits
        s.validate(&net, Some(timing)).unwrap();
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        let ops = exec.operations();
        assert_eq!(ops[0].value, 2); // T0 delayed, gets 2
        assert_eq!(ops[1].value, 1);
        assert_eq!(ops[2].value, 0);
        assert_eq!(exec.nonlinearizable_count(), 1);
        let v = exec.violations();
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].0.token, v[0].1.token), (1, 2));
    }

    #[test]
    fn event_stream_is_time_ordered_and_complete() {
        let net = constructions::counting_tree(4).unwrap();
        let h = net.depth();
        let mut s = TimingSchedule::new(h);
        for k in 0..10u64 {
            s.push_delays(0, k, &vec![3; h]).unwrap();
        }
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        assert_eq!(exec.events().len(), 10 * (h + 1));
        for w in exec.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn simultaneous_arrivals_serialize_by_token_id() {
        let net = constructions::single_balancer();
        let mut s = TimingSchedule::new(1);
        s.push_delays(0, 0, &[2]).unwrap();
        s.push_delays(1, 0, &[2]).unwrap();
        let exec = TimedExecutor::new(&net).run(&s).unwrap();
        // token 0 toggles first (tie broken by id), goes to counter 0
        assert_eq!(exec.operations()[0].value, 0);
        assert_eq!(exec.operations()[1].value, 1);
    }

    #[test]
    fn depth_mismatch_is_reported() {
        let net = constructions::bitonic(4).unwrap();
        let mut s = TimingSchedule::new(2); // wrong depth
        s.push_delays(0, 0, &[1, 1]).unwrap();
        let err = TimedExecutor::new(&net).run(&s).unwrap_err();
        assert!(matches!(err, TimingError::DepthMismatch { .. }));
    }
}
