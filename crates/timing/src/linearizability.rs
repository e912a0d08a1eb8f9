//! The linearizability checker for counting executions.
//!
//! Definition 2.3: a counting network is *linearizable* if whenever two
//! tokens traverse the network one after another without overlap, the
//! earlier token obtains a smaller value. Definition 2.4 grades a
//! single execution: an operation `O` is *non-linearizable* if some
//! operation `O'` completely precedes `O` in time yet returned a
//! *higher* counter value; the *fraction of non-linearizable
//! operations* is the paper's measured quantity (Figures 5 and 6).
//!
//! Definition 2.4 reads, per operation, "the prefix maximum of finished
//! values, indexed by time, exceeds my value at my start". This module
//! is the one place that prefix maximum is kept, in three layouts with
//! no overlap:
//!
//! * a whole trace ([`count_nonlinearizable`], [`magnitudes`]) is one
//!   scan against a table whose layout is read off the trace
//!   ([`is_dense_timeline`]): a *dense* timeline — the native backends'
//!   logical clock, which hands out the ticks `0..2n` once each —
//!   indexes it by tick and is built in `O(n + T)` with no sort; a
//!   *sparse* one (simulator cycles) sorts the `(end, value)` pairs
//!   once and looks a start up by binary search, `O(n log n)`;
//! * a feed in time order ([`StartWitness`]) — the simulator's events,
//!   the service's clock brackets — needs no table: when an operation
//!   starts, everything that finished before it has been recorded, so
//!   two running maxima give its witness then and there, `O(1)` per
//!   operation;
//! * a set of *lanes* ([`lane_magnitudes`]) — a native run's per-thread
//!   operations, each lane a list of runs already in time order — needs
//!   no table either: a merge of the lanes visits every instant once in
//!   order, so the prefix maximum is one scalar, `O(n log L)` over `L`
//!   lanes with nothing allocated beyond the `L` cursors.
//!
//! Every way, an operation's verdict is its *magnitude*: how far the
//! largest value that finished before it started lies above its own
//! (0 for a linearizable operation). [`count_nonlinearizable_naive`],
//! [`worst_witness`] and [`check_exhaustive`] are the reference
//! implementations the three are tested against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::execution::Operation;
use crate::link::Time;

/// A timeline is dense when its last end tick is at most this many
/// ticks per operation: the tick-indexed table then takes at most
/// twice the scratch of the sorted one (native traces sit at 2, where
/// the two are the same size).
pub const DENSE_TICKS_PER_OP: u64 = 4;

/// The last end tick of a dense timeline, `None` for a sparse one.
fn dense_last_end(ops: &[Operation]) -> Option<usize> {
    let last_end = ops.iter().map(|o| o.end).max().unwrap_or(0);
    let budget = (ops.len() as u64).saturating_mul(DENSE_TICKS_PER_OP);
    (last_end <= budget).then_some(last_end as usize)
}

/// Whether [`count_nonlinearizable`] indexes its table by tick for this
/// trace (no sort) or sorts the ends: `max end <= 4 n`.
#[must_use]
pub fn is_dense_timeline(ops: &[Operation]) -> bool {
    dense_last_end(ops).is_some()
}

/// The table over a whole trace, in the layout the trace selects.
enum Table {
    /// Slot `t` holds the maximum over `end < t`; the last slot (one
    /// past the last end) covers every later instant.
    Dense(Vec<u64>),
    /// `(end, maximum value over this entry and every earlier one)`,
    /// ends ascending.
    Sorted(Vec<(Time, u64)>),
}

impl Table {
    fn of(ops: &[Operation]) -> Self {
        let Some(last_end) = dense_last_end(ops) else {
            let mut pairs: Vec<(Time, u64)> = ops.iter().map(|o| (o.end, o.value)).collect();
            pairs.sort_unstable_by_key(|&(end, _)| end);
            let mut running = 0;
            for (_, value) in &mut pairs {
                running = running.max(*value);
                *value = running;
            }
            return Table::Sorted(pairs);
        };
        let mut slots = vec![0u64; last_end + 2];
        for o in ops {
            let slot = &mut slots[o.end as usize + 1];
            *slot = (*slot).max(o.value);
        }
        let mut running = 0;
        for slot in &mut slots {
            running = running.max(*slot);
            *slot = running;
        }
        Table::Dense(slots)
    }

    /// The largest value among operations with `end < t`, 0 when there
    /// is none (a maximum of 0 exceeds no value).
    fn before(&self, t: Time) -> u64 {
        match self {
            Table::Dense(slots) => slots[(t.min(slots.len() as u64 - 1)) as usize],
            Table::Sorted(pairs) => match pairs.partition_point(|&(end, _)| end < t) {
                0 => 0,
                idx => pairs[idx - 1].1,
            },
        }
    }
}

/// Definition 2.4 for a feed in time order: each operation's *witness*
/// — the largest value among completions with `end < start` — read when
/// it starts, with no table.
///
/// Fed in time order, every completion with `end < t` has been recorded
/// when an operation starts at `t`, and the only recorded ones it must
/// not count are those at the latest end tick, if that tick is `t`
/// itself. Two running maxima split at that tick give the exact
/// witness, so ends and starts at one instant may come in either
/// order. The operation's magnitude is then
/// `witness.saturating_sub(value)` — the verdict [`magnitudes`] gives
/// over the whole trace. "Nothing has finished yet" reads 0.
///
/// # Example
///
/// ```
/// use cnet_timing::linearizability::StartWitness;
///
/// let mut finished = StartWitness::default();
/// finished.record(3, 9); // value 9 finishes at tick 3
/// assert_eq!(finished.witness(3), 0); // a start at 3 overlaps it
/// assert_eq!(finished.witness(4), 9); // one at 4 returning 1 is 8 late
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StartWitness {
    /// The latest end tick recorded.
    last_end: Time,
    /// The largest value among completions before `last_end`.
    max_before_last: u64,
    /// The largest value among all completions recorded.
    max: u64,
}

impl StartWitness {
    /// The largest value among completions with `end < start`, for an
    /// operation starting now: no recorded end lies past `start`.
    #[inline]
    #[must_use]
    pub fn witness(&self, start: Time) -> u64 {
        if self.last_end < start {
            self.max
        } else {
            self.max_before_last
        }
    }

    /// Records a completion of `value` at `end`, no earlier than any
    /// end or start fed before it.
    #[inline]
    pub fn record(&mut self, end: Time, value: u64) {
        if end > self.last_end {
            self.max_before_last = self.max;
            self.last_end = end;
        }
        self.max = self.max.max(value);
    }
}

/// Every operation's violation magnitude, in trace order: how far the
/// largest value that finished before it started lies above its own,
/// 0 for a linearizable operation. `O(n + T)` on a dense timeline
/// whose last tick is `T`, `O(n log n)` otherwise.
pub fn magnitudes(ops: &[Operation]) -> impl Iterator<Item = u64> + '_ {
    let finished = Table::of(ops);
    ops.iter()
        .map(move |op| finished.before(op.start).saturating_sub(op.value))
}

/// The non-linearizable operations of `ops`, in trace order.
fn nonlinearizable(ops: &[Operation]) -> impl Iterator<Item = &Operation> {
    ops.iter()
        .zip(magnitudes(ops))
        .filter_map(|(op, magnitude)| (magnitude > 0).then_some(op))
}

/// Counts non-linearizable operations (Definition 2.4): the non-zero
/// [`magnitudes`].
///
/// # Example
///
/// ```
/// use cnet_timing::{linearizability, Operation};
///
/// let ops = [
///     Operation { token: 0, input: 0, start: 0, end: 3, value: 1, counter: 1 },
///     Operation { token: 1, input: 0, start: 4, end: 6, value: 0, counter: 0 },
/// ];
/// // token 0 finished before token 1 started, but returned a larger
/// // value, so token 1's operation is non-linearizable.
/// assert_eq!(linearizability::count_nonlinearizable(&ops), 1);
/// ```
#[must_use]
pub fn count_nonlinearizable(ops: &[Operation]) -> usize {
    nonlinearizable(ops).count()
}

/// The tokens whose operations are non-linearizable, in trace order.
#[must_use]
pub fn nonlinearizable_tokens(ops: &[Operation]) -> Vec<usize> {
    nonlinearizable(ops).map(|op| op.token).collect()
}

/// Why [`lane_magnitudes`] refused its input: record `index` of lane
/// `lane` does not end after it starts, or does not start after its
/// predecessor ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOrderError {
    /// The offending lane.
    pub lane: usize,
    /// The offending record within it, counted across the lane's runs.
    pub index: usize,
}

impl std::fmt::Display for LaneOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lane {} is not sequential at record {}: want start < end < next start",
            self.lane, self.index
        )
    }
}

impl std::error::Error for LaneOrderError {}

/// A lane's next instant in the merge: the start of record `index` of
/// run `run`, or its end. Ordered by instant, a start before an end at
/// the same one (`end == start` is overlap under the strict definition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LaneCursor {
    tick: Time,
    at_end: bool,
    lane: usize,
    run: usize,
    index: usize,
}

impl LaneCursor {
    /// Moves to the start of the lane's first record at or after record
    /// `index` of run `run`, past any empty run, and refuses it unless
    /// it is the next operation of one sequential client: it ends after
    /// it starts, and starts after `after`, its predecessor's end.
    /// `Ok(false)` when the lane has no record left.
    fn seek(
        &mut self,
        runs: &[&[Operation]],
        mut run: usize,
        mut index: usize,
        after: Option<Time>,
    ) -> Result<bool, LaneOrderError> {
        while runs.get(run).is_some_and(|records| index == records.len()) {
            (run, index) = (run + 1, 0);
        }
        let Some(op) = runs.get(run).map(|records| &records[index]) else {
            return Ok(false);
        };
        if op.start < op.end && after.is_none_or(|end| end < op.start) {
            (self.tick, self.at_end, self.run, self.index) = (op.start, false, run, index);
            Ok(true)
        } else {
            let before: usize = runs[..run].iter().map(|records| records.len()).sum();
            Err(LaneOrderError {
                lane: self.lane,
                index: before + index,
            })
        }
    }
}

/// Reports every operation's violation magnitude — the multiset
/// [`magnitudes`] yields over the same operations — for a trace held as
/// *lanes*: each lane one sequential stream of operations with
/// `start < end < next start`, what a client thread that brackets its
/// own operations with a shared clock leaves behind. A lane is a list
/// of *runs*, slices read one after another: the chunks of a shared
/// buffer a thread wrote, in the order it claimed them.
///
/// The lanes are merged by instant, the leading lane running on until
/// the runner-up's next one; the maximum of finished values is then a
/// single scalar, raised at an end and read at a start. `O(n log L)`
/// for `n` operations on `L` lanes (a heap operation per stretch a lane
/// leads, so a lane that leads for long stretches costs `O(1)` per
/// operation), no allocation beyond the `L` cursors. Each operation is
/// reported with its magnitude in start order, not lane order.
///
/// # Errors
///
/// A lane that is not sequential would be merged out of order and
/// mis-counted, so its first offending record is refused by
/// `(lane, index)`, the index counted across the lane's runs; what was
/// reported before the refusal is to be discarded.
///
/// # Example
///
/// ```
/// use cnet_timing::linearizability::lane_magnitudes;
/// use cnet_timing::Operation;
///
/// let op = |start, end, value| Operation { start, end, value, ..Operation::default() };
/// // value 7 finishes at tick 1 on one thread, which then runs on in a
/// // second run; another thread starts at tick 2 and returns 2
/// let (one, two) = ([op(0, 1, 7), op(4, 5, 8)], [op(2, 3, 2)]);
/// let lanes = [vec![&one[..1], &one[1..]], vec![&two[..]]];
/// let mut seen = Vec::new();
/// lane_magnitudes(&lanes, |op, magnitude| seen.push((op.value, magnitude))).unwrap();
/// assert_eq!(seen, [(7, 0), (2, 5), (8, 0)]);
/// ```
pub fn lane_magnitudes(
    lanes: &[Vec<&[Operation]>],
    mut report: impl FnMut(&Operation, u64),
) -> Result<(), LaneOrderError> {
    let mut heads = BinaryHeap::with_capacity(lanes.len());
    for (lane, runs) in lanes.iter().enumerate() {
        let mut head = LaneCursor {
            tick: 0,
            at_end: false,
            lane,
            run: 0,
            index: 0,
        };
        if head.seek(runs, 0, 0, None)? {
            heads.push(Reverse(head));
        }
    }
    let mut running = 0u64;
    while let Some(Reverse(mut lead)) = heads.pop() {
        // the leader keeps going while its next instant is not past the
        // runner-up's; two starts or two ends at one instant commute
        let bound = heads
            .peek()
            .map_or((Time::MAX, true), |Reverse(next)| (next.tick, next.at_end));
        let runs = &lanes[lead.lane];
        let mut records = runs[lead.run];
        loop {
            let op = &records[lead.index];
            if !lead.at_end {
                report(op, running.saturating_sub(op.value));
                (lead.tick, lead.at_end) = (op.end, true);
            } else {
                running = running.max(op.value);
                match records.get(lead.index + 1) {
                    Some(next) if op.end < next.start && next.start < next.end => {
                        lead.index += 1;
                        (lead.tick, lead.at_end) = (next.start, false);
                    }
                    // the run's end, or a record to refuse: both are seek's
                    _ => {
                        if !lead.seek(runs, lead.run, lead.index + 1, Some(op.end))? {
                            break;
                        }
                        records = runs[lead.run];
                    }
                }
            }
            if (lead.tick, lead.at_end) > bound {
                heads.push(Reverse(lead));
                break;
            }
        }
    }
    Ok(())
}

/// Quadratic reference implementation of [`count_nonlinearizable`],
/// used for differential testing.
#[must_use]
pub fn count_nonlinearizable_naive(ops: &[Operation]) -> usize {
    ops.iter()
        .filter(|o| ops.iter().any(|p| p.end < o.start && p.value > o.value))
        .count()
}

/// Maximum trace size [`check_exhaustive`] accepts; beyond it the
/// permutation search (exponential in the worst case) is refused.
pub const EXHAUSTIVE_MAX_OPS: usize = 16;

/// Brute-force linearizability **oracle**: decides, by permutation
/// search, whether the execution is linearizable *as a
/// fetch-and-increment counter* — i.e. whether some total order of the
/// operations (a) extends the real-time precedence relation
/// (`p.end < o.start` ⟹ `p` before `o`, Definition 2.3's "completely
/// precedes") and (b) returns the counting sequence `0, 1, 2, …`.
/// Returns the witness order (operation indices) if one exists.
///
/// The search places operations one at a time: the `k`-th slot can
/// only take a not-yet-placed operation whose value is exactly `k` and
/// which no other unplaced operation completely precedes. Traces with
/// pairwise-distinct values therefore admit at most one candidate per
/// slot and the search is effectively linear; duplicated values (which
/// only buggy counters produce) branch, which is why the input size is
/// capped at [`EXHAUSTIVE_MAX_OPS`].
///
/// Relation to the sweep: for traces whose values are a permutation of
/// `0..n` — every trace a *correct* counter can produce — the unique
/// candidate linearization is sort-by-value, so the oracle answers
/// `Some` exactly when [`count_nonlinearizable`] is zero (the
/// differential property `tests/oracle.rs` checks on thousands of
/// random executions). On traces with duplicated or skipped values the
/// oracle is strictly stronger: it answers `None` even though the
/// Definition 2.4 sweep, which only measures reordering, may count
/// nothing. That is what makes it the right acceptance check for
/// model-checked executions, where an injected atomicity bug shows up
/// as a duplicate before it shows up as a reordering.
///
/// # Panics
///
/// Panics if `ops.len() > EXHAUSTIVE_MAX_OPS`.
///
/// # Example
///
/// ```
/// use cnet_timing::{linearizability, Operation};
///
/// let ok = [
///     Operation { token: 0, input: 0, start: 0, end: 3, value: 0, counter: 0 },
///     Operation { token: 1, input: 0, start: 1, end: 4, value: 1, counter: 1 },
/// ];
/// assert_eq!(linearizability::check_exhaustive(&ok), Some(vec![0, 1]));
///
/// // value 1 completely precedes value 0: no valid counting order
/// let bad = [
///     Operation { token: 0, input: 0, start: 0, end: 1, value: 1, counter: 1 },
///     Operation { token: 1, input: 0, start: 2, end: 3, value: 0, counter: 0 },
/// ];
/// assert_eq!(linearizability::check_exhaustive(&bad), None);
/// ```
#[must_use]
pub fn check_exhaustive(ops: &[Operation]) -> Option<Vec<usize>> {
    assert!(
        ops.len() <= EXHAUSTIVE_MAX_OPS,
        "check_exhaustive is a brute-force oracle for at most {EXHAUSTIVE_MAX_OPS} operations \
         (got {}); use count_nonlinearizable for measurement-sized traces",
        ops.len()
    );
    let mut order = Vec::with_capacity(ops.len());
    if place_next(ops, &mut order, 0) {
        Some(order)
    } else {
        None
    }
}

/// Depth-first placement: tries every eligible operation for slot
/// `order.len()` and backtracks. `used` is a bitmask over `ops`.
fn place_next(ops: &[Operation], order: &mut Vec<usize>, used: u32) -> bool {
    let n = ops.len();
    if order.len() == n {
        return true;
    }
    let next_value = order.len() as u64;
    for i in 0..n {
        if used & (1 << i) != 0 || ops[i].value != next_value {
            continue;
        }
        // precedence-minimal among the unplaced: placing i now would
        // otherwise put it before an operation that completely
        // precedes it
        let blocked = (0..n).any(|j| j != i && used & (1 << j) == 0 && ops[j].end < ops[i].start);
        if blocked {
            continue;
        }
        order.push(i);
        if place_next(ops, order, used | (1 << i)) {
            return true;
        }
        order.pop();
    }
    false
}

/// The fraction of non-linearizable operations (`0.0` for an empty
/// execution).
#[must_use]
pub fn nonlinearizable_ratio(ops: &[Operation]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    count_nonlinearizable(ops) as f64 / ops.len() as f64
}

/// All violating pairs `(earlier, later)`: `earlier` completely
/// precedes `later` and returned a higher value.
///
/// This enumerates every pair (quadratic) and is meant for diagnostics
/// and small executions; use [`count_nonlinearizable`] for measurement.
#[must_use]
pub fn violations(ops: &[Operation]) -> Vec<(Operation, Operation)> {
    let mut out = Vec::new();
    for o in ops {
        for p in ops {
            if p.end < o.start && p.value > o.value {
                out.push((*p, *o));
            }
        }
    }
    out
}

/// For one non-linearizable operation, the witness with the largest
/// value among its violating predecessors, if any.
#[must_use]
pub fn worst_witness(ops: &[Operation], op: &Operation) -> Option<Operation> {
    ops.iter()
        .filter(|p| p.end < op.start && p.value > op.value)
        .max_by_key(|p| p.value)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn op(token: usize, start: u64, end: u64, value: u64) -> Operation {
        Operation {
            token,
            input: 0,
            start,
            end,
            counter: 0,
            value,
        }
    }

    #[test]
    fn empty_and_singleton_are_linearizable() {
        assert_eq!(count_nonlinearizable(&[]), 0);
        assert_eq!(nonlinearizable_ratio(&[]), 0.0);
        assert_eq!(count_nonlinearizable(&[op(0, 0, 1, 5)]), 0);
    }

    #[test]
    fn overlapping_operations_never_violate() {
        // identical intervals, any values
        let ops = [op(0, 0, 10, 5), op(1, 5, 15, 0), op(2, 9, 30, 2)];
        assert_eq!(count_nonlinearizable(&ops), 0);
    }

    #[test]
    fn touching_intervals_do_not_violate() {
        // end == start means overlap under the strict definition
        let ops = [op(0, 0, 5, 9), op(1, 5, 8, 0)];
        assert_eq!(count_nonlinearizable(&ops), 0);
    }

    #[test]
    fn simple_violation_detected() {
        let ops = [op(0, 0, 3, 7), op(1, 4, 6, 2)];
        assert_eq!(count_nonlinearizable(&ops), 1);
        assert_eq!(nonlinearizable_tokens(&ops), vec![1]);
        let v = violations(&ops);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.token, 0);
        assert_eq!(v[0].1.token, 1);
    }

    #[test]
    fn one_bad_op_counted_once_despite_many_witnesses() {
        let ops = [op(0, 0, 1, 9), op(1, 0, 2, 8), op(2, 5, 6, 3)];
        assert_eq!(count_nonlinearizable(&ops), 1);
        assert_eq!(worst_witness(&ops, &ops[2]).unwrap().token, 0);
    }

    #[test]
    fn cascade_counts_each_bad_op() {
        // token 0 returns the largest value first; everything after it
        // is non-linearizable.
        let ops = [
            op(0, 0, 1, 10),
            op(1, 2, 3, 1),
            op(2, 4, 5, 2),
            op(3, 6, 7, 3),
        ];
        assert_eq!(count_nonlinearizable(&ops), 3);
        assert!((nonlinearizable_ratio(&ops) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn worst_witness_none_when_clean() {
        let ops = [op(0, 0, 1, 0), op(1, 2, 3, 1)];
        assert_eq!(worst_witness(&ops, &ops[1]), None);
    }

    /// The sweep's magnitudes over lanes of `(start, end, value)`
    /// records, the same whether each lane is one run, runs of two, or
    /// runs of one with an empty run between each two.
    fn swept(lanes: &[Vec<(Time, Time, u64)>]) -> Result<Vec<u64>, LaneOrderError> {
        let ops: Vec<Vec<Operation>> = lanes
            .iter()
            .map(|lane| lane.iter().map(|&(s, e, v)| op(0, s, e, v)).collect())
            .collect();
        let split = |runs: fn(&[Operation]) -> Vec<&[Operation]>| -> Result<Vec<u64>, _> {
            let lanes: Vec<Vec<&[Operation]>> = ops.iter().map(|lane| runs(lane)).collect();
            let mut seen = Vec::new();
            lane_magnitudes(&lanes, |_, magnitude| seen.push(magnitude))?;
            Ok(seen)
        };
        let whole = split(|lane| vec![lane]);
        assert_eq!(split(|lane| lane.chunks(2).collect()), whole);
        let gapped = split(|lane| lane.chunks(1).flat_map(|run| [run, &[]]).collect());
        assert_eq!(gapped, whole);
        whole
    }

    #[test]
    fn lanes_are_graded_in_start_order_against_one_running_maximum() {
        // lane 0 returns 9 early; lane 1's first operation overlaps it,
        // its second and lane 0's second start after it finished
        let lanes = [vec![(0, 3, 9), (8, 9, 4)], vec![(1, 5, 0), (6, 7, 1)]];
        assert_eq!(swept(&lanes), Ok(vec![0, 0, 8, 5]));
        assert_eq!(swept(&[]), Ok(vec![]));
        assert_eq!(swept(&[vec![], vec![(0, 1, 3)], vec![]]), Ok(vec![0]));
    }

    #[test]
    fn an_end_and_a_start_at_one_instant_overlap_across_lanes() {
        // same trace as touching_intervals_do_not_violate
        assert_eq!(swept(&[vec![(0, 5, 9)], vec![(5, 8, 0)]]), Ok(vec![0, 0]));
        assert_eq!(swept(&[vec![(5, 8, 0)], vec![(0, 5, 9)]]), Ok(vec![0, 0]));
        assert_eq!(swept(&[vec![(0, 5, 9)], vec![(6, 8, 0)]]), Ok(vec![0, 9]));
    }

    #[test]
    fn a_lane_that_is_not_sequential_is_refused_where_it_breaks() {
        let refused = |lane, index| Err(LaneOrderError { lane, index });
        assert_eq!(swept(&[vec![(0, 1, 0)], vec![(3, 3, 1)]]), refused(1, 0));
        assert_eq!(swept(&[vec![(0, 1, 0), (5, 4, 1)]]), refused(0, 1));
        // starts at its predecessor's end: in one lane that is no overlap
        assert_eq!(swept(&[vec![(0, 2, 0), (2, 3, 1)]]), refused(0, 1));
        assert_eq!(
            swept(&[vec![(0, 9, 0)], vec![(1, 4, 2), (3, 6, 1)]]),
            refused(1, 1)
        );
    }

    #[test]
    fn a_record_out_of_order_in_a_later_run_is_refused_by_its_place_in_the_lane() {
        let ops = [
            op(0, 0, 1, 0),
            op(1, 2, 3, 1),
            op(2, 6, 7, 2),
            op(3, 4, 5, 3),
        ];
        // lane 1's second run starts before its first run's last end
        let lanes = [vec![&ops[..1]], vec![&ops[1..3], &[][..], &ops[3..]]];
        let mut seen = 0;
        assert_eq!(
            lane_magnitudes(&lanes, |_, _| seen += 1),
            Err(LaneOrderError { lane: 1, index: 2 })
        );
        assert!(seen <= 3);
    }

    #[test]
    fn exhaustive_oracle_empty_and_singleton() {
        assert_eq!(check_exhaustive(&[]), Some(vec![]));
        assert_eq!(check_exhaustive(&[op(0, 0, 1, 0)]), Some(vec![0]));
        // a lone operation returning 1 skipped the value 0
        assert_eq!(check_exhaustive(&[op(0, 0, 1, 1)]), None);
    }

    #[test]
    fn exhaustive_oracle_orders_overlapping_operations_freely() {
        // values arrive in reverse recording order, but the intervals
        // overlap, so the counting order [1, 0] is a valid
        // linearization
        let ops = [op(0, 0, 10, 1), op(1, 1, 9, 0)];
        assert_eq!(check_exhaustive(&ops), Some(vec![1, 0]));
    }

    #[test]
    fn exhaustive_oracle_rejects_duplicates_and_gaps_the_sweep_misses() {
        // fully overlapping intervals: no "completely precedes" pairs
        // exist, so the Definition 2.4 sweep has nothing to count —
        // but no counting linearization returns 0 twice...
        let dup = [op(0, 0, 10, 0), op(1, 1, 9, 0)];
        assert_eq!(count_nonlinearizable(&dup), 0);
        assert_eq!(check_exhaustive(&dup), None);
        // ...or skips 1
        let gap = [op(0, 0, 10, 0), op(1, 1, 9, 2)];
        assert_eq!(count_nonlinearizable(&gap), 0);
        assert_eq!(check_exhaustive(&gap), None);
    }

    #[test]
    fn exhaustive_oracle_detects_the_reordering_violation() {
        // same trace as simple_violation_detected: value 7 completely
        // precedes value 2
        let ops = [op(0, 0, 3, 7), op(1, 4, 6, 2)];
        assert_eq!(check_exhaustive(&ops), None);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn exhaustive_oracle_refuses_large_traces() {
        let ops: Vec<Operation> = (0..=EXHAUSTIVE_MAX_OPS)
            .map(|i| op(i, 2 * i as u64, 2 * i as u64 + 1, i as u64))
            .collect();
        let _ = check_exhaustive(&ops);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep agrees with the quadratic reference on arbitrary
        /// operation sets (including ties in starts, ends, and values).
        #[test]
        fn sweep_matches_naive(
            raw in proptest::collection::vec((0u64..50, 1u64..20, 0u64..30), 0..60)
        ) {
            let ops: Vec<Operation> = raw
                .iter()
                .enumerate()
                .map(|(i, &(start, len, value))| op(i, start, start + len, value))
                .collect();
            prop_assert_eq!(
                count_nonlinearizable(&ops),
                count_nonlinearizable_naive(&ops)
            );
        }

        /// Sequential executions (each op starts after the previous
        /// ends) with increasing values are always linearizable.
        #[test]
        fn sequential_increasing_is_clean(lens in proptest::collection::vec(1u64..10, 1..40)) {
            let mut t = 0u64;
            let mut ops = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                ops.push(op(i, t, t + len, i as u64));
                t += len + 1;
            }
            prop_assert_eq!(count_nonlinearizable(&ops), 0);
        }
    }
}
