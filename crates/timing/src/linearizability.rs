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
//! values, indexed by time, exceeds my value at my start", so
//! [`count_nonlinearizable`] is one scan over the trace against that
//! prefix-maximum table. How the table is laid out is read off the
//! trace ([`is_dense_timeline`]): a *dense* timeline — the native
//! backends' logical clock, which hands out the ticks `0..2n` once each
//! — indexes it by tick and is built in `O(n + T)` with no sort; a
//! *sparse* one (simulator cycles) sorts the `(end, value)` pairs once
//! and looks a start up by binary search, `O(n log n)`.
//! [`count_nonlinearizable_naive`] is the quadratic reference
//! implementation used to property-test both layouts.

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

/// The prefix maximum of finished values, indexed by time.
///
/// "Nothing has finished yet" reads 0: a maximum of 0 exceeds no
/// value, so it needs no encoding of its own.
enum FinishedMax {
    /// Slot `t` holds the maximum over `end < t`; the last slot (one
    /// past the last end) covers every later instant.
    Dense(Vec<u64>),
    /// `(end, running maximum)` pairs, ends ascending.
    Sparse(Vec<(Time, u64)>),
}

impl FinishedMax {
    fn of(ops: &[Operation]) -> Self {
        if let Some(last_end) = dense_last_end(ops) {
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
            FinishedMax::Dense(slots)
        } else {
            let mut pairs: Vec<(Time, u64)> = ops.iter().map(|o| (o.end, o.value)).collect();
            pairs.sort_unstable_by_key(|&(end, _)| end);
            let mut running = 0;
            for (_, value) in &mut pairs {
                running = running.max(*value);
                *value = running;
            }
            FinishedMax::Sparse(pairs)
        }
    }

    /// The largest value among operations with `end < t`.
    fn before(&self, t: Time) -> u64 {
        match self {
            FinishedMax::Dense(slots) => slots[(t.min(slots.len() as u64 - 1)) as usize],
            FinishedMax::Sparse(pairs) => max_finished_before(pairs, t),
        }
    }
}

/// Looks `t` up in `(end, running maximum)` pairs sorted by end: the
/// largest value among the pairs with `end < t`, 0 when there is none.
fn max_finished_before(finished: &[(Time, u64)], t: Time) -> u64 {
    match finished.partition_point(|&(end, _)| end < t) {
        0 => 0,
        idx => finished[idx - 1].1,
    }
}

/// The non-linearizable operations of `ops`, in trace order.
fn nonlinearizable(ops: &[Operation]) -> impl Iterator<Item = &Operation> {
    let finished = FinishedMax::of(ops);
    ops.iter()
        .filter(move |op| finished.before(op.start) > op.value)
}

/// Counts non-linearizable operations (Definition 2.4): `O(n + T)` on
/// a dense timeline whose last tick is `T`, `O(n log n)` otherwise.
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

/// An online (streaming) violation counter.
///
/// Feed operations in *completion order* (non-decreasing `end`); the
/// checker counts Definition 2.4 victims incrementally with O(pending)
/// memory — operations are buffered only until everything that could
/// still precede them has been seen.
///
/// # Example
///
/// ```
/// use cnet_timing::linearizability::OnlineChecker;
/// use cnet_timing::Operation;
///
/// let mut checker = OnlineChecker::new();
/// checker.observe(Operation { token: 0, input: 0, start: 0, end: 3, counter: 0, value: 9 });
/// checker.observe(Operation { token: 1, input: 0, start: 4, end: 6, counter: 0, value: 1 });
/// assert_eq!(checker.finish(), 1);
/// ```
#[derive(Debug, Default)]
pub struct OnlineChecker {
    /// Operations whose verdict may still depend on unseen completions:
    /// an op with `start > last_end` could still be preceded by a
    /// not-yet-completed op… no — completions arrive in order, so any
    /// *future* completion ends later than `last_end` and can only
    /// precede ops starting after it. Ops become decidable once
    /// `last_end >= start`.
    pending: Vec<Operation>,
    /// Largest value among operations with `end < t` as a running
    /// prefix structure: (end, running max value) pairs, ends ascending.
    finished: Vec<(Time, u64)>,
    last_end: Time,
    violations: usize,
    observed: usize,
}

impl OnlineChecker {
    /// Creates an empty checker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Operations observed so far.
    #[must_use]
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Feeds the next completed operation.
    ///
    /// # Panics
    ///
    /// Panics if `op.end` is smaller than a previously observed end
    /// (completion order violated).
    pub fn observe(&mut self, op: Operation) {
        assert!(
            op.end >= self.last_end,
            "operations must be observed in completion order"
        );
        self.last_end = op.end;
        self.observed += 1;

        // settle pending ops whose start is now in the past: every
        // operation that could precede them has been recorded
        self.settle(op.end);

        self.pending.push(op);

        // record this completion in the prefix-max structure
        let running = self
            .finished
            .last()
            .map_or(op.value, |&(_, m)| m.max(op.value));
        self.finished.push((op.end, running));
    }

    /// Decides every pending op with `start <= horizon` — wait,
    /// precedence is strict (`end < start`), and future completions
    /// have `end >= horizon`, so an op is decidable once
    /// `horizon >= start`.
    fn settle(&mut self, horizon: Time) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].start <= horizon {
                let op = self.pending.swap_remove(i);
                if max_finished_before(&self.finished, op.start) > op.value {
                    self.violations += 1;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Settles every remaining operation and returns the final
    /// violation count.
    #[must_use]
    pub fn finish(mut self) -> usize {
        self.settle(Time::MAX);
        self.violations
    }
}

#[cfg(test)]
mod online_tests {
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
    fn empty_is_clean() {
        assert_eq!(OnlineChecker::new().finish(), 0);
    }

    #[test]
    fn detects_the_intro_violation() {
        let mut c = OnlineChecker::new();
        c.observe(op(1, 1, 3, 1));
        c.observe(op(2, 4, 6, 0));
        c.observe(op(0, 0, 8, 2));
        assert_eq!(c.observed(), 3);
        assert_eq!(c.finish(), 1);
    }

    #[test]
    #[should_panic(expected = "completion order")]
    fn out_of_order_completion_panics() {
        let mut c = OnlineChecker::new();
        c.observe(op(0, 0, 10, 0));
        c.observe(op(1, 0, 5, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The online checker agrees with the batch sweep on arbitrary
        /// traces (fed in completion order).
        #[test]
        fn online_matches_batch(
            raw in proptest::collection::vec((0u64..60, 1u64..25, 0u64..40), 0..80)
        ) {
            let mut ops: Vec<Operation> = raw
                .iter()
                .enumerate()
                .map(|(i, &(start, len, value))| op(i, start, start + len, value))
                .collect();
            let batch = count_nonlinearizable(&ops);
            ops.sort_by_key(|o| o.end);
            let mut online = OnlineChecker::new();
            for o in &ops {
                online.observe(*o);
            }
            prop_assert_eq!(online.finish(), batch);
        }
    }
}
