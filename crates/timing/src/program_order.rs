//! Program-order (sequential-consistency-style) checking.
//!
//! The paper points out that linearizability "is related to (but not
//! identical with)" sequential consistency. For a counting trace the
//! natural program-order condition is: the successive operations of a
//! single process must return increasing values (a process's operations
//! never overlap each other, so this is the per-process restriction of
//! Definition 2.4).
//!
//! When a process's operations are separated in real time (each starts
//! strictly after the previous one's response), every program-order
//! violation is also a Definition 2.4 violation, but not vice versa —
//! two *different* processes can observe a real-time inversion that no
//! single process ever sees. Comparing the two counts on the same
//! trace quantifies how much of the non-linearizability is even
//! *observable* without an external real-time clock. (On traces where
//! consecutive operations of a process *abut* exactly — `end == next
//! start` — program order still orders them while Definition 2.4's
//! strict precedence does not, so the inclusion needs that strictness
//! assumption.)

use crate::execution::Operation;
use crate::linearizability;

/// A process id extractor: which process issued an operation.
///
/// The simulator and the stress harnesses record the processor/thread
/// in [`Operation::input`]; traces with a different convention can
/// supply their own extractor.
pub type ProcessOf = fn(&Operation) -> usize;

/// The default extractor: the `input` field.
#[must_use]
pub fn by_input(op: &Operation) -> usize {
    op.input as usize
}

/// Counts operations that return a *smaller* value than an earlier
/// operation of the same process (the later operation is the one
/// counted, mirroring Definition 2.4).
#[must_use]
pub fn count_program_order_violations(ops: &[Operation], process_of: ProcessOf) -> usize {
    count_program_order_violations_by(ops, |i| process_of(&ops[i]))
}

/// Like [`count_program_order_violations`], but the process of each
/// operation is looked up *by index* — so a caller holding a
/// `completed_by` map beside the trace ([`RunStats`], per operation or
/// per chunk of slots) needs neither to clone nor to re-tag it.
///
/// A process's program order is the start order of its operations.
/// Recorded traces list each process's operations in that order
/// already (a processor's successive operations complete one after
/// the other), so one walk with a `(last start, maximum value)` pair
/// per process counts them. A trace where some process's operations
/// appear out of start order — overlapping open-loop tokens of one
/// client, a shuffled file — or whose process ids are too sparse to
/// index a table by is counted by the general path instead: one index
/// sort by start time, then the same walk. The count is the same
/// either way.
///
/// # Panics
///
/// Panics if the trace holds more than `u32::MAX` operations (the
/// sort path's index is `u32`; a longer trace would alias).
///
/// [`RunStats`]: https://docs.rs/cnet-proteus
#[must_use]
pub fn count_program_order_violations_by<F: FnMut(usize) -> usize>(
    ops: &[Operation],
    mut process_of: F,
) -> usize {
    assert!(u32::try_from(ops.len()).is_ok(), "trace too large");
    count_in_trace_order(ops, &mut process_of)
        .unwrap_or_else(|| count_sorted_by_start(ops, &mut process_of))
}

/// The one-pass count, or `None` when the trace is not in per-process
/// start order (or a process id is beyond the dense table).
fn count_in_trace_order(
    ops: &[Operation],
    process_of: &mut impl FnMut(usize) -> usize,
) -> Option<usize> {
    // a table this much larger than the trace is a sparse id space
    let dense_limit = ops.len().max(1 << 10);
    // per process: (start of its latest operation, largest value)
    let mut seen: Vec<Option<(u64, u64)>> = Vec::new();
    let mut violations = 0;
    for (i, op) in ops.iter().enumerate() {
        let process = process_of(i);
        if process >= seen.len() {
            if process >= dense_limit {
                return None;
            }
            seen.resize(process + 1, None);
        }
        seen[process] = Some(match seen[process] {
            None => (op.start, op.value),
            Some((last_start, _)) if op.start <= last_start => return None,
            Some((_, max)) => {
                violations += usize::from(op.value < max);
                (op.start, max.max(op.value))
            }
        });
    }
    Some(violations)
}

/// The general count: walking *all* operations in global start order
/// while keeping one running maximum per process visits each process's
/// operations in its program order, whatever order the trace lists
/// them in.
fn count_sorted_by_start(ops: &[Operation], process_of: &mut impl FnMut(usize) -> usize) -> usize {
    use std::collections::HashMap;
    let mut by_start: Vec<u32> = (0..ops.len() as u32).collect();
    by_start.sort_unstable_by_key(|&i| ops[i as usize].start);
    let mut max_of: HashMap<usize, u64> = HashMap::new();
    let mut violations = 0;
    for &i in &by_start {
        let op = &ops[i as usize];
        match max_of.entry(process_of(i as usize)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let m = *e.get();
                if op.value < m {
                    violations += 1;
                } else {
                    e.insert(op.value);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(op.value);
            }
        }
    }
    violations
}

/// Program-order violations as a fraction of all operations.
#[must_use]
pub fn program_order_violation_ratio(ops: &[Operation], process_of: ProcessOf) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    count_program_order_violations(ops, process_of) as f64 / ops.len() as f64
}

/// Both counts side by side: the full Definition 2.4 count and its
/// per-process restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsistencyBreakdown {
    /// Operations violating real-time order across all processes
    /// (Definition 2.4).
    pub linearizability_violations: usize,
    /// Operations violating their own process's program order.
    pub program_order_violations: usize,
    /// Total operations.
    pub operations: usize,
}

impl ConsistencyBreakdown {
    /// Computes both counts for a trace.
    #[must_use]
    pub fn compute(ops: &[Operation], process_of: ProcessOf) -> Self {
        ConsistencyBreakdown {
            linearizability_violations: linearizability::count_nonlinearizable(ops),
            program_order_violations: count_program_order_violations(ops, process_of),
            operations: ops.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(input: u32, start: u64, end: u64, value: u64) -> Operation {
        Operation {
            token: 0,
            input,
            start,
            end,
            counter: 0,
            value,
        }
    }

    #[test]
    fn empty_and_single_process_increasing() {
        assert_eq!(count_program_order_violations(&[], by_input), 0);
        let ops = [op(0, 0, 1, 0), op(0, 2, 3, 1), op(0, 4, 5, 2)];
        assert_eq!(count_program_order_violations(&ops, by_input), 0);
    }

    #[test]
    fn decreasing_value_within_a_process_is_flagged() {
        let ops = [op(0, 0, 1, 5), op(0, 2, 3, 2)];
        assert_eq!(count_program_order_violations(&ops, by_input), 1);
    }

    #[test]
    fn cross_process_inversion_is_not_program_order() {
        // process 0 returns 5, process 1 later returns 2: linearizability
        // violation, but neither process sees its own order break
        let ops = [op(0, 0, 1, 5), op(1, 2, 3, 2)];
        assert_eq!(count_program_order_violations(&ops, by_input), 0);
        let b = ConsistencyBreakdown::compute(&ops, by_input);
        assert_eq!(b.linearizability_violations, 1);
        assert_eq!(b.program_order_violations, 0);
        assert_eq!(b.operations, 2);
    }

    #[test]
    fn program_order_violations_are_linearizability_violations() {
        // same process: both checkers flag it
        let ops = [op(3, 0, 1, 5), op(3, 2, 3, 2)];
        let b = ConsistencyBreakdown::compute(&ops, by_input);
        assert_eq!(b.program_order_violations, 1);
        assert!(b.linearizability_violations >= 1);
    }

    #[test]
    fn each_later_dip_counts_once() {
        let ops = [
            op(0, 0, 1, 9),
            op(0, 2, 3, 1), // dip 1
            op(0, 4, 5, 2), // still below 9: dip 2
            op(0, 6, 7, 10),
        ];
        assert_eq!(count_program_order_violations(&ops, by_input), 2);
    }

    #[test]
    fn sparse_process_ids_are_counted_by_the_sort_path() {
        let ops = [op(u32::MAX, 0, 1, 5), op(u32::MAX, 2, 3, 2)];
        assert_eq!(count_in_trace_order(&ops, &mut |i| by_input(&ops[i])), None);
        assert_eq!(count_program_order_violations(&ops, by_input), 1);
    }

    #[test]
    fn one_pass_agrees_with_the_sort_path_on_random_traces() {
        let mut state = 0x5EED_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % bound
        };
        let (mut in_order, mut fell_back) = (0, 0);
        for trial in 0..1000 {
            let processes = 1 + next(5) as usize;
            let overlapping = trial % 5 < 2;
            let mut clock = vec![0u64; processes];
            let mut ops: Vec<Operation> = (0..2 + next(60))
                .map(|_| {
                    let p = next(processes as u64) as usize;
                    // a sequential process starts after its previous
                    // response; an overlapping one any time after its
                    // previous start
                    let start = clock[p] + 1 + next(20);
                    let end = start + 1 + next(40);
                    clock[p] = if overlapping { start } else { end };
                    op(p as u32, start, end, next(50))
                })
                .collect();
            // traces are recorded in completion order
            ops.sort_by_key(|o| o.end);
            let listed_in_start_order = (0..processes).all(|p| {
                let starts: Vec<u64> = ops
                    .iter()
                    .filter(|o| by_input(o) == p)
                    .map(|o| o.start)
                    .collect();
                starts.windows(2).all(|w| w[0] < w[1])
            });
            let sorted = count_sorted_by_start(&ops, &mut |i| by_input(&ops[i]));
            let one_pass = count_in_trace_order(&ops, &mut |i| by_input(&ops[i]));
            if listed_in_start_order {
                in_order += 1;
                assert_eq!(one_pass, Some(sorted), "trial {trial}");
            } else {
                fell_back += 1;
                assert_eq!(one_pass, None, "trial {trial}");
            }
            assert_eq!(
                count_program_order_violations(&ops, by_input),
                sorted,
                "trial {trial}"
            );
        }
        assert!(fell_back >= 333, "only {fell_back} traces overlapped");
        assert!(in_order >= 333, "only {in_order} traces were in order");
    }

    #[test]
    fn ratio_is_fractional() {
        let ops = [op(0, 0, 1, 5), op(0, 2, 3, 2)];
        assert!((program_order_violation_ratio(&ops, by_input) - 0.5).abs() < 1e-12);
        assert_eq!(program_order_violation_ratio(&[], by_input), 0.0);
    }
}
