//! Differential tests between the brute-force linearizability oracle
//! (`check_exhaustive`), the Definition 2.4 sweep on both of its table
//! layouts, and the quadratic reference.
//!
//! The key fact under test: for executions whose values form a
//! permutation of `0..n` — every trace a correct counter can produce —
//! the oracle answers `Some` exactly when the sweep counts zero
//! victims, because the only candidate counting linearization is
//! sort-by-value and a Definition 2.4 violation is precisely a
//! precedence pair that sort-by-value would invert.

use cnet_timing::linearizability::{
    check_exhaustive, count_nonlinearizable, count_nonlinearizable_naive, is_dense_timeline,
    nonlinearizable_tokens, DENSE_TICKS_PER_OP,
};
use cnet_timing::Operation;
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

/// A seeded Fisher–Yates permutation of `0..n` (the vendored proptest
/// stand-in has no `prop_shuffle`, so the shuffle seed is the
/// generated input instead).
fn shuffled(n: usize, mut seed: u64) -> Vec<u64> {
    let mut values: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (seed >> 33) as usize % (i + 1);
        values.swap(i, j);
    }
    values
}

/// An execution with the given (possibly overlapping, possibly tied)
/// intervals and a seed-determined permutation of `0..n` as values.
fn permutation_execution(intervals: &[(u64, u64)], seed: u64) -> Vec<Operation> {
    shuffled(intervals.len(), seed)
        .into_iter()
        .zip(intervals)
        .enumerate()
        .map(|(i, (value, &(start, len)))| op(i, start, start + len, value))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The three deciders agree on zero/nonzero for permutation-valued
    /// executions (the acceptance criterion's ≥1000 random cases).
    #[test]
    fn oracle_and_sweeps_agree_on_permutation_executions(
        intervals in proptest::collection::vec((0u64..40, 1u64..20), 0..11),
        seed in 0u64..u64::MAX,
    ) {
        let ops = permutation_execution(&intervals, seed);
        let sweep = count_nonlinearizable(&ops);
        let naive = count_nonlinearizable_naive(&ops);
        prop_assert_eq!(sweep, naive);
        prop_assert_eq!(
            check_exhaustive(&ops).is_some(),
            sweep == 0,
            "oracle and sweep disagree on {:?}",
            ops
        );
    }

    /// Whenever the oracle answers `Some`, the witness really is a
    /// linearization: values in counting order and real-time
    /// precedence respected.
    #[test]
    fn oracle_witness_is_a_valid_linearization(
        intervals in proptest::collection::vec((0u64..40, 1u64..20), 0..11),
        seed in 0u64..u64::MAX,
    ) {
        let ops = permutation_execution(&intervals, seed);
        if let Some(order) = check_exhaustive(&ops) {
            prop_assert_eq!(order.len(), ops.len());
            for (slot, &i) in order.iter().enumerate() {
                prop_assert_eq!(ops[i].value, slot as u64);
            }
            for (pos, &i) in order.iter().enumerate() {
                for &j in &order[pos + 1..] {
                    prop_assert!(
                        ops[j].end >= ops[i].start,
                        "witness places op {} before op {} which completely precedes it",
                        i,
                        j
                    );
                }
            }
        }
    }

    /// Planted Definition 2.4 violations: a sequential execution with
    /// the values of two (necessarily non-overlapping) operations
    /// swapped. All three deciders must flag it.
    #[test]
    fn planted_violations_flagged_by_all_three(
        lens in proptest::collection::vec(1u64..8, 2..12),
        picks in (0u64..1 << 32, 0u64..1 << 32),
    ) {
        let n = lens.len();
        let a = (picks.0 % n as u64) as usize;
        let mut b = (picks.1 % n as u64) as usize;
        if a == b {
            b = (a + 1) % n;
        }
        let (a, b) = (a.min(b), a.max(b));
        let mut t = 0u64;
        let mut ops = Vec::with_capacity(n);
        for (i, len) in lens.iter().enumerate() {
            ops.push(op(i, t, t + len, i as u64));
            t += len + 1;
        }
        // op a now completely precedes op b but returns the larger
        // value
        ops[a].value = b as u64;
        ops[b].value = a as u64;
        prop_assert!(count_nonlinearizable(&ops) > 0);
        prop_assert!(count_nonlinearizable_naive(&ops) > 0);
        prop_assert!(check_exhaustive(&ops).is_none());
    }
}

/// `ops` with every instant sent through `relabel`. Definition 2.4
/// only compares instants, so a strictly increasing relabelling keeps
/// every verdict and changes only how dense the timeline is.
fn relabelled(ops: &[Operation], relabel: impl Fn(u64) -> u64) -> Vec<Operation> {
    ops.iter()
        .map(|o| Operation {
            start: relabel(o.start),
            end: relabel(o.end),
            ..*o
        })
        .collect()
}

/// The victims by the letter of Definition 2.4, ascending.
fn naive_tokens(ops: &[Operation]) -> Vec<usize> {
    ops.iter()
        .filter(|o| ops.iter().any(|p| p.end < o.start && p.value > o.value))
        .map(|o| o.token)
        .collect()
}

fn sorted(mut tokens: Vec<usize>) -> Vec<usize> {
    tokens.sort_unstable();
    tokens
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One trace through both table layouts and the quadratic
    /// reference: its instants ranked (at most `2n` distinct ones, the
    /// tick-indexed table) and stretched (the sorted table). Starts and
    /// ends tie freely, lengths may be zero, values tie and reach
    /// `u64::MAX`, and the trace as drawn falls on either side of the
    /// density threshold.
    #[test]
    fn dense_and_sparse_tables_agree_with_the_reference(
        raw in proptest::collection::vec((0u64..40, 0u64..12, 0u64..8), 0..24),
    ) {
        let ops: Vec<Operation> = raw
            .iter()
            .enumerate()
            .map(|(i, &(start, len, v))| {
                op(i, start, start + len, if v == 7 { u64::MAX } else { v })
            })
            .collect();
        let mut instants: Vec<u64> = ops.iter().flat_map(|o| [o.start, o.end]).collect();
        instants.sort_unstable();
        instants.dedup();
        let dense = relabelled(&ops, |t| instants.partition_point(|&u| u < t) as u64);
        let sparse = relabelled(&ops, |t| (t + 1) << 32);
        prop_assert!(is_dense_timeline(&dense));
        prop_assert!(ops.is_empty() || !is_dense_timeline(&sparse));

        let expected = naive_tokens(&ops);
        prop_assert_eq!(count_nonlinearizable_naive(&ops), expected.len());
        for trace in [&ops, &dense, &sparse] {
            prop_assert_eq!(count_nonlinearizable(trace), expected.len());
            prop_assert_eq!(&sorted(nonlinearizable_tokens(trace)), &expected);
        }
    }
}

/// The layout is read off `max end` against `4 n`: a trace whose last
/// end sits on the threshold, one tick under and one tick over it gets
/// the same verdicts from the table it is given.
#[test]
fn verdicts_do_not_move_across_the_density_threshold() {
    let n = 6u64;
    let threshold = DENSE_TICKS_PER_OP * n;
    for last_end in [threshold - 1, threshold, threshold + 1] {
        // op 0 precedes all and out-values ops 1..4; op 5 ends last,
        // after starting before anything finished
        let mut ops: Vec<Operation> = (1..5).map(|i| op(i, 2 * i as u64, 12, i as u64)).collect();
        ops.insert(0, op(0, 0, 1, 3));
        ops.push(op(5, 1, last_end, 0));
        assert_eq!(is_dense_timeline(&ops), last_end <= threshold);
        assert_eq!(sorted(nonlinearizable_tokens(&ops)), vec![1, 2]);
        assert_eq!(count_nonlinearizable_naive(&ops), 2);
    }
}

#[test]
fn the_empty_trace_has_no_victims_on_either_count() {
    assert!(is_dense_timeline(&[]));
    assert_eq!(count_nonlinearizable(&[]), 0);
    assert_eq!(nonlinearizable_tokens(&[]), Vec::<usize>::new());
}

/// The oracle is strictly stronger than the sweep: duplicated values
/// under full overlap defeat Definition 2.4 (which only measures
/// reordering) but not the permutation search.
#[test]
fn oracle_rejects_what_the_sweep_cannot_see() {
    let dup = [op(0, 0, 10, 0), op(1, 1, 9, 0), op(2, 2, 8, 1)];
    assert_eq!(count_nonlinearizable(&dup), 0);
    assert_eq!(count_nonlinearizable_naive(&dup), 0);
    assert_eq!(check_exhaustive(&dup), None);
}
