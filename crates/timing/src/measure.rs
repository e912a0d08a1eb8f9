//! Closed-form bounds from Sections 3 and 4 of the paper.
//!
//! These are the quantitative statements the experiments are checked
//! against:
//!
//! * **Theorem 3.6** (finish–start): if `T2` starts more than
//!   `h·c2 - 2·h·c1` after `T1` finishes, `T2` returns a higher value.
//! * **Lemma 3.7** (start–start): if `T2` starts more than
//!   `2·h·(c2 - c1)` after `T1` starts, `T2` returns a higher value.
//! * **Corollary 3.9**: with `c2 <= 2·c1` every uniform counting
//!   network is linearizable.
//! * **Corollary 3.12**: with `c2 < k·c1` known a priori, padding each
//!   input with `h·(k - 2)` unary balancers yields a linearizable
//!   network of depth `h·(k - 1)`.
//! * **Theorems 4.1/4.3**: trees and bitonic networks are *not*
//!   linearizable once `c2 > 2·c1`.
//! * **Theorem 4.4**: bitonic networks admit mass violations once
//!   `c2 > ((3 + log w) / 2)·c1`.
//! * The **Figure 7 statistic**: the measured average ratio
//!   `c2/c1 = (Tog + W) / Tog`.

use crate::link::{LinkTiming, Time};

/// The slack of Theorem 3.6: `h·c2 - 2·h·c1`, possibly negative.
///
/// If token `T2` enters the network more than this after `T1` exits,
/// `T2` is guaranteed to return a higher value. A non-positive result
/// means *any* pair of non-overlapping traversals is ordered — i.e. the
/// network is linearizable (Corollary 3.8).
#[must_use]
pub fn finish_start_separation(depth: usize, timing: LinkTiming) -> i64 {
    let h = depth as i64;
    h * timing.c2() as i64 - 2 * h * timing.c1() as i64
}

/// The start–start separation of Lemma 3.7: `2·h·(c2 - c1)`.
///
/// If `T2` enters more than this after `T1` *enters*, `T2` returns a
/// higher value. The paper notes this bound is tight.
#[must_use]
pub fn start_start_separation(depth: usize, timing: LinkTiming) -> Time {
    2 * depth as Time * (timing.c2() - timing.c1())
}

/// Theorem 3.6 as a predicate: are two traversals *guaranteed* ordered
/// given `T1`'s finish time and `T2`'s start time?
#[must_use]
pub fn ordered_by_finish_start(
    depth: usize,
    timing: LinkTiming,
    t1_end: Time,
    t2_start: Time,
) -> bool {
    (t2_start as i64 - t1_end as i64) > finish_start_separation(depth, timing)
}

/// Lemma 3.7 as a predicate on the two start times.
#[must_use]
pub fn ordered_by_start_start(
    depth: usize,
    timing: LinkTiming,
    t1_start: Time,
    t2_start: Time,
) -> bool {
    t2_start > t1_start && t2_start - t1_start > start_start_separation(depth, timing)
}

/// Corollary 3.12: the number of unary balancers to prefix on each
/// input of a depth-`h` network, given `k` with `c2 < k·c1`:
/// `h·(k - 2)`.
///
/// # Panics
///
/// Panics if `k < 2`.
#[must_use]
pub fn corollary_3_12_padding(depth: usize, k: usize) -> usize {
    assert!(k >= 2, "corollary 3.12 requires k >= 2");
    depth * (k - 2)
}

/// Corollary 3.12: the depth of the padded network, `h·(k - 1)`.
///
/// # Panics
///
/// Panics if `k < 2`.
#[must_use]
pub fn corollary_3_12_depth(depth: usize, k: usize) -> usize {
    assert!(k >= 2, "corollary 3.12 requires k >= 2");
    depth * (k - 1)
}

/// Theorem 4.1 / 4.3: whether violating executions exist for counting
/// trees and bitonic networks, i.e. `c2 > 2·c1`.
#[must_use]
pub fn violations_possible(timing: LinkTiming) -> bool {
    !timing.guarantees_linearizability()
}

/// Theorem 4.4's threshold ratio `(3 + log w) / 2` beyond which bitonic
/// networks of width `w` admit executions where whole waves of
/// operations are non-linearizable.
///
/// # Panics
///
/// Panics unless `width` is a power of two `>= 2`.
#[must_use]
pub fn bitonic_mass_violation_threshold(width: usize) -> f64 {
    assert!(
        width >= 2 && width.is_power_of_two(),
        "width must be a power of two >= 2"
    );
    (3.0 + (width.trailing_zeros() as f64)) / 2.0
}

/// Theorem 4.4 as a predicate: `c2 > ((3 + log w)/2)·c1`.
#[must_use]
pub fn mass_violations_possible(timing: LinkTiming, width: usize) -> bool {
    timing.ratio() > bitonic_mass_violation_threshold(width)
}

/// The paper's `Tog`: average cycles a token waits before toggling,
/// falling back to the all-visit average when no toggles happened (a
/// fully-diffracted run), so [`average_ratio`] is always defined.
///
/// This is the *single* definition shared by the offline summary
/// (`RunStats` in `cnet-proteus`) and the live probes (`cnet-obs`) —
/// the differential test between the two paths compares data
/// collection, never formula drift.
#[must_use]
pub fn avg_toggle_wait(
    toggle_wait_total: u64,
    toggle_count: u64,
    node_wait_total: u64,
    node_visits: u64,
) -> f64 {
    if toggle_count > 0 {
        toggle_wait_total as f64 / toggle_count as f64
    } else if node_visits > 0 {
        node_wait_total as f64 / node_visits as f64
    } else {
        0.0
    }
}

/// The paper's Figure 7 statistic `c2/c1 = (Tog + W)/Tog` from raw
/// wait totals, `W` being the injected per-node delay. Returns `1.0`
/// for a run with zero wait and zero `W`, and infinity for the
/// degenerate zero-wait, positive-`W` case.
#[must_use]
pub fn average_ratio(
    toggle_wait_total: u64,
    toggle_count: u64,
    node_wait_total: u64,
    node_visits: u64,
    wait_cycles: u64,
) -> f64 {
    let tog = avg_toggle_wait(
        toggle_wait_total,
        toggle_count,
        node_wait_total,
        node_visits,
    );
    if tog == 0.0 {
        if wait_cycles == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        (tog + wait_cycles as f64) / tog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_start_matches_formula() {
        let t = LinkTiming::new(10, 35).unwrap();
        // h(c2 - 2 c1) = 6 * (35 - 20) = 90
        assert_eq!(finish_start_separation(6, t), 90);
    }

    #[test]
    fn finish_start_negative_when_guaranteed() {
        let t = LinkTiming::new(10, 15).unwrap();
        assert!(finish_start_separation(8, t) < 0);
        // any disjoint pair is ordered
        assert!(ordered_by_finish_start(8, t, 100, 101));
        assert!(ordered_by_finish_start(8, t, 100, 100));
    }

    #[test]
    fn start_start_matches_formula() {
        let t = LinkTiming::new(10, 35).unwrap();
        assert_eq!(start_start_separation(6, t), 2 * 6 * 25);
    }

    #[test]
    fn start_start_predicate_strict() {
        let t = LinkTiming::new(10, 20).unwrap();
        let sep = start_start_separation(4, t); // 80
        assert!(!ordered_by_start_start(4, t, 0, sep));
        assert!(ordered_by_start_start(4, t, 0, sep + 1));
        assert!(!ordered_by_start_start(4, t, 10, 5));
    }

    #[test]
    fn padding_formulas() {
        assert_eq!(corollary_3_12_padding(6, 2), 0);
        assert_eq!(corollary_3_12_padding(6, 4), 12);
        assert_eq!(corollary_3_12_depth(6, 4), 18);
    }

    #[test]
    fn mass_violation_threshold_values() {
        assert!((bitonic_mass_violation_threshold(2) - 2.0).abs() < 1e-12);
        assert!((bitonic_mass_violation_threshold(32) - 4.0).abs() < 1e-12);
        let t = LinkTiming::new(10, 41).unwrap();
        assert!(mass_violations_possible(t, 32));
        let t = LinkTiming::new(10, 40).unwrap();
        assert!(!mass_violations_possible(t, 32));
    }

    #[test]
    fn average_ratio_figure7() {
        // Tog = 40/4 = 10 -> (10 + 100)/10 = 11
        assert!((avg_toggle_wait(40, 4, 0, 0) - 10.0).abs() < 1e-12);
        assert!((average_ratio(40, 4, 0, 0, 100) - 11.0).abs() < 1e-12);
        // the paper's example shape: Tog = 463, W = 100000
        assert!((average_ratio(463, 1, 0, 0, 100_000) - 216.98).abs() < 0.02);
        // fallback: no toggles, only diffracted visits
        assert!((avg_toggle_wait(0, 0, 50, 10) - 5.0).abs() < 1e-12);
        // degenerate cases
        assert_eq!(average_ratio(0, 0, 0, 0, 0), 1.0);
        assert!(average_ratio(0, 0, 0, 0, 10).is_infinite());
    }

    #[test]
    fn violations_possible_iff_ratio_above_two() {
        assert!(!violations_possible(LinkTiming::new(5, 10).unwrap()));
        assert!(violations_possible(LinkTiming::new(5, 11).unwrap()));
    }

    #[test]
    #[should_panic(expected = "requires k >= 2")]
    fn padding_rejects_small_k() {
        let _ = corollary_3_12_padding(4, 1);
    }
}
