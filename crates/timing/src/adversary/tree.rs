//! Theorem 4.1 — counting (diffracting) trees are not linearizable for
//! `c2 > 2·c1` — and the tightness sweep for Theorem 3.6.

use cnet_topology::constructions;

use super::Scenario;
use crate::threshold::gap_schedule;
use crate::{LinkTiming, Time, TimingError};

/// Builds the Theorem 4.1 attack on a counting tree of the given
/// width (`gap = 1`, the paper's `δ`). See [`tree_attack_with_gap`].
///
/// # Errors
///
/// As for [`tree_attack_with_gap`].
pub fn tree_attack(width: usize, timing: LinkTiming) -> Result<Scenario, TimingError> {
    tree_attack_with_gap(width, timing, 1)
}

/// Builds the Theorem 4.1 attack with an explicit gap between the fast
/// witness token's exit and the wave's entry:
///
/// * `T0` and `T1` enter the tree together at time 0. `T0` toggles the
///   root first and proceeds at the slowest pace (`c2` per link)
///   towards counter 0; `T1` proceeds at the fastest pace and returns
///   the value 1 at time `h·c1`.
/// * At time `h·c1 + gap` a wave of `2^h - 1` fast tokens enters. They
///   reach the leaves at `2·h·c1 + gap`, which is before the slow `T0`
///   arrives (at `h·c2`) as long as `gap < h·(c2 - 2·c1)`. By the step
///   property, *some* wave token then exits counter 0 with the value 0
///   — a non-linearizable operation, since `T1` (value 1) completely
///   precedes it.
///
/// The wave's entry trails `T1`'s *exit* by exactly `gap`, so sweeping
/// `gap` up to `h·(c2 - 2·c1) - 1` probes the finish–start separation
/// of Theorem 3.6 (`h·c2 - 2·h·c1`) and shows the bound is tight for
/// trees.
///
/// # Errors
///
/// * [`TimingError::RatioTooSmall`] unless `h·(c2 - 2·c1) >= 2`
///   (the discrete form of `c2 > 2·c1`).
/// * [`TimingError::GapTooLarge`] if `gap >= h·(c2 - 2·c1)`; beyond
///   that point Theorem 3.6 *guarantees* no violation.
/// * [`TimingError::Topology`] if `width` is not a power of two.
pub fn tree_attack_with_gap(
    width: usize,
    timing: LinkTiming,
    gap: Time,
) -> Result<Scenario, TimingError> {
    let topology = constructions::counting_tree(width)?;
    let h = topology.depth();
    let (c1, c2) = (timing.c1(), timing.c2());
    let slack = if c2 >= 2 * c1 {
        (h as Time) * (c2 - 2 * c1)
    } else {
        0
    };
    if slack < 2 {
        return Err(TimingError::RatioTooSmall {
            required: "h·(c2 - 2·c1) >= 2".into(),
            c1,
            c2,
        });
    }
    if gap == 0 || gap >= slack {
        return Err(TimingError::GapTooLarge {
            gap,
            max: slack - 1,
        });
    }

    // T0 the straggler, T1 the witness, and the wave of 2^h - 1, all
    // on the tree's one input
    let schedule = gap_schedule(&topology, timing, width - 1, gap)?;
    Ok(Scenario {
        name: "theorem-4.1-tree",
        topology,
        timing,
        schedule,
        min_violations: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_violates_for_ratio_above_two() {
        for width in [4usize, 8, 16, 32] {
            let timing = LinkTiming::new(10, 25).unwrap(); // ratio 2.5
            let s = tree_attack(width, timing).unwrap();
            s.validate().unwrap();
            let exec = s.execute().unwrap();
            assert!(
                exec.nonlinearizable_count() >= s.min_violations,
                "width {width}: {} violations",
                exec.nonlinearizable_count()
            );
            assert!(exec.output_counts().is_step());
        }
    }

    #[test]
    fn witness_is_value_zero_after_value_one() {
        let timing = LinkTiming::new(10, 30).unwrap();
        let exec = tree_attack(8, timing).unwrap().execute().unwrap();
        let v = exec.violations();
        assert!(!v.is_empty());
        // the canonical witness: T1's value-1 op precedes a value-0 op
        assert!(v
            .iter()
            .any(|(early, late)| early.value == 1 && late.value == 0));
    }

    #[test]
    fn barely_above_two_still_violates_on_deep_trees() {
        // c2 = 2 c1 + 1 has slack h >= 2 for h >= 2
        let timing = LinkTiming::new(10, 21).unwrap();
        let exec = tree_attack(8, timing).unwrap().execute().unwrap();
        assert!(exec.nonlinearizable_count() >= 1);
    }

    #[test]
    fn ratio_at_most_two_rejected() {
        let timing = LinkTiming::new(10, 20).unwrap();
        assert!(matches!(
            tree_attack(8, timing),
            Err(TimingError::RatioTooSmall { .. })
        ));
    }

    #[test]
    fn gap_sweep_tightness_of_theorem_3_6() {
        // h = 3, c1 = 10, c2 = 30 -> slack h(c2 - 2 c1) = 30
        let timing = LinkTiming::new(10, 30).unwrap();
        let slack = 3 * (30 - 2 * 10);
        // every gap below the slack still violates…
        for gap in [1, slack / 2, slack - 1] {
            let exec = tree_attack_with_gap(8, timing, gap)
                .unwrap()
                .execute()
                .unwrap();
            assert!(
                exec.nonlinearizable_count() >= 1,
                "gap {gap} should violate"
            );
        }
        // …and at the bound the constructor refuses (Theorem 3.6 territory)
        assert!(matches!(
            tree_attack_with_gap(8, timing, slack),
            Err(TimingError::GapTooLarge { .. })
        ));
    }

    #[test]
    fn bad_width_propagates() {
        let timing = LinkTiming::new(1, 10).unwrap();
        assert!(matches!(
            tree_attack(6, timing),
            Err(TimingError::Topology(_))
        ));
    }
}
