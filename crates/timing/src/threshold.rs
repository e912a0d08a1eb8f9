//! Empirical violation-threshold measurement.
//!
//! Theorem 3.6 guarantees order once the finish-to-start gap between
//! two traversals exceeds `h·c2 - 2·h·c1`. This module measures how
//! close a given network gets to that bound in practice: it sweeps the
//! gap between an early fast *witness* token and a late fast *wave*
//! (with a crawling straggler in flight) and reports the largest gap
//! that still produced a violation.

use cnet_topology::Topology;

use crate::error::TimingError;
use crate::executor::TimedExecutor;
use crate::link::{LinkTiming, Time};
use crate::measure;
use crate::schedule::TimingSchedule;

/// The outcome of a threshold sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdReport {
    /// Theorem 3.6's guarantee boundary `h·c2 - 2·h·c1` (no violation
    /// can exist at or beyond it; non-positive means the network is
    /// linearizable outright).
    pub theory_bound: i64,
    /// The largest finish-to-start gap at which the sweep still found
    /// a violation, or `None` if no gap violated.
    pub max_violating_gap: Option<Time>,
    /// Gaps probed (descending).
    pub gaps_probed: usize,
}

impl ThresholdReport {
    /// How much of the theoretical slack the attack family actually
    /// achieves, in `[0, 1]` (`None` when the theory bound is not
    /// positive).
    #[must_use]
    pub fn tightness(&self) -> Option<f64> {
        if self.theory_bound <= 0 {
            return None;
        }
        Some(match self.max_violating_gap {
            // +1: a violating gap of bound-1 is the best achievable
            Some(g) => (g + 1) as f64 / self.theory_bound as f64,
            None => 0.0,
        })
    }
}

/// Builds the gap-parametrized straggler/witness/wave schedule used by
/// the sweep and by [`crate::adversary::tree_attack_with_gap`]: one
/// all-`c2` straggler and one all-`c1` witness enter at time 0 (the
/// straggler first), and `wave` fast tokens enter `gap` after the
/// witness exits.
pub(crate) fn gap_schedule(
    topology: &Topology,
    timing: LinkTiming,
    wave: usize,
    gap: Time,
) -> Result<TimingSchedule, TimingError> {
    let h = topology.depth();
    let v = topology.input_width();
    let mut s = TimingSchedule::new(h);
    s.push_delays(0, 0, &vec![timing.c2(); h])?; // straggler (toggles first)
    s.push_delays(1 % v, 0, &vec![timing.c1(); h])?; // witness
    let wave_entry = (h as Time) * timing.c1() + gap;
    for i in 0..wave {
        s.push_delays(i % v, wave_entry, &vec![timing.c1(); h])?;
    }
    Ok(s)
}

/// Sweeps the finish-to-start gap from the Theorem 3.6 bound downwards
/// and returns the first (largest) gap at which the execution contains
/// a violation.
///
/// The wave size is `output_width - 1` (enough to force a token onto
/// every counter by the step property).
///
/// # Errors
///
/// Propagates schedule/execution errors; none occur for validated
/// topologies.
pub fn empirical_threshold(
    topology: &Topology,
    timing: LinkTiming,
) -> Result<ThresholdReport, TimingError> {
    let h = topology.depth();
    let theory_bound = measure::finish_start_separation(h, timing);
    let wave = topology.output_width().max(2) - 1;
    if theory_bound <= 0 {
        return Ok(ThresholdReport {
            theory_bound,
            max_violating_gap: None,
            gaps_probed: 0,
        });
    }
    let mut gaps_probed = 0;
    let mut gap = theory_bound as Time - 1;
    loop {
        gaps_probed += 1;
        let schedule = gap_schedule(topology, timing, wave, gap)?;
        let exec = TimedExecutor::new(topology).run(&schedule)?;
        if exec.nonlinearizable_count() > 0 {
            return Ok(ThresholdReport {
                theory_bound,
                max_violating_gap: Some(gap),
                gaps_probed,
            });
        }
        if gap == 0 {
            return Ok(ThresholdReport {
                theory_bound,
                max_violating_gap: None,
                gaps_probed,
            });
        }
        // halve towards zero for a logarithmic probe, then finish
        // linearly near the bottom
        gap = if gap > 8 { gap / 2 } else { gap - 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    #[test]
    fn tree_achieves_the_full_bound() {
        let net = constructions::counting_tree(16).unwrap();
        let timing = LinkTiming::new(10, 30).unwrap();
        let r = empirical_threshold(&net, timing).unwrap();
        assert_eq!(r.theory_bound, 4 * 10);
        // the tree attack violates right up to the bound
        assert_eq!(r.max_violating_gap, Some(39));
        assert_eq!(r.tightness(), Some(1.0));
    }

    #[test]
    fn guaranteed_regime_reports_no_gap() {
        let net = constructions::counting_tree(8).unwrap();
        let timing = LinkTiming::new(10, 20).unwrap();
        let r = empirical_threshold(&net, timing).unwrap();
        assert!(r.theory_bound <= 0);
        assert_eq!(r.max_violating_gap, None);
        assert_eq!(r.tightness(), None);
    }

    #[test]
    fn bitonic_reports_some_threshold() {
        let net = constructions::bitonic(8).unwrap();
        let timing = LinkTiming::new(10, 30).unwrap();
        let r = empirical_threshold(&net, timing).unwrap();
        assert!(r.theory_bound > 0);
        // whatever the family achieves, it must respect Theorem 3.6
        if let Some(g) = r.max_violating_gap {
            assert!((g as i64) < r.theory_bound);
        }
    }

    #[test]
    fn tightness_is_a_fraction() {
        let net = constructions::counting_tree(8).unwrap();
        let timing = LinkTiming::new(10, 40).unwrap();
        let r = empirical_threshold(&net, timing).unwrap();
        let t = r.tightness().unwrap();
        assert!((0.0..=1.0).contains(&t));
    }
}
