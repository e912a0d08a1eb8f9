//! Theorem 4.4 — bitonic networks suffer *mass* violations once
//! `c2 > ((3 + log w)/2)·c1`.

use cnet_topology::constructions;

use super::Scenario;
use crate::{LinkTiming, TimingError, TimingSchedule};

/// Builds the three-wave attack of Theorem 4.4 on `Bitonic[width]`.
///
/// `Bitonic[w]` consists of a first stage of two parallel
/// `Bitonic[w/2]` networks (depth `h1 = h - log w`) followed by a
/// merging stage of depth `h2 = log w`:
///
/// * **Wave 1** (`w/2` tokens on inputs `x_0..x_{w/2-1}`) enters at
///   time 0, crosses the first stage in lock step at pace `c1`, then
///   *slows to `c2`* inside the merging stage. It reaches the counters
///   at `h1·c1 + h2·c2`.
/// * **Wave 2** (same inputs) enters one cycle behind, crosses the
///   whole network at pace `c1`, and exits at `1 + h·c1`.
/// * **Wave 3** (same inputs) enters one cycle after wave 2 exits and
///   also runs at pace `c1`, exiting at `2 + 2·h·c1`.
///
/// When `h2·c2 > (h + h2)·c1 + 2` — the discrete form of the theorem's
/// `c2 > ((3 + log w)/2)·c1` — wave 3 overtakes the crawling wave 1
/// inside the merger and returns values *lower* than wave 2's, even
/// though every wave-3 token entered after every wave-2 token exited:
/// an entire wave of non-linearizable operations.
///
/// # Errors
///
/// * [`TimingError::RatioTooSmall`] unless
///   `h2·c2 >= (h + h2)·c1 + 3`.
/// * [`TimingError::Topology`] if `width` is not a power of two
///   `>= 4`.
pub fn wave_attack(width: usize, timing: LinkTiming) -> Result<Scenario, TimingError> {
    if width < 4 {
        return Err(TimingError::Topology(
            cnet_topology::TopologyError::WidthNotPowerOfTwo { width },
        ));
    }
    let topology = constructions::bitonic(width)?;
    let h = topology.depth();
    let h2 = width.trailing_zeros() as usize; // merger depth = log w
    let h1 = h - h2;
    let (c1, c2) = (timing.c1(), timing.c2());

    // wave 3 must reach the counters before wave 1 does:
    //   2 + 2 h c1 < h1 c1 + h2 c2  <=>  h2 c2 > (h + h2) c1 + 2
    if (h2 as u64) * c2 < (h as u64 + h2 as u64) * c1 + 3 {
        return Err(TimingError::RatioTooSmall {
            required: "h2·c2 >= (h + h2)·c1 + 3, i.e. c2 > ((3 + log w)/2)·c1".into(),
            c1,
            c2,
        });
    }

    let half = width / 2;
    let mut schedule = TimingSchedule::new(h);
    // wave 1: c1 through the first stage, c2 through the merger
    let mut slow = vec![c1; h1];
    slow.resize(h, c2);
    for input in 0..half {
        schedule.push_delays(input, 0, &slow)?;
    }
    // wave 2: fully fast, one cycle behind
    for input in 0..half {
        schedule.push_delays(input, 1, &vec![c1; h])?;
    }
    // wave 3: fully fast, entering one cycle after wave 2 exits
    let wave3_entry = 2 + (h as u64) * c1;
    for input in 0..half {
        schedule.push_delays(input, wave3_entry, &vec![c1; h])?;
    }
    Ok(Scenario {
        name: "theorem-4.4-wave",
        topology,
        timing,
        schedule,
        // every wave-3 token is preceded by higher-valued wave-2 tokens;
        // demand at least half of them are flagged to witness the *mass*
        // violation.
        min_violations: half / 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_violation_above_threshold() {
        // width 8: log w = 3, threshold ratio = 3.0
        let timing = LinkTiming::new(10, 35).unwrap();
        let s = wave_attack(8, timing).unwrap();
        s.validate().unwrap();
        let exec = s.execute().unwrap();
        assert!(
            exec.nonlinearizable_count() >= s.min_violations,
            "got {} violations, wanted >= {}",
            exec.nonlinearizable_count(),
            s.min_violations
        );
        assert!(exec.output_counts().is_step());
    }

    #[test]
    fn whole_third_wave_is_nonlinearizable_when_fully_overtaken() {
        let timing = LinkTiming::new(10, 60).unwrap(); // far above threshold
        let s = wave_attack(8, timing).unwrap();
        let exec = s.execute().unwrap();
        // wave 3 tokens are ids 8..12; all should be flagged
        let bad = crate::linearizability::nonlinearizable_tokens(exec.operations());
        for t in 8..12 {
            assert!(
                bad.contains(&t),
                "wave-3 token {t} should be non-linearizable"
            );
        }
    }

    #[test]
    fn violation_fraction_is_large() {
        let timing = LinkTiming::new(10, 60).unwrap();
        let exec = wave_attack(16, timing).unwrap().execute().unwrap();
        // 8 of 24 operations ≈ one third of the whole execution
        assert!(exec.nonlinearizable_ratio() >= 8.0 / 24.0 - 1e-9);
    }

    #[test]
    fn below_threshold_rejected() {
        // width 8: threshold 3.0; ratio 2.5 is below it
        let timing = LinkTiming::new(10, 25).unwrap();
        assert!(matches!(
            wave_attack(8, timing),
            Err(TimingError::RatioTooSmall { .. })
        ));
    }

    #[test]
    fn larger_widths_need_larger_ratios() {
        // width 32: threshold (3 + 5)/2 = 4.0
        let ok = LinkTiming::new(10, 45).unwrap();
        assert!(wave_attack(32, ok).is_ok());
        let not_enough = LinkTiming::new(10, 35).unwrap();
        assert!(wave_attack(32, not_enough).is_err());
    }
}
