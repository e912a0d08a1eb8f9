//! Theorem 4.3 — bitonic counting networks are not linearizable for
//! `c2 > 2·c1`.

use cnet_topology::constructions;

use super::Scenario;
use crate::{LinkTiming, TimingError, TimingSchedule};

/// Builds the Theorem 4.3 attack on `Bitonic[width]` using the token
/// placement of Lemma 4.2:
///
/// * `T0` enters on `x_0` at time 0 and traverses the network alone at
///   the fastest pace, exiting on `y_0` with value 0 at `h·c1`.
/// * `T1` enters on `x_0` just after `T0` exits and proceeds at the
///   slowest pace (`c2` per link). By Lemma 4.2 it is headed for `y_1`.
/// * `T2` enters on `x_0` one cycle behind `T1` and proceeds at the
///   fastest pace, exiting on `y_2` with value 2. Lemma 4.2 guarantees
///   `T1` and `T2` share only their entry balancer, so the fast `T2`
///   does not perturb `T1`'s route.
/// * As soon as `T2` exits, `width` fast tokens enter, one per input.
///   They reach the counters before the slow `T1`; by the step
///   property one of them exits on `y_1` and returns the value 1 —
///   non-linearizable, since `T2` (value 2) completely precedes it.
///
/// # Errors
///
/// * [`TimingError::RatioTooSmall`] unless `h·(c2 - 2·c1) >= 3`
///   (the discrete form of `c2 > 2·c1`, with room for the two 1-cycle
///   entry offsets).
/// * [`TimingError::Topology`] if `width` is not a power of two
///   `>= 4` (the paper handles `w = 2` via the Section 1 example).
pub fn bitonic_attack(width: usize, timing: LinkTiming) -> Result<Scenario, TimingError> {
    if width < 4 {
        return Err(TimingError::Topology(
            cnet_topology::TopologyError::WidthNotPowerOfTwo { width },
        ));
    }
    let topology = constructions::bitonic(width)?;
    let h = topology.depth();
    let (c1, c2) = (timing.c1(), timing.c2());
    let slack = if c2 >= 2 * c1 {
        (h as u64) * (c2 - 2 * c1)
    } else {
        0
    };
    if slack < 3 {
        return Err(TimingError::RatioTooSmall {
            required: "h·(c2 - 2·c1) >= 3".into(),
            c1,
            c2,
        });
    }

    let hc1 = (h as u64) * c1;
    let mut schedule = TimingSchedule::new(h);
    // T0: alone, fast; exits y0 with value 0 at h·c1.
    schedule.push_delays(0, 0, &vec![c1; h])?;
    // T1: slow; enters after T0 has fully exited.
    let t1_entry = hc1 + 1;
    schedule.push_delays(0, t1_entry, &vec![c2; h])?;
    // T2: fast, one cycle behind T1; exits y2 at t1 + 1 + h·c1.
    schedule.push_delays(0, t1_entry + 1, &vec![c1; h])?;
    // The w-token wave, entering right after T2 exits, one per input.
    let wave_entry = t1_entry + 2 + hc1;
    for input in 0..width {
        schedule.push_delays(input, wave_entry, &vec![c1; h])?;
    }
    Ok(Scenario {
        name: "theorem-4.3-bitonic",
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
        for width in [4usize, 8, 16] {
            let timing = LinkTiming::new(10, 25).unwrap();
            let s = bitonic_attack(width, timing).unwrap();
            s.validate().unwrap();
            let exec = s.execute().unwrap();
            assert!(
                exec.nonlinearizable_count() >= 1,
                "width {width}: {} violations",
                exec.nonlinearizable_count()
            );
            assert!(exec.output_counts().is_step());
        }
    }

    #[test]
    fn quiescent_counts_match_the_proof() {
        // w + 3 tokens: y0, y1, y2 get two each; the rest one each.
        let timing = LinkTiming::new(10, 25).unwrap();
        let exec = bitonic_attack(8, timing).unwrap().execute().unwrap();
        let counts = exec.output_counts();
        assert_eq!(counts.total(), 8 + 3);
        assert_eq!(&counts.as_slice()[..4], &[2, 2, 2, 1]);
    }

    #[test]
    fn t0_t1_t2_take_their_lemma_4_2_exits() {
        let timing = LinkTiming::new(10, 25).unwrap();
        let exec = bitonic_attack(8, timing).unwrap().execute().unwrap();
        let ops = exec.operations();
        assert_eq!(ops[0].counter, 0, "T0 exits y0");
        assert_eq!(ops[0].value, 0);
        assert_eq!(ops[1].counter, 1, "T1 exits y1");
        assert_eq!(ops[2].counter, 2, "T2 exits y2");
        assert_eq!(ops[2].value, 2);
    }

    #[test]
    fn witness_precedes_with_higher_value() {
        let timing = LinkTiming::new(5, 14).unwrap(); // slack = h*4
        let exec = bitonic_attack(4, timing).unwrap().execute().unwrap();
        let v = exec.violations();
        assert!(
            v.iter()
                .any(|(early, late)| early.token == 2 && late.value == 1),
            "T2 (value 2) should precede the wave token that returns 1: {v:?}"
        );
    }

    #[test]
    fn tame_timing_rejected() {
        let timing = LinkTiming::new(10, 20).unwrap();
        assert!(matches!(
            bitonic_attack(8, timing),
            Err(TimingError::RatioTooSmall { .. })
        ));
    }

    #[test]
    fn width_two_redirects_to_intro() {
        let timing = LinkTiming::new(1, 100).unwrap();
        assert!(matches!(
            bitonic_attack(2, timing),
            Err(TimingError::Topology(_))
        ));
    }
}
