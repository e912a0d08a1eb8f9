//! The paper's Section 1 example: even a depth-1 network is not
//! linearizable once `c2` is large enough relative to `c1`.

use cnet_topology::constructions;

use super::Scenario;
use crate::{LinkTiming, TimingError, TimingSchedule};

/// Builds the introductory scenario on the width-2 network (one
/// balancer `B`, counters `A_0`, `A_1`):
///
/// * `T0` enters at time 0, toggles to `y_0`, and is delayed on the
///   wire to `A_0` (`c2`).
/// * `T1` enters at time 1, toggles to `y_1`, traverses fast (`c1`) and
///   returns 1.
/// * `T2` enters after `T1` has exited, toggles to `y_0`, traverses
///   fast and reaches `A_0` *before* the delayed `T0`, returning 0.
///
/// `T1` completely precedes `T2` yet returns the higher value — `T2`'s
/// operation is non-linearizable. `T0` finally returns 2.
///
/// # Errors
///
/// Returns [`TimingError::RatioTooSmall`] unless `c2 > 2·c1 + 2`
/// (the discrete-time version of the paper's `c2 > 2·c1` with room for
/// the two 1-cycle entry offsets).
pub fn intro_example(timing: LinkTiming) -> Result<Scenario, TimingError> {
    let (c1, c2) = (timing.c1(), timing.c2());
    if c2 <= 2 * c1 + 2 {
        return Err(TimingError::RatioTooSmall {
            required: "c2 > 2·c1 + 2".into(),
            c1,
            c2,
        });
    }
    let topology = constructions::single_balancer();
    let mut schedule = TimingSchedule::new(topology.depth());
    schedule.push_delays(0, 0, &[c2])?; // T0: slow
    schedule.push_delays(0, 1, &[c1])?; // T1: fast, exits at 1 + c1
    schedule.push_delays(0, 2 + c1, &[c1])?; // T2: enters after T1 exits
    Ok(Scenario {
        name: "section-1-example",
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
    fn reproduces_the_paper_values() {
        let timing = LinkTiming::new(2, 8).unwrap();
        let s = intro_example(timing).unwrap();
        s.validate().unwrap();
        let exec = s.execute().unwrap();
        let ops = exec.operations();
        assert_eq!(ops[0].value, 2, "T0 returns 2");
        assert_eq!(ops[1].value, 1, "T1 returns 1");
        assert_eq!(ops[2].value, 0, "T2 returns 0");
        assert_eq!(exec.nonlinearizable_count(), 1);
    }

    #[test]
    fn violation_pair_is_t1_t2() {
        let timing = LinkTiming::new(3, 20).unwrap();
        let exec = intro_example(timing).unwrap().execute().unwrap();
        let v = exec.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.token, 1);
        assert_eq!(v[0].1.token, 2);
    }

    #[test]
    fn tame_timing_rejected() {
        let timing = LinkTiming::new(5, 10).unwrap();
        assert!(matches!(
            intro_example(timing),
            Err(TimingError::RatioTooSmall { .. })
        ));
        // boundary: c2 = 2 c1 + 2 still rejected
        let timing = LinkTiming::new(5, 12).unwrap();
        assert!(intro_example(timing).is_err());
        // first admissible point
        let timing = LinkTiming::new(5, 13).unwrap();
        assert_eq!(
            intro_example(timing)
                .unwrap()
                .execute()
                .unwrap()
                .nonlinearizable_count(),
            1
        );
    }
}
