//! The seeded arrival schedule every backend replays.
//!
//! One `(seed, workload)` pair must mean one token stream no matter
//! which backend replays it — that is what makes the differential
//! suites meaningful. The schedule lives here, outside any one
//! backend's run loop, so the simulator, the thread-per-client driver
//! and the cooperative async executor draw from exactly the same
//! instants.

use crate::{ArrivalProcess, CheckedWorkload, SimRng};

/// Seed perturbation for the arrival-schedule stream: open-loop gaps
/// draw from a generator of their own, so a run's other streams (the
/// simulator's prism slots, jitter and random waits) are the same
/// whether or not arrivals are scheduled.
pub(crate) const ARRIVAL_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-thread (or per-client) seed spread for
/// `WaitMode::UniformRandom` draws.
pub(crate) const THREAD_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// The open-loop arrival instants, empty for closed-loop workloads:
/// token `i` may not be injected before instant `i`. The simulator
/// reads them as cycles, the native backends as nanoseconds from run
/// start.
///
/// Public so external load generators (`cnet drive`) can pace traffic
/// on exactly the schedule the in-process backends would use for the
/// same `(seed, workload)` pair.
pub fn arrival_schedule(workload: &CheckedWorkload, seed: u64) -> Vec<u64> {
    Arrivals::new(workload, seed).collect()
}

/// The instants of [`arrival_schedule`], drawn one at a time. A
/// backend that starts tokens in order (the simulator) reads them as
/// it goes instead of holding 8 B per operation.
#[derive(Debug)]
pub struct Arrivals<'a> {
    arrival: &'a ArrivalProcess,
    rng: SimRng,
    trace_gaps: &'a [u64],
    tokens: std::ops::Range<usize>,
    at: u64,
}

impl<'a> Arrivals<'a> {
    /// The arrival stream of `workload` under `seed`.
    #[must_use]
    pub fn new(workload: &'a CheckedWorkload, seed: u64) -> Self {
        let len = if workload.is_open_loop() {
            workload.total_ops
        } else {
            0
        };
        Arrivals {
            arrival: &workload.arrival,
            rng: SimRng::seed_from_u64(seed ^ ARRIVAL_STREAM),
            trace_gaps: &workload.trace_gaps,
            tokens: 0..len,
            at: 0,
        }
    }

    /// The largest gap the process allows between two consecutive
    /// arrivals (0 for a closed loop), whichever gaps this run draws.
    #[must_use]
    pub fn max_gap(&self) -> u64 {
        match *self.arrival {
            ArrivalProcess::Closed => 0,
            ArrivalProcess::Open { mean_gap } => mean_gap.saturating_mul(2),
            ArrivalProcess::Bursty { gap, .. } => gap,
            ArrivalProcess::Trace { .. } => self.trace_gaps.iter().copied().max().unwrap_or(0),
        }
    }
}

impl Iterator for Arrivals<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let token = self.tokens.next()?;
        if token > 0 {
            self.at += match *self.arrival {
                ArrivalProcess::Closed => 0,
                ArrivalProcess::Open { mean_gap } => self.rng.inclusive(mean_gap * 2),
                ArrivalProcess::Bursty { burst, gap } => {
                    if token.is_multiple_of(burst as usize) {
                        gap
                    } else {
                        0
                    }
                }
                ArrivalProcess::Trace { .. } => {
                    self.trace_gaps[(token - 1) % self.trace_gaps.len()]
                }
            };
        }
        Some(self.at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tokens.size_hint()
    }
}

impl ExactSizeIterator for Arrivals<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn closed_loop_has_no_schedule() {
        let w = Workload {
            total_ops: 100,
            ..Workload::paper(4, 0, 0)
        }
        .check()
        .unwrap();
        assert!(arrival_schedule(&w, 7).is_empty());
        assert_eq!(Arrivals::new(&w, 7).max_gap(), 0);
    }

    #[test]
    fn open_schedule_is_deterministic_and_monotone() {
        let w = Workload {
            total_ops: 50,
            arrival: ArrivalProcess::Open { mean_gap: 300 },
            ..Workload::paper(4, 0, 0)
        }
        .check()
        .unwrap();
        let a = arrival_schedule(&w, 42);
        let b = arrival_schedule(&w, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert_ne!(a, arrival_schedule(&w, 43), "seed must matter");
        // drawn lazily, the same stream, inside the process's bound
        let arrivals = Arrivals::new(&w, 42);
        assert_eq!((arrivals.len(), arrivals.max_gap()), (50, 600));
        assert!(a.windows(2).all(|p| p[1] - p[0] <= 600));
        assert_eq!(arrivals.collect::<Vec<_>>(), a);
    }

    #[test]
    fn trace_schedule_replays_and_cycles_the_recorded_gaps() {
        let path = std::env::temp_dir().join(format!("cnet-schedule-trace-{}", std::process::id()));
        // instants 0,40,75,75,130 -> gaps 40,35,0,55, cycled
        std::fs::write(&path, "# recorded\n0\n40\n75\n75\n130\n").unwrap();
        let w = Workload {
            total_ops: 7,
            arrival: ArrivalProcess::Trace {
                path: path.to_str().unwrap().to_string(),
            },
            ..Workload::paper(2, 0, 0)
        }
        .check()
        .unwrap();
        let schedule = arrival_schedule(&w, 1);
        assert_eq!(schedule, vec![0, 40, 75, 75, 130, 170, 205]);
        // no RNG stream involved: the seed must NOT matter
        assert_eq!(schedule, arrival_schedule(&w, 2));
    }

    #[test]
    fn bursty_schedule_groups_arrivals() {
        let w = Workload {
            total_ops: 9,
            arrival: ArrivalProcess::Bursty { burst: 3, gap: 100 },
            ..Workload::paper(2, 0, 0)
        }
        .check()
        .unwrap();
        assert_eq!(
            arrival_schedule(&w, 1),
            vec![0, 0, 0, 100, 100, 100, 200, 200, 200]
        );
    }
}
