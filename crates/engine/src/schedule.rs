//! The seeded arrival schedule every backend replays.
//!
//! One `(seed, workload)` pair must mean one token stream no matter
//! which backend replays it — that is what makes the differential
//! suites meaningful. The schedule lives here, outside any one
//! backend's run loop, so the simulator, the thread-per-client driver
//! and the cooperative async executor draw from exactly the same
//! instants.
//!
//! A closed loop has no arrival instants: each processor starts its
//! next operation when its last one returns. In the paper's Section 2
//! model a token's exit time does not depend on its path, so the whole
//! loop is a timing schedule computed up front
//! ([`closed_loop_schedule`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cnet_timing::schedule::{TimingSchedule, TokenSchedule};
use cnet_topology::Topology;

use crate::driver::spin;
use crate::{ArrivalProcess, CheckedWorkload, SimRng};

/// Seed perturbation for the arrival-schedule stream: open-loop gaps
/// draw from a generator of their own, so a run's other streams (the
/// simulator's prism slots, jitter and random waits) are the same
/// whether or not arrivals are scheduled.
pub(crate) const ARRIVAL_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-thread (or per-client) seed spread for
/// `WaitMode::UniformRandom` draws.
pub(crate) const THREAD_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// The fixed cost of one hop of [`closed_loop_schedule`], in cycles.
const HOP_CYCLES: u64 = 200;

/// The most a hop of [`closed_loop_schedule`] adds to [`HOP_CYCLES`]:
/// the uniform jitter that keeps two tokens from moving in lockstep.
const HOP_JITTER: u64 = 200;

/// The closed loop of `workload` as a Definition 2.2 timing schedule
/// over `topology`, under `seed`; `None` when the workload's arrivals
/// are scheduled (open, bursty or trace-replayed).
///
/// Processor `p` enters on input `p mod w`, and each of its tokens
/// enters when its previous one exits. Every hop costs
/// `200 + U[0, 200]` cycles plus the processor's per-node wait, which
/// is the native clients' draw: `W` on every hop of a processor that
/// [`crate::Workload::is_delayed`] under the fixed wait mode. The
/// schedule's tokens are the first `total_ops` entries in time order,
/// ties to the lower processor, numbered by entry.
///
/// # Panics
///
/// Panics if an instant of the schedule passes `u64::MAX`.
#[must_use]
pub fn closed_loop_schedule(
    workload: &CheckedWorkload,
    topology: &Topology,
    seed: u64,
) -> Option<TimingSchedule> {
    if workload.is_open_loop() {
        return None;
    }
    let width = topology.input_width();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut delays = vec![0; topology.depth()];
    let mut schedule = TimingSchedule::new(delays.len());
    // every processor's next entry, earliest first
    let mut entries: BinaryHeap<Reverse<(u64, usize)>> =
        (0..workload.processors).map(|p| Reverse((0, p))).collect();
    for _ in 0..workload.total_ops {
        let Reverse((entry, p)) = entries.pop().expect("a checked run has a processor");
        let delayed = workload.is_delayed(p);
        for delay in &mut delays {
            *delay = HOP_CYCLES + rng.inclusive(HOP_JITTER) + spin(workload, delayed, &mut rng);
        }
        let token = TokenSchedule::from_delays(p % width, entry, &delays);
        entries.push(Reverse((token.exit(), p)));
        schedule
            .push(token)
            .expect("every hop takes at least HOP_CYCLES and no instant wraps");
    }
    Some(schedule)
}

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
    fn a_closed_loop_schedule_chains_each_processor_in_entry_order() {
        let net = cnet_topology::constructions::bitonic(4).unwrap();
        let w = Workload {
            total_ops: 40,
            ..Workload::paper(6, 50, 1000)
        }
        .check()
        .unwrap();
        let schedule = closed_loop_schedule(&w, &net, 3).unwrap();
        assert_eq!(schedule, closed_loop_schedule(&w, &net, 3).unwrap());
        assert_eq!((schedule.len(), schedule.depth()), (40, net.depth()));
        let tokens = schedule.tokens();
        assert!(tokens.windows(2).all(|t| t[0].entry() <= t[1].entry()));
        // processors 0..6 enter first, at 0, on inputs p mod 4; the
        // first three are delayed, so each of their hops pays W
        let hops = |t: &TokenSchedule| t.times.windows(2).map(|h| h[1] - h[0]).collect::<Vec<_>>();
        for (p, t) in tokens[..6].iter().enumerate() {
            assert_eq!((t.entry(), t.input), (0, p % 4));
            let range = if p < 3 { 1200..=1400 } else { 200..=400 };
            assert!(hops(t).iter().all(|h| range.contains(h)), "{p}");
        }
        // every later token enters on the input, at the exit, of an
        // earlier one: its processor's previous operation
        for (i, t) in tokens.iter().enumerate().skip(6) {
            let previous = tokens[..i]
                .iter()
                .any(|e| (e.exit(), e.input) == (t.entry(), t.input));
            assert!(previous, "token {i}");
        }
        let open = Workload {
            total_ops: 10,
            arrival: ArrivalProcess::Open { mean_gap: 100 },
            ..Workload::paper(2, 0, 0)
        }
        .check()
        .unwrap();
        assert!(closed_loop_schedule(&open, &net, 3).is_none());
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
