//! The shared client loop for the native-thread backends.
//!
//! Reproduces the audit methodology of `cnet-concurrent::audit` —
//! every operation bracketed by two ticks of a global logical clock —
//! and adds the engine's workload semantics on top: a global op quota
//! shared by all clients (claimed a chunk at a time by a closed loop),
//! the delayed-fraction/`W` mapping, the open-loop arrival schedules
//! (seeded, nanoseconds of host time), and the one timed window
//! ([`Threads`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use cnet_concurrent::audit::StressCounter;
use cnet_obs::{FrontendMetrics, LogHistogram, MetricsSnapshot};
use cnet_proteus::{RunStats, SimRng, WaitMode, Workload};
use cnet_timing::linearizability::{lane_magnitudes, LaneRecord};
use cnet_timing::Operation;
use cnet_topology::OutputCounts;

use crate::counter::Executor;
use crate::schedule::{arrival_schedule, THREAD_STREAM};
use crate::RunOutcome;

/// Every backend's first move: reject degenerate workloads with the
/// typed [`cnet_proteus::WorkloadError`] before any thread spawns.
/// The fallible path is [`crate::Backend::try_run`]; `run` keeps its
/// infallible signature by construction-checking here.
///
/// # Panics
///
/// Panics with the error's display text when the workload is
/// degenerate.
pub(crate) fn validated(workload: &Workload) {
    if let Err(e) = workload.validate() {
        panic!("invalid workload: {e}");
    }
}

/// Where a native backend applies the workload's `W`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SpinSite {
    /// Passed into the counter as a per-node spin
    /// ([`StressCounter::next_stressed`]), mirroring the simulator's
    /// "waits `W` cycles after traversing a node in the net".
    PerNode,
    /// Spun by the client before each injection — for substrates whose
    /// per-hop delay is fixed at spawn time (the message-passing
    /// network's `hop_spin`), where a per-node value cannot travel
    /// with the token.
    PerOp,
}

impl SpinSite {
    /// Draws one operation's `W` and returns the per-node spin to hand
    /// the counter; a [`SpinSite::PerOp`] site spins it here, before the
    /// injection, and hands on 0.
    #[inline]
    pub(crate) fn spin(self, workload: &Workload, delayed: bool, rng: &mut SimRng) -> u64 {
        let spin = match workload.wait_mode {
            WaitMode::Fixed if delayed => workload.wait_cycles,
            WaitMode::UniformRandom if workload.wait_cycles > 0 => {
                rng.inclusive(workload.wait_cycles)
            }
            WaitMode::Fixed | WaitMode::UniformRandom => 0,
        };
        match self {
            SpinSite::PerNode => spin,
            SpinSite::PerOp => {
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
                0
            }
        }
    }
}

/// The raw trace of one native run: the `(start, end, value)` records
/// exactly as the recording threads left them, plus the final
/// logical-clock reading.
///
/// Token order is lane-major. A lane carries `clients_per_lane` logical
/// clients taking turns: one per lane for the thread-per-client
/// backends, all of them on the single op-ordered lane of the async
/// executor.
///
/// Every lane is one sequential stream, `start < end < next start`,
/// which is what lets [`stats_from_trace`] grade the lanes as they
/// stand. Both builders guarantee it: a [`drive`] thread takes its two
/// clock ticks around each operation in program order, and the async
/// executor admits op `i + 1` only after op `i` took its end tick.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    pub lanes: Vec<Vec<LaneRecord>>,
    pub clients_per_lane: usize,
    pub clock_end: u64,
}

impl Trace {
    /// Per-counter totals rebuilt from the returned values (`value =
    /// index + width·k`), for the message-passing network, whose
    /// counter threads own their totals.
    pub fn tallies(&self, width: usize) -> OutputCounts {
        let mut counts = OutputCounts::zeros(width);
        for &(_, _, value) in self.lanes.iter().flatten() {
            counts.increment((value % width.max(1) as u64) as usize);
        }
        counts
    }
}

/// Drives `workload.processors` client threads against `counter` until
/// `workload.total_ops` operations have been claimed, timestamping
/// each with the global logical clock.
///
/// A closed loop claims the shared op quota a chunk at a time: at most
/// 64, and at most 1/16 of a thread's fair share, so a thread that
/// falls behind (a delayed one, or a descheduled one) strands no more
/// than that behind it. With an arrival schedule op `i` must meet
/// arrival `i`, so the chunk is one.
///
/// # Panics
///
/// Panics if a client thread panics.
fn drive(counter: &impl StressCounter, workload: &Workload, seed: u64, site: SpinSite) -> Trace {
    if workload.processors == 0 || workload.total_ops == 0 {
        return Trace::default();
    }
    let (clock, next_op) = (&AtomicU64::new(0), &AtomicUsize::new(0));
    let arrivals = &arrival_schedule(workload, seed);
    let chunk = if arrivals.is_empty() {
        (workload.total_ops / workload.processors / 16).clamp(1, 64)
    } else {
        1
    };
    let epoch = Instant::now();
    let lanes = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workload.processors);
        for t in 0..workload.processors {
            let delayed = workload.is_delayed(t);
            handles.push(scope.spawn(move || {
                let mut rng = SimRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(THREAD_STREAM));
                let mut ops = Vec::new();
                loop {
                    let claimed = next_op.fetch_add(chunk, Ordering::Relaxed);
                    if claimed >= workload.total_ops {
                        break;
                    }
                    for i in claimed..(claimed + chunk).min(workload.total_ops) {
                        if let Some(&at) = arrivals.get(i) {
                            // open loop: hold this token until its instant
                            while (epoch.elapsed().as_nanos() as u64) < at {
                                std::hint::spin_loop();
                            }
                        }
                        let per_node = site.spin(workload, delayed, &mut rng);
                        let start = clock.fetch_add(1, Ordering::AcqRel);
                        let value = counter.next_stressed(t, per_node);
                        let end = clock.fetch_add(1, Ordering::AcqRel);
                        ops.push((start, end, value));
                    }
                }
                ops
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Trace {
        lanes,
        clients_per_lane: 1,
        clock_end: clock.load(Ordering::Acquire),
    }
}

/// What a backend reads off its counter once the clients have joined.
pub(crate) struct Readout {
    pub counts: OutputCounts,
    pub input_width: usize,
    pub metrics: Option<MetricsSnapshot>,
    pub frontend: Option<FrontendMetrics>,
}

/// The thread-per-client executor: one native run from spawn to
/// [`RunOutcome`], so the timed window is defined once — `wall_ms` is
/// [`drive`], spawn to join of the client threads, and nothing after
/// it. The read-out (snapshot export, final tallies) and the trace
/// assembly stay outside, like the simulator backend's recorder freeze.
pub(crate) struct Threads<'a> {
    pub backend: &'static str,
    pub workload: &'a Workload,
    pub seed: u64,
}

impl Executor for Threads<'_> {
    fn execute<C: StressCounter>(
        self,
        counter: &C,
        site: SpinSite,
        readout: impl FnOnce(&Trace) -> Readout,
    ) -> RunOutcome {
        let started = Instant::now();
        let trace = drive(counter, self.workload, self.seed, site);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let read = readout(&trace);
        RunOutcome {
            backend: self.backend,
            stats: stats_from_trace(trace, read.counts, read.input_width, read.metrics),
            wall_ms,
            frontend: read.frontend,
            open_loop: None,
        }
    }
}

/// Assembles a [`RunStats`] from a native trace, uniform with the
/// simulator's shape so every consumer (sweep, checker, records) works
/// unchanged. This is the one copy a record makes on its way from the
/// thread that took it to `RunStats::operations`.
///
/// Native substrates have no simulated balancer instrumentation, so
/// the toggle counters are zero and the `Tog` *fallback* fields are
/// populated instead: `node_visits` = operations, `node_wait_total` =
/// summed op latency, making `avg_toggle_wait` the mean op latency in
/// logical-clock ticks and keeping `average_ratio` finite. When the
/// `obs` feature is on, the substrate's own probe snapshot rides along
/// in `metrics` with real per-balancer service times, and its
/// violation fields are written here, from the same lane sweep as
/// `nonlinearizable`.
pub(crate) fn stats_from_trace(
    trace: Trace,
    output_counts: OutputCounts,
    input_width: usize,
    mut metrics: Option<MetricsSnapshot>,
) -> RunStats {
    let output_width = output_counts.width().max(1) as u64;
    let input_width = u32::try_from(input_width.max(1)).expect("a network width fits u32");
    let per_lane = trace.clients_per_lane.max(1);
    // the one Definition 2.4 pass of a native run, on the logical-clock
    // brackets in the order the lanes already hold them: the count
    // goes to the stats, the magnitudes to the probe snapshot when
    // there is one
    let mut magnitudes = LogHistogram::new();
    lane_magnitudes(&trace.lanes, |magnitude| {
        if magnitude > 0 {
            magnitudes.record(magnitude);
        }
    })
    .expect("every lane of a Trace is one sequential stream");
    let nonlinearizable = magnitudes.count() as usize;
    if let Some(m) = metrics.as_mut() {
        m.network.set_violations(magnitudes);
    }
    let total = trace.lanes.iter().map(Vec::len).sum();
    let mut operations = Vec::with_capacity(total);
    let mut completed_by = Vec::with_capacity(total);
    let mut total_latency = 0u64;
    for (lane, records) in trace.lanes.into_iter().enumerate() {
        for turns in records.chunks(per_lane) {
            for (turn, &(start, end, value)) in turns.iter().enumerate() {
                let client = u32::try_from(lane * per_lane + turn).expect("a client id fits u32");
                operations.push(Operation {
                    token: operations.len(),
                    input: client % input_width,
                    start,
                    end,
                    counter: u32::try_from(value % output_width)
                        .expect("a counter index below the width fits u32"),
                    value,
                });
                completed_by.push(client);
                total_latency += end - start;
            }
        }
    }
    RunStats {
        sim_time: trace.clock_end,
        node_visits: operations.len() as u64,
        node_wait_total: total_latency,
        operations,
        completed_by,
        output_counts,
        toggle_count: 0,
        toggle_wait_total: 0,
        diffraction_pairs: 0,
        max_lock_queue: 0,
        fabric: cnet_proteus::FabricStats::default(),
        nonlinearizable,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_snapshot_gets_the_verdict_of_the_trace_scan() {
        // value 7 finishes at tick 1, value 2 starts at tick 2
        let trace = Trace {
            lanes: vec![vec![(0, 1, 7)], vec![(2, 3, 2)]],
            clients_per_lane: 1,
            clock_end: 4,
        };
        let probes = cnet_obs::live::NetObserver::new(1).snapshot(0);
        let stats = stats_from_trace(trace, OutputCounts::zeros(4), 4, probes);
        assert_eq!(stats.nonlinearizable, 1);
        let network = stats.metrics.expect("the live layer snapshots").network;
        assert_eq!(network.nonlinearizable, 1);
        assert_eq!(network.violation_magnitude_total, 5);
        assert_eq!(network.violation_magnitude_max, 5);
        assert_eq!(network.violation_magnitude_hist.count(), 1);
    }

    #[test]
    fn a_violation_only_the_interleaving_reveals_is_counted() {
        // each lane alone counts upward; merged, thread 1 finishes
        // value 5 at tick 3, before thread 0 starts values 1 and 2
        let trace = Trace {
            lanes: vec![
                vec![(0, 1, 0), (4, 7, 1), (8, 9, 2)],
                vec![(2, 3, 5), (5, 6, 6)],
            ],
            clients_per_lane: 1,
            clock_end: 10,
        };
        let stats = stats_from_trace(trace, OutputCounts::zeros(4), 4, None);
        assert_eq!(stats.nonlinearizable, 2);
        assert_eq!(
            cnet_timing::linearizability::nonlinearizable_tokens(&stats.operations),
            [1, 2],
            "lane-major tokens: thread 0's second and third operation"
        );
    }

    #[test]
    #[should_panic(expected = "mean_gap >= 1")]
    fn validated_rejects_degenerate_open_gap() {
        use cnet_proteus::ArrivalProcess;
        validated(&Workload {
            arrival: ArrivalProcess::Open { mean_gap: 0 },
            ..Workload::paper(2, 0, 0)
        });
    }
}
