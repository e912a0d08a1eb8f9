//! The client loop of the native-thread backends, and of
//! [`crate::run_counter`].
//!
//! The paper's native measurement: every operation bracketed by two
//! ticks of a global logical clock, so "completely precedes" has a
//! sound witness. On top of it sit the engine's workload semantics: a
//! global op quota shared by all clients (the slots of the returned
//! buffer, claimed a chunk at a time by a closed loop and written in
//! place), the delayed-fraction/`W` mapping, the open-loop arrival
//! schedules (seeded, nanoseconds of host time), and the one timed
//! window ([`Threads`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cnet_concurrent::StressCounter;
use cnet_obs::{FrontendMetrics, LogHistogram, MetricsSnapshot};
use cnet_timing::linearizability::lane_magnitudes;
use cnet_timing::Operation;
use cnet_topology::OutputCounts;

use crate::schedule::{arrival_schedule, THREAD_STREAM};
use crate::{CheckedWorkload, ProcessMap, RunOutcome, RunStats, SimRng, WaitMode, Workload};

/// Draws one operation's `W`: the per-node spin a client hands the
/// counter ([`StressCounter::next_stressed`]), mirroring the
/// simulator's "waits `W` cycles after traversing a node in the net".
#[inline]
pub(crate) fn spin(workload: &Workload, delayed: bool, rng: &mut SimRng) -> u64 {
    match workload.wait_mode {
        WaitMode::Fixed if delayed => workload.wait_cycles,
        WaitMode::UniformRandom if workload.wait_cycles > 0 => rng.inclusive(workload.wait_cycles),
        WaitMode::Fixed | WaitMode::UniformRandom => 0,
    }
}

/// A network's wire widths, which label every record a native run
/// writes: a client enters on `client % input`, a value leaves on
/// `value % output`. Read off the counter before the run, so a client
/// thread writes its record whole.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Widths {
    input: u32,
    output: u64,
}

impl Widths {
    pub fn new(input: usize, output: usize) -> Self {
        Widths {
            input: u32::try_from(input.max(1)).expect("a network width fits u32"),
            output: output.max(1) as u64,
        }
    }

    /// The widths `counter` reports.
    pub fn of(counter: &impl StressCounter) -> Self {
        Widths::new(counter.input_width(), counter.width())
    }

    /// The input wire of `client`.
    pub fn input(self, client: usize) -> u32 {
        u32::try_from(client).expect("a client id fits u32") % self.input
    }

    /// Token `token`'s record: it entered on `input` and returned `value`
    /// between the clock ticks `start` and `end`.
    #[inline]
    pub fn operation(
        self,
        token: usize,
        input: u32,
        start: u64,
        end: u64,
        value: u64,
    ) -> Operation {
        Operation {
            token,
            input,
            start,
            end,
            counter: u32::try_from(value % self.output)
                .expect("a counter index below the width fits u32"),
            value,
        }
    }
}

/// The raw trace of one native run: every operation's record, written
/// in place by the client that ran it, the chunks of slots each lane
/// claimed, and the final logical-clock reading.
///
/// Slot `i` holds token `i`. The slots are cut into chunks of `chunk`,
/// the last one possibly partial, and lane `l` wrote the chunks
/// `claims[l]`, in the order it claimed them: a [`drive`] thread claims
/// chunks of the buffer one after another, so tokens follow claim
/// order; the async executor's one lane claims the whole buffer as one
/// chunk, op `i` being client `i % clients`'s.
///
/// Every lane, read across its chunks in order, is one sequential
/// stream, `start < end < next start`, which is what lets
/// [`stats_from_trace`] grade the lanes as they stand. Both builders
/// guarantee it: a [`drive`] thread takes its two clock ticks around
/// each operation in program order, and the async executor admits op
/// `i + 1` only after op `i` took its end tick. The lanes claim every
/// chunk exactly once, so no record the buffer was filled with before
/// the run is returned.
#[derive(Debug)]
pub(crate) struct Trace {
    pub operations: Vec<Operation>,
    pub chunk: usize,
    pub claims: Vec<Vec<u32>>,
    pub clock_end: u64,
}

impl Trace {
    /// The trace of a run with one lane, which wrote every slot of
    /// `operations` in order.
    pub fn one_lane(operations: Vec<Operation>, clock_end: u64) -> Self {
        let claims = if operations.is_empty() {
            Vec::new()
        } else {
            vec![vec![0]]
        };
        Trace {
            chunk: operations.len().max(1),
            operations,
            claims,
            clock_end,
        }
    }
}

/// The buffer a native run returns, one zero record per operation.
/// `resize` writes every page here, before the timed window, so no
/// client faults one in on its clock.
pub(crate) fn slots(workload: &Workload) -> Vec<Operation> {
    let mut operations = Vec::new();
    operations.resize(workload.total_ops, Operation::default());
    operations
}

/// Drives `workload.processors` client threads against `counter` until
/// every slot of `operations` holds an operation, timestamping each
/// with the global logical clock. Returns the trace: the buffer, each
/// thread's chunks in claim order, and the final clock reading.
///
/// The slots are handed out a chunk at a time from behind one lock. A
/// closed loop's chunk is at most 64, and at most 1/16 of a thread's
/// fair share, so a thread that falls behind (a delayed one, or a
/// descheduled one) strands no more than that behind it. With an
/// arrival schedule op `i` must meet arrival `i`, so the chunk is one.
///
/// # Panics
///
/// Panics if a client thread panics.
fn drive(
    counter: &impl StressCounter,
    workload: &CheckedWorkload,
    seed: u64,
    mut operations: Vec<Operation>,
) -> Trace {
    if operations.is_empty() {
        return Trace::one_lane(operations, 0);
    }
    let widths = Widths::of(counter);
    let clock = &AtomicU64::new(0);
    let arrivals = &arrival_schedule(workload, seed);
    let chunk = if arrivals.is_empty() {
        (workload.total_ops / workload.processors / 16).clamp(1, 64)
    } else {
        1
    };
    let dispenser = &Mutex::new(operations.chunks_mut(chunk).enumerate());
    let epoch = Instant::now();
    let claims = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workload.processors);
        for t in 0..workload.processors {
            let delayed = workload.is_delayed(t);
            let input = widths.input(t);
            handles.push(scope.spawn(move || {
                let mut rng = SimRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(THREAD_STREAM));
                let mut claims = Vec::new();
                loop {
                    // a statement of its own, so the lock is held for the
                    // claim only
                    let claim = dispenser
                        .lock()
                        .expect("no client panics holding it")
                        .next();
                    let Some((k, chunk_slots)) = claim else {
                        break;
                    };
                    let base = k * chunk;
                    for (i, slot) in (base..).zip(chunk_slots.iter_mut()) {
                        if let Some(&at) = arrivals.get(i) {
                            // open loop: hold this token until its instant
                            while (epoch.elapsed().as_nanos() as u64) < at {
                                std::hint::spin_loop();
                            }
                        }
                        let per_node = spin(workload, delayed, &mut rng);
                        let start = clock.fetch_add(1, Ordering::AcqRel);
                        let value = counter.next_stressed(t, per_node);
                        let end = clock.fetch_add(1, Ordering::AcqRel);
                        *slot = widths.operation(i, input, start, end, value);
                    }
                    claims.push(u32::try_from(k).expect("a chunk index fits u32"));
                }
                claims
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Trace {
        operations,
        chunk,
        claims,
        clock_end: clock.load(Ordering::Acquire),
    }
}

/// What a backend reads off its counter once the clients have joined.
pub(crate) struct Readout {
    pub counts: OutputCounts,
    pub metrics: Option<MetricsSnapshot>,
    pub frontend: Option<FrontendMetrics>,
}

/// The thread-per-client executor: one native run from spawn to
/// [`RunOutcome`], so the timed window is defined once — `wall_ms` is
/// [`drive`], spawn to join of the client threads, and nothing after
/// it. The returned buffer is sized and written before the window; the
/// read-out (snapshot export, final tallies) and the grading stay
/// outside, like the simulator backend's recorder freeze.
pub(crate) struct Threads<'a> {
    pub backend: &'static str,
    pub workload: &'a CheckedWorkload,
    pub seed: u64,
}

impl Threads<'_> {
    /// Runs the clients against `counter`, then calls `readout`.
    /// Generic over the concrete counter type, so the hot loop is
    /// monomorphized per counter kind; the counter's widths label the
    /// records the clients write.
    pub(crate) fn execute<C: StressCounter>(
        self,
        counter: &C,
        readout: impl FnOnce() -> Readout,
    ) -> RunOutcome {
        let operations = slots(self.workload);
        let started = Instant::now();
        let trace = drive(counter, self.workload, self.seed, operations);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let read = readout();
        RunOutcome {
            backend: self.backend,
            stats: stats_from_trace(trace, read.counts, read.metrics),
            wall_ms,
            frontend: read.frontend,
            open_loop: None,
        }
    }
}

/// Assembles a [`RunStats`] from a native trace, uniform with the
/// simulator's shape so every consumer (sweep, checker, records) works
/// unchanged. The operations are returned where the clients wrote
/// them; `completed_by` names the lane that claimed each chunk, one
/// owner per chunk rather than per operation.
///
/// Native substrates have no simulated balancer instrumentation, so
/// `sim` is `None` and the `Tog` *fallback* fields are populated
/// instead: `node_visits` = operations, `node_wait_total` =
/// summed op latency, making `avg_toggle_wait` the mean op latency in
/// logical-clock ticks and keeping `average_ratio` finite. When the
/// `obs` feature is on, the substrate's own probe snapshot rides along
/// in `metrics` with real per-balancer service times, and its
/// violation fields are written here, from the same lane sweep as
/// `nonlinearizable`.
///
/// # Panics
///
/// Panics unless the lanes claim every chunk exactly once and every
/// lane is one sequential stream: a [`Trace`]'s invariants.
pub(crate) fn stats_from_trace(
    trace: Trace,
    output_counts: OutputCounts,
    mut metrics: Option<MetricsSnapshot>,
) -> RunStats {
    const UNCLAIMED: u32 = u32::MAX;
    let Trace {
        operations,
        chunk,
        claims,
        clock_end,
    } = trace;
    let len = operations.len();
    let mut owners = vec![UNCLAIMED; len.div_ceil(chunk)];
    for (lane, lane_claims) in claims.iter().enumerate() {
        let client = u32::try_from(lane).expect("a client id fits u32");
        for &k in lane_claims {
            let owner = owners
                .get_mut(k as usize)
                .unwrap_or_else(|| panic!("lane {lane} claims chunk {k}, past the last slot"));
            assert!(
                *owner == UNCLAIMED,
                "lane {lane} claims chunk {k}, which another lane claimed"
            );
            *owner = client;
        }
    }
    assert!(
        !owners.contains(&UNCLAIMED),
        "the claims leave a slot no client wrote"
    );
    // the one Definition 2.4 pass of a native run, on the logical-clock
    // brackets in the order the lanes already hold them: the count
    // goes to the stats, the magnitudes to the probe snapshot when
    // there is one
    let slots_of = |k: u32| {
        let start = k as usize * chunk;
        &operations[start..len.min(start + chunk)]
    };
    let lanes: Vec<Vec<&[Operation]>> = claims
        .iter()
        .map(|lane| lane.iter().map(|&k| slots_of(k)).collect())
        .collect();
    let mut magnitudes = LogHistogram::new();
    let mut total_latency = 0u64;
    lane_magnitudes(&lanes, |op, magnitude| {
        total_latency += op.end - op.start;
        if magnitude > 0 {
            magnitudes.record(magnitude);
        }
    })
    .expect("every lane of a Trace is one sequential stream");
    let nonlinearizable = magnitudes.count() as usize;
    if let Some(m) = metrics.as_mut() {
        m.network.set_violations(magnitudes);
    }
    RunStats {
        sim_time: clock_end,
        node_visits: len as u64,
        node_wait_total: total_latency,
        completed_by: ProcessMap::chunked(chunk, owners, len),
        operations,
        output_counts,
        sim: None,
        nonlinearizable,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace of `(start, end, value)` records in slot order, cut into
    /// chunks of `chunk` slots, lane `l` having claimed the chunks
    /// `claims[l]`.
    fn trace(records: &[(u64, u64, u64)], chunk: usize, claims: Vec<Vec<u32>>) -> Trace {
        let widths = Widths::new(4, 4);
        let operations = records.iter().enumerate();
        Trace {
            operations: operations
                .map(|(token, &(start, end, value))| widths.operation(token, 0, start, end, value))
                .collect(),
            chunk,
            claims,
            clock_end: 2 * records.len() as u64,
        }
    }

    #[test]
    fn a_probe_snapshot_gets_the_verdict_of_the_trace_scan() {
        // value 7 finishes at tick 1, value 2 starts at tick 2
        let trace = trace(&[(0, 1, 7), (2, 3, 2)], 1, vec![vec![0], vec![1]]);
        let probes = cnet_obs::live::NetObserver::new(1).snapshot(0);
        let stats = stats_from_trace(trace, OutputCounts::zeros(4), probes);
        assert_eq!(stats.nonlinearizable, 1);
        let network = stats.metrics.expect("the live layer snapshots").network;
        assert_eq!(network.nonlinearizable, 1);
        assert_eq!(network.violation_magnitude_total, 5);
        assert_eq!(network.violation_magnitude_max, 5);
        assert_eq!(network.violation_magnitude_hist.count(), 1);
    }

    #[test]
    fn a_violation_only_the_interleaving_reveals_is_counted() {
        // each lane alone counts upward; merged, lane 1 finishes value 5
        // at tick 3, before lane 0 starts values 1 and 2 in its later chunks
        let records = [(0, 1, 0), (2, 3, 5), (4, 7, 1), (8, 9, 2), (5, 6, 6)];
        let claims = vec![vec![0, 2, 3], vec![1, 4]];
        let stats = stats_from_trace(trace(&records, 1, claims), OutputCounts::zeros(4), None);
        assert_eq!(stats.nonlinearizable, 2);
        assert_eq!(
            cnet_timing::linearizability::nonlinearizable_tokens(&stats.operations),
            [2, 3],
            "claim-order tokens: lane 0's later chunks"
        );
        assert_eq!(stats.completed_by, ProcessMap::per_op(vec![0, 1, 0, 0, 1]));
        assert_eq!(stats.node_wait_total, 1 + 1 + 3 + 1 + 1);
    }

    #[test]
    fn each_claimed_chunk_names_its_lane_once() {
        // chunks of 2 slots, the last one partial: lane 1 wrote slots
        // 0, 1 and 4, lane 0 slots 2 and 3
        let records = [(0, 1, 0), (2, 3, 1), (4, 5, 2), (6, 7, 3), (8, 9, 4)];
        let claims = vec![vec![1], vec![0, 2]];
        let stats = stats_from_trace(trace(&records, 2, claims), OutputCounts::zeros(4), None);
        assert_eq!(stats.nonlinearizable, 0);
        assert_eq!(stats.completed_by, ProcessMap::per_op(vec![1, 1, 0, 0, 1]));
        assert_eq!(stats.completed_by.process_of(4), 1);
    }

    #[test]
    #[should_panic(expected = "leave a slot no client wrote")]
    fn claims_that_leave_a_gap_are_refused() {
        // slot 1 keeps the zero record it was filled with
        let records = [(0, 1, 0), (0, 0, 0), (2, 3, 1)];
        stats_from_trace(
            trace(&records, 1, vec![vec![0], vec![2]]),
            OutputCounts::zeros(4),
            None,
        );
    }

    #[test]
    #[should_panic(expected = "which another lane claimed")]
    fn claims_that_overlap_are_refused() {
        let records = [(0, 1, 0), (2, 3, 1)];
        stats_from_trace(
            trace(&records, 1, vec![vec![0, 1], vec![1]]),
            OutputCounts::zeros(4),
            None,
        );
    }

    #[test]
    #[should_panic(expected = "past the last slot")]
    fn a_claim_past_the_buffer_is_refused() {
        let records = [(0, 1, 0), (2, 3, 1), (4, 5, 2)];
        stats_from_trace(
            trace(&records, 2, vec![vec![0], vec![2]]),
            OutputCounts::zeros(4),
            None,
        );
    }
}
