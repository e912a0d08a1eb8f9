//! The cooperative async backend: millions of logical clients on a
//! handful of OS threads.
//!
//! Every other native backend pins one OS thread per logical client,
//! which caps "clients" at what the host can schedule — thousands,
//! not the millions the ROADMAP north-star asks about. This module
//! inverts the mapping: each client is a tiny hand-rolled state
//! machine (a [`std::future::Future`] with no waker machinery, no
//! `tokio`, no allocation per operation) living in one contiguous
//! arena, and a small worker pool polls them cooperatively. A client
//! costs tens of bytes, so `10^6+` clients fit in one process.
//!
//! # Execution model: turn-sequenced admission
//!
//! Operation `i` of the workload is statically assigned to client
//! `i % n_clients`, and a single `committed` sequence counter admits
//! operations into the network **in op-index order**: a client's poll
//! returns `Pending` until `committed == i`, then performs the
//! traversal synchronously and publishes `committed = i + 1`. Workers
//! overlap everything *around* the traversal (arrival waits, spin
//! draws, bookkeeping) while the traversal tail itself is serialized.
//!
//! Three properties fall out by construction:
//!
//! * **Determinism.** The network sees one serial token stream in a
//!   fixed order, so returned values and logical-clock brackets
//!   (op `i` spans ticks `2i..2i+1`) are identical regardless of
//!   worker-pool size or client chunking — the property the
//!   determinism proptest pins.
//! * **Closed-loop client order.** Op `i − n_clients` (the same
//!   client's previous op) always commits before op `i`, so no client
//!   ever has two operations in flight.
//! * **Deadlock freedom.** By induction on the smallest uncommitted
//!   op `i`: every earlier op has committed, so the worker owning
//!   client `i % n_clients` has finished all its earlier turns and is
//!   polling exactly op `i`, which is admissible.
//!
//! Fairness is the scheduler's: each worker sweeps its clients in
//! ascending id order once per round, which is exactly the global
//! admission order restricted to its ownership — a worker is always
//! polling the one client that can make progress next, so no client
//! starves and no poll is wasted. Waiting polls back off
//! spin-then-[`std::thread::yield_now`], which keeps single-CPU hosts
//! (like CI runners) live.
//!
//! Because admission is serialized, Definition 2.4 violations are
//! structurally zero here — the async backend measures *latency under
//! offered load* (the saturation atlas), not overlap anomalies. Its
//! outcomes are the only ones carrying [`RunOutcome::open_loop`]:
//! per-operation completion instants in nanoseconds against the
//! seeded arrival schedule, windowed by `cnet-obs`.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use cnet_concurrent::network::{BalancerKind, NetworkCounter};
use cnet_concurrent::StressCounter;
use cnet_timing::Operation;
use cnet_topology::Topology;

use crate::driver::{self, Trace, Widths};
use crate::schedule::{arrival_schedule, THREAD_STREAM};
use crate::{Backend, CheckedWorkload, ProcessMap, RunOutcome, SimRng, Workload};

/// Polls a waiting client spins this many times before yielding the
/// OS thread — long enough to catch a near-committed turn without a
/// syscall, short enough that single-CPU hosts hand over promptly.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Tuning knobs for the cooperative executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncConfig {
    /// OS threads polling the client arena (at least 1).
    pub workers: usize,
    /// Clients per contiguous chunk; chunks are dealt round-robin to
    /// workers, so ownership interleaves at `chunk` granularity.
    /// Determinism does not depend on this value — it only shapes
    /// which worker hosts which client.
    pub chunk: usize,
    /// Equal-population windows in the outcome's
    /// [`RunOutcome::open_loop`] telemetry (open-loop workloads only).
    pub windows: usize,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            workers: 2,
            chunk: 1024,
            windows: 8,
        }
    }
}

/// Runs workloads by multiplexing `workload.processors` *logical*
/// clients onto [`AsyncConfig::workers`] OS threads — the only
/// backend where "processors" can plausibly be `10^6`.
///
/// Every run drives a fresh [`NetworkCounter`]. The frontends stay
/// with [`crate::ShmBackend`]: under turn-sequenced admission one
/// operation traverses at a time, so a combiner would only ever serve
/// itself and a shard router would have no contention to spread.
///
/// The same seeded arrival schedules as the thread-per-client
/// backends are replayed (same `ARRIVAL_STREAM`, nanoseconds of host
/// time), so outcomes stay comparable with sim/shm. See the
/// module docs for the turn-sequenced execution model and its
/// determinism guarantee.
#[derive(Debug, Clone, Copy)]
pub struct AsyncBackend<'a> {
    topology: &'a Topology,
    kind: BalancerKind,
    config: AsyncConfig,
    seed: u64,
}

impl<'a> AsyncBackend<'a> {
    /// The family name every outcome of this backend carries.
    pub const NAME: &'static str = "async";

    /// A backend driving a [`NetworkCounter`] with `kind` balancers
    /// built over `topology`.
    #[must_use]
    pub fn new(topology: &'a Topology, kind: BalancerKind, config: AsyncConfig, seed: u64) -> Self {
        AsyncBackend {
            topology,
            kind,
            config,
            seed,
        }
    }
}

/// State shared by every client and worker of one run.
struct Shared<'a> {
    counter: &'a NetworkCounter,
    workload: &'a Workload,
    /// Global logical clock: one tick on each side of every
    /// traversal, as in the client loop of [`crate::driver`].
    clock: AtomicU64,
    /// The admission turnstile: the op index allowed to traverse next.
    committed: AtomicUsize,
    /// Open-loop arrival instants (empty when closed).
    arrivals: Vec<u64>,
    epoch: Instant,
    widths: Widths,
    n_clients: usize,
}

/// One operation as harvested from a client: its record (token = op
/// index) and its completion instant in nanoseconds.
type OpRecord = (Operation, u64);

/// One logical client: a hand-rolled future whose poll either waits
/// (arrival instant not reached, or not its turn) or performs exactly
/// one traversal. The worker harvests `done` after each completed op,
/// so the client itself never allocates.
struct ClientTask<'a> {
    shared: &'a Shared<'a>,
    id: usize,
    /// Global index of this client's next assigned op
    /// (`id`, `id + n`, `id + 2n`, …).
    next_op: usize,
    input: u32,
    delayed: bool,
    rng: SimRng,
    done: Option<OpRecord>,
}

impl<'a> ClientTask<'a> {
    fn new(shared: &'a Shared<'a>, id: usize, seed: u64) -> Self {
        ClientTask {
            shared,
            id,
            next_op: id,
            input: shared.widths.input(id),
            delayed: shared.workload.is_delayed(id),
            rng: SimRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(THREAD_STREAM)),
            done: None,
        }
    }
}

impl Future for ClientTask<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let task = self.get_mut();
        let sh = task.shared;
        let op = task.next_op;
        if op >= sh.workload.total_ops {
            return Poll::Ready(());
        }
        if let Some(&at) = sh.arrivals.get(op) {
            // open loop: this token may not enter before its instant
            if (sh.epoch.elapsed().as_nanos() as u64) < at {
                return Poll::Pending;
            }
        }
        if sh.committed.load(Ordering::Acquire) != op {
            return Poll::Pending;
        }
        // admitted: the traversal runs synchronously inside the poll
        let per_node = driver::spin(sh.workload, task.delayed, &mut task.rng);
        let start = sh.clock.fetch_add(1, Ordering::AcqRel);
        let value = sh.counter.next_stressed(task.id, per_node);
        let end = sh.clock.fetch_add(1, Ordering::AcqRel);
        let completed_ns = sh.epoch.elapsed().as_nanos() as u64;
        sh.committed.store(op + 1, Ordering::Release);
        let record = sh.widths.operation(op, task.input, start, end, value);
        task.done = Some((record, completed_ns));
        task.next_op = op + sh.n_clients;
        if task.next_op >= sh.workload.total_ops {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// One worker's loop: sweep the owned clients in ascending id order,
/// driving each through exactly one op per round. Because the global
/// admission order *is* round-major client-minor, the client under
/// the cursor is always the worker's next admissible one — so a
/// `Pending` poll means "someone else's turn or arrival pending", and
/// the worker backs off in place rather than scanning.
fn run_worker(chunks: Vec<&mut [ClientTask<'_>]>, out: &mut Vec<OpRecord>) {
    let mut cx = Context::from_waker(Waker::noop());
    let mut live: Vec<&mut ClientTask<'_>> =
        chunks.into_iter().flat_map(|c| c.iter_mut()).collect();
    while !live.is_empty() {
        let mut next_round = Vec::with_capacity(live.len());
        for client in live {
            let mut spins = 0u32;
            let finished = loop {
                match Pin::new(&mut *client).poll(&mut cx) {
                    Poll::Ready(()) => break true,
                    Poll::Pending => {
                        if client.done.is_some() {
                            break false;
                        }
                        spins += 1;
                        if spins > SPINS_BEFORE_YIELD {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
            };
            if let Some(record) = client.done.take() {
                out.push(record);
            }
            if !finished {
                next_round.push(client);
            }
        }
        live = next_round;
    }
}

/// The executor: builds the client arena, deals chunks to workers,
/// runs to quiescence, and writes each record **at its op index** in
/// `operations`, one lane of one chunk, so trace token `i` is workload op
/// `i` of client `i % n_clients` (which is what aligns the open-loop
/// arrival and completion vectors).
fn drive_async(
    counter: &NetworkCounter,
    workload: &CheckedWorkload,
    seed: u64,
    config: AsyncConfig,
    mut operations: Vec<Operation>,
) -> (Trace, Vec<u64>, Vec<u64>) {
    if operations.is_empty() {
        return (Trace::one_lane(operations, 0), Vec::new(), Vec::new());
    }
    let shared = Shared {
        counter,
        workload,
        clock: AtomicU64::new(0),
        committed: AtomicUsize::new(0),
        arrivals: arrival_schedule(workload, seed),
        epoch: Instant::now(),
        widths: Widths::of(counter),
        n_clients: workload.processors,
    };
    let mut arena: Vec<ClientTask<'_>> = (0..workload.processors)
        .map(|id| ClientTask::new(&shared, id, seed))
        .collect();
    let workers = config.workers.max(1).min(workload.processors);
    let chunk = config.chunk.max(1);
    let mut completions = vec![0u64; operations.len()];
    std::thread::scope(|scope| {
        let mut assignments: Vec<Vec<&mut [ClientTask<'_>]>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, c) in arena.chunks_mut(chunk).enumerate() {
            assignments[i % workers].push(c);
        }
        let mut handles = Vec::with_capacity(workers);
        for chunks in assignments {
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                run_worker(chunks, &mut out);
                out
            }));
        }
        for h in handles {
            for (record, completed_ns) in h.join().expect("async worker panicked") {
                completions[record.token] = completed_ns;
                operations[record.token] = record;
            }
        }
    });
    drop(arena);
    let trace = Trace::one_lane(operations, shared.clock.load(Ordering::Acquire));
    (trace, shared.arrivals, completions)
}

impl Backend for AsyncBackend<'_> {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn run_checked(&self, workload: &CheckedWorkload) -> RunOutcome {
        let counter = NetworkCounter::with_kind(self.topology, self.kind);
        let operations = driver::slots(workload);
        let started = Instant::now();
        let (trace, arrivals, completions) =
            drive_async(&counter, workload, self.seed, self.config, operations);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        // snapshot export stays outside the timed window, like every
        // other backend's recorder freeze
        let counts = counter.output_counts().into_iter().collect();
        let metrics = counter.metrics_snapshot(workload.wait_cycles);
        let mut stats = driver::stats_from_trace(trace, counts, metrics);
        // the one lane is shared round-robin: op i is client i % n's
        stats.completed_by = ProcessMap::per_op(
            (0..stats.operations.len())
                .map(|i| u32::try_from(i % workload.processors).expect("a client id fits u32"))
                .collect(),
        );
        let open_loop = if workload.is_open_loop() && !stats.operations.is_empty() {
            let tokens = cnet_timing::linearizability::nonlinearizable_tokens(&stats.operations);
            Some(cnet_obs::open_loop_metrics(
                &arrivals,
                &completions,
                &tokens,
                self.config.windows,
            ))
        } else {
            None
        };
        RunOutcome {
            backend: Self::NAME,
            stats,
            wall_ms,
            frontend: None,
            open_loop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrivalProcess;
    use cnet_topology::constructions;

    fn workload(clients: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(clients, 0, 0)
        }
    }

    fn cfg(workers: usize, chunk: usize) -> AsyncConfig {
        AsyncConfig {
            workers,
            chunk,
            windows: 4,
        }
    }

    #[test]
    fn network_flavor_counts_exactly_with_more_clients_than_workers() {
        let net = constructions::bitonic(4).unwrap();
        let outcome =
            AsyncBackend::new(&net, BalancerKind::WaitFree, cfg(2, 16), 3).run(&workload(100, 500));
        assert_eq!(outcome.backend, "async");
        assert_eq!(outcome.stats.operations.len(), 500);
        assert!(outcome.counts_exactly());
        assert!(outcome.has_step_property());
        assert_eq!(outcome.stats.output_counts.total(), 500);
        // serialized admission: zero Definition 2.4 violations
        assert_eq!(outcome.stats.nonlinearizable, 0);
    }

    #[test]
    fn trace_is_in_op_order_with_serial_clock_brackets() {
        let net = constructions::bitonic(4).unwrap();
        let outcome =
            AsyncBackend::new(&net, BalancerKind::WaitFree, cfg(3, 8), 9).run(&workload(64, 300));
        for (i, op) in outcome.stats.operations.iter().enumerate() {
            assert_eq!(op.token, i);
            assert_eq!(op.start, 2 * i as u64);
            assert_eq!(op.end, 2 * i as u64 + 1);
        }
    }

    #[test]
    fn closed_loop_clients_take_turns_round_robin() {
        let net = constructions::bitonic(2).unwrap();
        let outcome =
            AsyncBackend::new(&net, BalancerKind::WaitFree, cfg(2, 4), 1).run(&workload(10, 35));
        // op i belongs to client i % 10 by static assignment
        for (i, client) in outcome.stats.completed_by.iter().enumerate() {
            assert_eq!(client as usize, i % 10);
        }
    }

    #[test]
    fn open_loop_outcomes_carry_telemetry() {
        let net = constructions::bitonic(4).unwrap();
        let outcome =
            AsyncBackend::new(&net, BalancerKind::WaitFree, cfg(2, 8), 11).run(&Workload {
                total_ops: 200,
                arrival: ArrivalProcess::Open { mean_gap: 100 },
                ..Workload::paper(32, 0, 0)
            });
        assert_eq!(outcome.stats.operations.len(), 200);
        assert!(outcome.counts_exactly());
        let ol = outcome.open_loop.expect("open-loop runs carry telemetry");
        assert_eq!(ol.latency.count(), 200);
        assert_eq!(ol.windows.len(), 4);
        assert!(ol.lag_ratio() >= 1.0);
        assert!(outcome.stats.operations.len() == 200 && ol.violations == 0);
    }

    #[test]
    fn closed_loop_outcomes_have_no_telemetry_block() {
        let net = constructions::bitonic(4).unwrap();
        let outcome =
            AsyncBackend::new(&net, BalancerKind::WaitFree, cfg(1, 64), 2).run(&workload(16, 100));
        assert!(outcome.open_loop.is_none());
    }

    #[test]
    fn delayed_fraction_and_bursty_arrivals_stay_correct() {
        let net = constructions::bitonic(4).unwrap();
        let outcome = AsyncBackend::new(&net, BalancerKind::Locked, cfg(2, 8), 13).run(&Workload {
            total_ops: 150,
            arrival: ArrivalProcess::Bursty { burst: 8, gap: 500 },
            ..Workload::paper(24, 50, 100)
        });
        assert!(outcome.counts_exactly());
    }

    #[test]
    fn zero_work_degenerates_safely() {
        let net = constructions::bitonic(4).unwrap();
        let b = AsyncBackend::new(&net, BalancerKind::WaitFree, cfg(2, 8), 1);
        assert_eq!(
            b.try_run(&workload(0, 100)).err(),
            Some(crate::WorkloadError::NoClients)
        );
        assert!(b.run(&workload(8, 0)).stats.operations.is_empty());
    }
}
