//! The daemon: a compiled counting network behind a unix socket.
//!
//! [`CounterServer::start`] binds the socket, spawns the accept loop,
//! and returns a [`ServerHandle`]. Each accepted connection gets a
//! thread that decodes [`crate::proto`] frames and drives the shared
//! [`NetworkCounter`] — always through the batch path (`Next` is a
//! batch of one), because a compiled network must be driven through
//! exactly one of its two allocator paths.
//!
//! # The consistency witness
//!
//! Every operation is bracketed by the [`ServiceDriver`]'s logical
//! clock: `begin()` before the traversal, `complete()` after. Both take
//! their tick under one lock, so the largest value completed when
//! `begin()` runs is exactly the Definition 2.4 witness — the largest
//! value that finished before the operation started. The completion
//! callback hands that witness to the online [`SloEvaluator`] inside
//! the driver's critical section, which also keeps windows and the
//! history ring in end-tick order. That is what makes the service's
//! live violation counts exact rather than approximate (the
//! integration tests replay the recorded history offline and assert
//! window-by-window equality).
//!
//! # Shutdown ordering
//!
//! A `Shutdown` frame, [`ServerHandle::request_shutdown`], or (when
//! [`ServeConfig::watch_signals`] is set) `SIGTERM`/`SIGINT` begins the
//! drain: the accept loop stops admitting connections, each connection
//! thread finishes every request it has already read — a client
//! mid-`NextBatch` always receives its full reply, so reserved values
//! are never silently dropped — then says `Bye`. Only after every
//! connection thread has exited does the server freeze the final SLO
//! snapshot, flush the final [`RunRecord`] dump, and unlink the
//! socket. Snapshot before socket teardown, per the service contract.

use std::collections::VecDeque;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cnet_concurrent::NetworkCounter;
use cnet_engine::{ProcessMap, RunRecord, RunStats, ServiceDriver, Workload};
use cnet_obs::{SloEvaluator, SloPolicy, SloReport};
use cnet_timing::Operation;
use cnet_topology::{OutputCounts, Topology};

use crate::proto::{self, Request, Response, MAX_BATCH};
use crate::signal;

/// How often connection threads and the accept loop wake up to check
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Everything a [`CounterServer`] needs besides the topology.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Filesystem path of the unix socket to bind (a stale file left
    /// by a dead server is removed first).
    pub socket: PathBuf,
    /// The SLO thresholds evaluated per closed window.
    pub policy: SloPolicy,
    /// Completions per SLO window.
    pub window_ops: u64,
    /// Completed operations retained for offline replay and dumps
    /// (older ones are dropped and counted, not lost silently).
    pub history_cap: usize,
    /// Where to write periodic + final [`RunRecord`] dumps; `None`
    /// disables dumping.
    pub dump_path: Option<PathBuf>,
    /// Interval between periodic dumps.
    pub dump_every: Duration,
    /// `label` stamped on dumped records.
    pub label: String,
    /// Network description stamped on dumped records.
    pub kind: String,
    /// Seed stamped on dumped records (the service itself is driven by
    /// live clients, not a seeded schedule).
    pub seed: u64,
    /// Whether the accept loop also honors the process-wide
    /// `SIGTERM`/`SIGINT` flag ([`signal::termination_requested`]).
    /// The CLI sets this; in-process tests leave it off so one test's
    /// signal cannot stop another test's server.
    pub watch_signals: bool,
}

impl ServeConfig {
    /// A config with service defaults: 1024-op windows, an unbounded
    /// policy, 64Ki retained operations, no dumps, no signal watch.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            policy: SloPolicy::unbounded(),
            window_ops: 1024,
            history_cap: 64 * 1024,
            dump_path: None,
            dump_every: Duration::from_secs(10),
            label: "serve".to_string(),
            kind: "Counting Network Service".to_string(),
            seed: 0,
            watch_signals: false,
        }
    }
}

/// The per-bracket record kept for offline replay: the `k` operations
/// of one traversal, run-length encoded — they share everything but
/// their values `base..base + k` — plus the connection that performed
/// them (the "processor" for program-order purposes). Their tokens and
/// input wire are not stored: the ring's tokens are contiguous from
/// [`History::dropped`], and the input is `conn % input_width`.
#[derive(Debug)]
struct HistoryRun {
    start: u64,
    end: u64,
    base: u64,
    k: u32,
    conn: u32,
}

const _: () = assert!(std::mem::size_of::<HistoryRun>() == 32);

impl HistoryRun {
    /// Forgets the run's first `d <= k` operations.
    fn skip(&mut self, d: u64) {
        self.base += d;
        self.k -= u32::try_from(d).expect("a run skips at most its own k");
    }
}

/// The served history: the last `history_cap` completed *operations*,
/// kept as one run per bracket, in completion order.
///
/// Its tokens are contiguous, from [`History::dropped`] to one below
/// the number of completions. [`History::expand`] is the one place
/// those operations are materialised — for a dump, a test, or anyone
/// else who needs them one by one.
#[derive(Debug, Default)]
pub struct History {
    runs: VecDeque<HistoryRun>,
    cap: u64,
    completions: u64,
    /// The network's output width: a value's counter is `value % width`.
    width: u64,
    /// The network's input width: a connection's input is
    /// `conn % input_width`, the rule `Core::draw` picks it by.
    input_width: u32,
}

impl History {
    fn new(cap: usize, width: usize, input_width: usize) -> Self {
        History {
            runs: VecDeque::new(),
            cap: cap.max(1) as u64,
            completions: 0,
            width: width as u64,
            input_width: u32::try_from(input_width)
                .expect("an input width fits u32, as `Operation::input` does"),
        }
    }

    /// Operations retained: the number of completions, up to the cap.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.completions.min(self.cap)).expect("the cap came from a usize")
    }

    /// Whether nothing has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completions == 0
    }

    /// Completions no longer retained: every token below this one.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.completions.saturating_sub(self.cap)
    }

    /// Appends the bracket that just completed, `k` operations on
    /// `base..base + k` by connection `conn`, in time independent of `k`.
    ///
    /// Room is made before the push, never after: a ring of single
    /// operations sits at exactly `history_cap` runs, and one more
    /// would double the `VecDeque`.
    fn push(&mut self, start: u64, end: u64, base: u64, k: u64, conn: u32) {
        let mut run = HistoryRun {
            start,
            end,
            base,
            k: u32::try_from(k).expect("a bracket draws at most MAX_BATCH values"),
            conn,
        };
        let run_token = self.completions;
        let mut front_token = self.dropped(); // the ring starts there
        self.completions += k;
        // the boundary may fall inside the front run, or inside `run`
        let keep_from = self.dropped();
        while let Some(front) = self.runs.front_mut() {
            let front_end = front_token + u64::from(front.k);
            if front_end > keep_from {
                front.skip(keep_from - front_token);
                break;
            }
            front_token = front_end;
            self.runs.pop_front();
        }
        run.skip(keep_from.saturating_sub(run_token));
        self.runs.push_back(run);
    }

    /// The retained history, one [`Operation`] per completion, with the
    /// connection behind each.
    #[must_use]
    pub fn expand(&self) -> (Vec<Operation>, Vec<u32>) {
        let mut operations = Vec::with_capacity(self.len());
        let mut completed_by = Vec::with_capacity(self.len());
        let mut token = self.dropped();
        for run in &self.runs {
            let input = run.conn % self.input_width;
            for value in run.base..run.base + u64::from(run.k) {
                operations.push(Operation {
                    token: usize::try_from(token).unwrap_or(usize::MAX),
                    input,
                    start: run.start,
                    end: run.end,
                    counter: u32::try_from(value % self.width)
                        .expect("a counter index below the width fits u32"),
                    value,
                });
                completed_by.push(run.conn);
                token += 1;
            }
        }
        (operations, completed_by)
    }
}

/// State guarded by one lock: the evaluator fed in end order, and the
/// bounded history behind it.
#[derive(Debug)]
struct SloState {
    evaluator: SloEvaluator,
    history: History,
}

/// Shared server state: the counter, the logical clock, and the SLO
/// pipeline.
struct Core {
    counter: NetworkCounter,
    driver: ServiceDriver,
    slo: Mutex<SloState>,
    epoch: Instant,
    closing: AtomicBool,
    conn_seq: AtomicUsize,
    config: ServeConfig,
}

impl Core {
    fn uptime_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn closing(&self) -> bool {
        self.closing.load(Ordering::Relaxed)
            || (self.config.watch_signals && signal::termination_requested())
    }

    /// The whole operation: reserve `[base, base + k)` with one
    /// traversal, bracketed by the logical clock, feeding the SLO
    /// evaluator (with the witness read at `begin`) and the history
    /// ring inside the completion critical section, so the ring is in
    /// end order. Both are fed once per bracket, whatever `k`: the
    /// section every other connection's `begin`/`complete` waits on
    /// does not grow with the batch.
    fn draw(&self, conn: u32, k: u64, as_batch: bool) -> Response {
        let input = conn as usize % self.counter.input_width();
        let service_start = Instant::now();
        let mut bracket = self.driver.begin();
        let start = bracket.start();
        let base = self.counter.next_batch_on(input, k, 0);
        bracket.drew(base, k);
        let end = self.driver.complete(bracket, |end, witness| {
            let sojourn_ns = u64::try_from(service_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let now_ms = self.uptime_ms();
            let mut s = self.slo.lock().expect("slo lock poisoned");
            s.evaluator
                .record_batch(base, k, sojourn_ns, witness, now_ms);
            s.history.push(start, end, base, k, conn);
            end
        });
        if as_batch {
            Response::Batch {
                base,
                k: k as u32,
                start,
                end,
            }
        } else {
            Response::Value {
                value: base,
                start,
                end,
            }
        }
    }

    fn snapshot(&self) -> SloReport {
        let uptime = self.uptime_ms();
        let s = self.slo.lock().expect("slo lock poisoned");
        s.evaluator.snapshot(uptime)
    }

    fn handle(&self, conn: u32, req: Request) -> Response {
        match req {
            Request::Next => self.draw(conn, 1, false),
            Request::NextBatch { k } => {
                if k == 0 || k > MAX_BATCH {
                    Response::Err {
                        message: format!("batch size {k} outside 1..={MAX_BATCH}"),
                    }
                } else {
                    self.draw(conn, u64::from(k), true)
                }
            }
            Request::Snapshot => Response::Snapshot {
                json: serde::json::to_string_pretty(&serde::Serialize::to_value(&self.snapshot())),
            },
            Request::Health => {
                let uptime_ms = self.uptime_ms();
                let s = self.slo.lock().expect("slo lock poisoned");
                Response::Health {
                    ops: s.evaluator.ops(),
                    uptime_ms,
                    breaches: s.evaluator.breaches(),
                }
            }
            Request::Shutdown => {
                self.closing.store(true, Ordering::Relaxed);
                Response::Bye
            }
        }
    }

    /// Freezes the retained history into a schema-v6 [`RunRecord`].
    ///
    /// The record's `stats` describe the *retained* trace (its
    /// `nonlinearizable` is recomputed over exactly those operations,
    /// so it stays self-consistent once old completions leave the ring); the
    /// full-stream truth lives in the `slo` block, whose totals cover
    /// every completion since the service started.
    fn dump_record(&self) -> RunRecord {
        let uptime = self.uptime_ms();
        let s = self.slo.lock().expect("slo lock poisoned");
        let report = s.evaluator.snapshot(uptime);
        let magnitudes = s.evaluator.violation_magnitudes().clone();
        let (operations, completed_by) = s.history.expand();
        drop(s);
        // the probe snapshot's violation fields are the evaluator's
        // full-stream verdict, the same one the `slo` block totals
        let mut metrics = self.counter.metrics_snapshot(0);
        if let Some(m) = metrics.as_mut() {
            m.network.set_violations(magnitudes);
        }
        let nonlinearizable = cnet_timing::linearizability::count_nonlinearizable(&operations);
        let total_ops = operations.len();
        let stats = RunStats {
            operations,
            completed_by: ProcessMap::per_op(completed_by),
            output_counts: OutputCounts::from(self.counter.output_counts()),
            sim_time: self.driver.clock(),
            node_visits: 0,
            node_wait_total: 0,
            sim: None,
            nonlinearizable,
            metrics,
        };
        let workload = Workload {
            total_ops,
            ..Workload::paper(self.conn_seq.load(Ordering::Relaxed).max(1), 0, 0)
        };
        let wall_ms = self.epoch.elapsed().as_secs_f64() * 1e3;
        let mut record = RunRecord::measure_on(
            "serve",
            self.config.label.clone(),
            self.config.kind.clone(),
            &workload,
            self.config.seed,
            &stats,
            wall_ms,
        );
        record.slo = Some(report);
        record
    }

    /// Writes the dump atomically (temp file + rename) so a reader —
    /// the soak CI's `test -s`, a human's `jq` — never sees a torn
    /// JSON document.
    fn write_dump(&self, path: &Path) -> io::Result<()> {
        let record = self.dump_record();
        let mut text = serde::json::to_string_pretty(&serde::Serialize::to_value(&record));
        text.push('\n');
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, path)
    }
}

/// What [`ServerHandle::wait`] returns once the daemon has drained.
#[derive(Debug)]
pub struct ServeSummary {
    /// The final SLO snapshot, frozen after the last connection exited.
    pub report: SloReport,
    /// The retained completion history, handed over as the service kept
    /// it; [`History::expand`] materialises its operations.
    pub history: History,
    /// Completions dropped from the front of the bounded history
    /// (`history.dropped()`).
    pub history_dropped: u64,
    /// Connections accepted over the service's lifetime.
    pub connections: usize,
    /// Periodic + final dumps written.
    pub dumps_written: u64,
}

/// A running daemon; dropping the handle does **not** stop it — call
/// [`ServerHandle::request_shutdown`] then [`ServerHandle::wait`].
pub struct ServerHandle {
    core: Arc<Core>,
    accept_thread: thread::JoinHandle<io::Result<ServeSummary>>,
}

impl ServerHandle {
    /// The path clients should connect to.
    #[must_use]
    pub fn socket_path(&self) -> &Path {
        &self.core.config.socket
    }

    /// Begins the drain, exactly as a client `Shutdown` frame would.
    pub fn request_shutdown(&self) {
        self.core.closing.store(true, Ordering::Relaxed);
    }

    /// A point-in-time SLO snapshot of the running service.
    #[must_use]
    pub fn snapshot(&self) -> SloReport {
        self.core.snapshot()
    }

    /// Blocks until the daemon has drained and torn down, returning
    /// the final snapshot and the retained history.
    ///
    /// # Errors
    ///
    /// Propagates an accept or dump write failure, once the service has
    /// drained its connections and unlinked its socket as on a clean
    /// shutdown (bind errors surface from [`CounterServer::start`]
    /// instead).
    ///
    /// # Panics
    ///
    /// Panics if the accept thread itself panicked.
    pub fn wait(self) -> io::Result<ServeSummary> {
        self.accept_thread.join().expect("accept thread panicked")
    }
}

/// Constructor for the daemon; see the module docs for the lifecycle.
pub struct CounterServer;

impl CounterServer {
    /// Builds the compiled counter over `topology`, binds the socket,
    /// and spawns the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error (after removing a stale socket file, a
    /// failure here means the path is genuinely unusable).
    pub fn start(topology: &Topology, config: ServeConfig) -> io::Result<ServerHandle> {
        let _ = std::fs::remove_file(&config.socket); // stale socket from a dead server
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        let counter = NetworkCounter::new(topology);
        let core = Arc::new(Core {
            driver: ServiceDriver::new(),
            slo: Mutex::new(SloState {
                evaluator: SloEvaluator::new(config.policy, config.window_ops),
                history: History::new(config.history_cap, counter.width(), counter.input_width()),
            }),
            counter,
            epoch: Instant::now(),
            closing: AtomicBool::new(false),
            conn_seq: AtomicUsize::new(0),
            config,
        });
        let accept_core = Arc::clone(&core);
        let accept_thread = thread::Builder::new()
            .name("cnet-serve-accept".to_string())
            .spawn(move || accept_loop(&accept_core, &listener))
            .expect("spawn accept thread");
        Ok(ServerHandle {
            core,
            accept_thread,
        })
    }
}

fn accept_loop(core: &Arc<Core>, listener: &UnixListener) -> io::Result<ServeSummary> {
    let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut dumps_written = 0u64;
    let served = accept_until_closing(core, listener, &mut conns, &mut dumps_written);
    // drain: connection threads see the closing flag, finish every
    // request already read, send Bye, and exit — after an accept or
    // dump failure too, so no thread is left serving a dead server
    core.closing.store(true, Ordering::Relaxed);
    for h in conns {
        let _ = h.join();
    }
    // final snapshot + flush strictly before the socket disappears
    let finished = served.and_then(|()| {
        let report = core.snapshot();
        if let Some(path) = &core.config.dump_path {
            core.write_dump(path)?;
            dumps_written += 1;
        }
        Ok(report)
    });
    let _ = std::fs::remove_file(&core.config.socket);
    let report = finished?;
    let history = std::mem::take(&mut core.slo.lock().expect("slo lock poisoned").history);
    Ok(ServeSummary {
        report,
        history_dropped: history.dropped(),
        history,
        connections: core.conn_seq.load(Ordering::Relaxed),
        dumps_written,
    })
}

/// Accepts connections and writes the periodic dumps until the closing
/// flag (or a signal) is seen; an accept or dump failure ends it early.
fn accept_until_closing(
    core: &Arc<Core>,
    listener: &UnixListener,
    conns: &mut Vec<thread::JoinHandle<()>>,
    dumps_written: &mut u64,
) -> io::Result<()> {
    let mut last_dump = Instant::now();
    while !core.closing() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                // history entries name their connection in 32 bits: one
                // past that is closed unanswered, not aliased
                if let Ok(conn) = u32::try_from(core.conn_seq.fetch_add(1, Ordering::Relaxed)) {
                    let conn_core = Arc::clone(core);
                    let handle = thread::Builder::new()
                        .name(format!("cnet-serve-conn-{conn}"))
                        .spawn(move || serve_connection(&conn_core, conn, stream))
                        .expect("spawn connection thread");
                    conns.push(handle);
                    conns.retain(|h| !h.is_finished());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // woken by the next connection, or by the interval the
                // flags and the dump timer are looked at
                signal::wait_readable(listener, POLL_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if let Some(path) = &core.config.dump_path {
            if last_dump.elapsed() >= core.config.dump_every {
                core.write_dump(path)?;
                *dumps_written += 1;
                last_dump = Instant::now();
            }
        }
    }
    Ok(())
}

/// One connection: decode frames, answer them, drain politely.
///
/// The read timeout doubles as the shutdown poll: on a quiet socket the
/// thread wakes every [`POLL_INTERVAL`] to check the closing flag.
/// Once closing, any request already decoded is still answered in full
/// (a mid-`NextBatch` client gets its whole interval — the values were
/// reserved, dropping them would tear a gap in the counting sequence),
/// and the next quiet moment sends `Bye` and hangs up.
fn serve_connection(core: &Arc<Core>, conn: u32, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = io::BufWriter::new(stream);
    loop {
        // drain boundary: once closing, finish whatever is already
        // buffered (those requests were sent before the client could
        // learn of the shutdown), then hang up — without waiting for a
        // hammering client to pause. A request still in the kernel
        // buffer gets Bye instead of a reply; it was never executed,
        // so no reserved values are lost.
        if core.closing() && reader.buffer().is_empty() {
            let _ = proto::write_response(&mut writer, &Response::Bye);
            let _ = io::Write::flush(&mut writer);
            return;
        }
        match proto::read_request(&mut reader) {
            Ok(Some(req)) => {
                let shutdown = req == Request::Shutdown;
                let resp = core.handle(conn, req);
                if proto::write_response(&mut writer, &resp).is_err() {
                    return;
                }
                if io::Write::flush(&mut writer).is_err() || shutdown {
                    return;
                }
            }
            Ok(None) => return, // client hung up cleanly
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if core.closing() {
                    let _ = proto::write_response(&mut writer, &Response::Bye);
                    let _ = io::Write::flush(&mut writer);
                    return;
                }
            }
            Err(_) => {
                let _ = proto::write_response(
                    &mut writer,
                    &Response::Err {
                        message: "malformed frame; closing connection".to_string(),
                    },
                );
                let _ = io::Write::flush(&mut writer);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use cnet_topology::constructions;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::Deserialize as _;

    /// The ring against a per-operation model that stores every token
    /// and input: whatever the run lengths — many longer than the ring —
    /// the derived fields and the trimmed front agree after every push.
    #[test]
    fn the_history_derives_what_a_per_operation_ring_stores() {
        const WIDTH: usize = 8;
        const INPUT_WIDTH: usize = 3;
        // every residue mod the input width, and ids past it
        const CONNS: [u32; 6] = [0, 1, 2, 4, 8, u32::MAX];
        let mut rng = StdRng::seed_from_u64(0x4157_0127);
        for cap in [1usize, 2, 7, 1000] {
            let mut history = History::new(cap, WIDTH, INPUT_WIDTH);
            let mut model: VecDeque<(Operation, u32)> = VecDeque::new();
            let (mut token, mut tick, mut dropped) = (0usize, 0u64, 0u64);
            for _ in 0..200 {
                let k = rng.gen_range(1..=cap as u64 + 300);
                let conn = CONNS[rng.gen_range(0..CONNS.len())];
                let start = tick;
                let end = start + rng.gen_range(1..=5u64);
                tick = end + 1;
                let base = rng.gen_range(0..1u64 << 40);
                history.push(start, end, base, k, conn);
                for value in base..base + k {
                    let op = Operation {
                        token,
                        input: conn % INPUT_WIDTH as u32,
                        start,
                        end,
                        counter: (value % WIDTH as u64) as u32,
                        value,
                    };
                    model.push_back((op, conn));
                    token += 1;
                }
                while model.len() > cap {
                    model.pop_front();
                    dropped += 1;
                }
                let (operations, completed_by) = history.expand();
                let (want_ops, want_by): (Vec<Operation>, Vec<u32>) = model.iter().copied().unzip();
                assert_eq!(operations, want_ops, "cap {cap}, token {token}");
                assert_eq!(completed_by, want_by, "cap {cap}, token {token}");
                assert_eq!(history.dropped(), dropped, "cap {cap}, token {token}");
                assert_eq!(history.len(), model.len());
                assert!(history.runs.len() <= cap);
            }
        }
    }

    /// The probe snapshot in a dump carries the evaluator's verdict and
    /// no other, whatever mix of single and batch draws it served.
    #[test]
    fn the_dump_agrees_with_the_slo_block() {
        const CLIENTS: u64 = 4;
        const ROUNDS: u64 = 5;
        const MAX_K: u32 = 8;
        let dir = std::env::temp_dir();
        let tag = format!("cnet-serve-kernel-{}", std::process::id());
        let mut config = ServeConfig::new(dir.join(format!("{tag}.sock")));
        config.dump_path = Some(dir.join(format!("{tag}.json")));
        config.dump_every = Duration::from_secs(3600); // only the final flush
        let (socket, dump) = (config.socket.clone(), config.dump_path.clone().unwrap());
        let net = constructions::bitonic(4).unwrap();
        let handle = CounterServer::start(&net, config).unwrap();

        let mut draws = 0u64;
        for _ in 0..ROUNDS {
            thread::scope(|scope| {
                for t in 0..CLIENTS {
                    let socket = &socket;
                    scope.spawn(move || {
                        let mut client = ServeClient::connect(socket).unwrap();
                        for i in 0..200u64 {
                            client.next().unwrap();
                            let k = 1 + ((t + i) % u64::from(MAX_K)) as u32;
                            assert_eq!(client.next_batch(k).unwrap().k, k);
                        }
                    });
                }
            });
            draws = handle.snapshot().total.ops;
        }
        assert!(draws >= 20_000, "{draws} draws");

        handle.request_shutdown();
        let summary = handle.wait().unwrap();
        assert_eq!(summary.report.total.ops, draws);
        let text = std::fs::read_to_string(&dump).unwrap();
        std::fs::remove_file(&dump).unwrap();
        let record = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        let total = record.slo.expect("a dump carries the slo block").total;
        assert_eq!(total, summary.report.total);
        // `None` without the probe layer (`--features cnet-engine/obs`)
        if let Some(metrics) = record.metrics {
            assert_eq!(metrics.network.operations, CLIENTS * ROUNDS * 400);
            assert_eq!(metrics.network.nonlinearizable, total.violations);
            assert_eq!(
                metrics.network.violation_magnitude_total,
                total.magnitude_total
            );
            assert_eq!(metrics.network.violation_magnitude_max, total.magnitude_max);
            assert_eq!(
                metrics.network.violation_magnitude_hist.count(),
                total.violations
            );
        }
    }
}
