//! The four workloads, each driven through public functions only, with
//! the output checks that fail a run instead of reporting a number.

use std::path::Path;
use std::time::{Duration, Instant};

use cnet_concurrent::NetworkCounter;
use cnet_engine::{Backend, BalancerKind, ShmBackend};
use cnet_harness::{Grid, NetworkKind};
use cnet_serve::{CounterServer, ServeClient, ServeConfig, ServerHandle};
use cnet_timing::Operation;
use cnet_topology::constructions;

use crate::check::Coverage;
use crate::stats::{median, percentile, tail_quantile, WindowedLatency};
use crate::trace::Tracer;
use crate::{host, Layers};

/// The seed a run uses when none is given; `sim_figure5` reproduces
/// `results/figure5.txt` at this seed.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Length of the windows the serve workloads' measured interval is cut into.
const WINDOW_NS: u64 = 1_000_000_000;
/// Operations per `native_closed` pass, and the client threads issuing them.
pub const NATIVE_OPS: usize = 1_000_000;
const NATIVE_THREADS: usize = 2;
/// Operations per `sim_figure5` cell (the paper's count) and per pass
/// (two networks of twenty cells each).
const SIM_CELL_OPS: usize = 5_000;
pub const SIM_PASS_OPS: u64 = 2 * 20 * SIM_CELL_OPS as u64;

/// A failed check or a failed call; the run then prints no metrics.
pub type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeNext,
    ServeBatch,
    NativeClosed,
    SimFigure5,
}

/// The path through the program a workload takes. A traced run measures
/// the layers of its workload's family; the others read 0 on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Serve,
    Native,
    Sim,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeNext,
        Workload::ServeBatch,
        Workload::NativeClosed,
        Workload::SimFigure5,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeNext => "serve_next",
            Workload::ServeBatch => "serve_batch",
            Workload::NativeClosed => "native_closed",
            Workload::SimFigure5 => "sim_figure5",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn family(self) -> Family {
        match self {
            Workload::ServeNext | Workload::ServeBatch => Family::Serve,
            Workload::NativeClosed => Family::Native,
            Workload::SimFigure5 => Family::Sim,
        }
    }

    /// Connections and values per request of a serve workload.
    pub fn serve_shape(self) -> (usize, u32) {
        match self {
            Workload::ServeBatch => (1, 256),
            _ => (2, 1),
        }
    }
}

/// How long a workload warms up and measures. Pass-based workloads
/// discard pass 0 instead of warming up by the clock.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub warmup: Duration,
    pub measure: Duration,
}

impl Windows {
    /// The serve workloads warm up for a fifteenth of the measured
    /// window (2 s of 30 s at full size).
    pub fn of(measure: Duration) -> Self {
        Windows {
            warmup: measure / 15,
            measure,
        }
    }
}

/// What the load generator saw over one measured window.
///
/// The host is a shared virtual machine that slows down for seconds to
/// minutes at a time (a serve window's seconds read 112k to 177k
/// requests/s inside one run). Interference only ever slows a pinned
/// run, so the two gated numbers are read off the least disturbed part
/// of the window, its best second (serve) or best pass; over runs of
/// one commit that is the only estimator that holds still (README,
/// *Measured spreads*). The whole-window numbers feed the `load.*`
/// metrics.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Requests issued (serve) or operations run (pass-based),
    /// warm-up included: everything the output checks covered.
    pub attempted: u64,
    pub failed: u64,
    /// Counter values per host second in the best 1-s window or pass.
    pub ops_per_s: f64,
    /// Serve: exact median µs per round trip over the requests of that
    /// window. Pass-based: µs per operation inside the windows the
    /// program itself reports for that pass, which leave out what only
    /// the benchmark's clock sees: one client thread's operation in the
    /// backend's client-loop window (`native_closed`, no compile, join
    /// or sweep), one simulated operation in the harness's cell windows
    /// (`sim_figure5`, no grid bookkeeping, tables or JSON).
    pub op_p50_us: f64,
    /// Values drawn over the whole window ÷ its length.
    pub mean_ops_per_s: f64,
    /// The highest percentile of that time over the whole window (over
    /// requests, or over passes), up to p99, with ten samples beyond it.
    pub op_tail_us: f64,
    /// Requests (serve) or passes measured.
    pub samples: u64,
    /// Values per second in each 1-s window or each pass.
    pub rates: Vec<f64>,
    pub cpu_us_per_op: f64,
}

/// One measured window of one workload.
pub struct PathRun {
    pub load: LoadStats,
    /// Layer numbers the program itself reports (server snapshot,
    /// simulator counts); span-derived ones come from the tracer.
    pub layers: Layers,
    /// `native_closed`: the last pass's operations, for the ledger.
    pub last_ops: Vec<Operation>,
}

// ---------------------------------------------------------------- set-up

/// Seconds one cold set-up spent building the topology, compiling or
/// starting the server, and connecting.
#[derive(Debug, Clone, Copy)]
pub struct SetupPhases {
    pub build_s: f64,
    pub start_s: f64,
    pub connect_s: f64,
}

impl SetupPhases {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.start_s + self.connect_s
    }
}

struct Served {
    handle: ServerHandle,
    clients: Vec<ServeClient>,
    phases: SetupPhases,
}

/// How long a fresh server is left alone before the clients connect.
const SETTLE: Duration = Duration::from_millis(2);

/// Builds `bitonic(16)`, starts the server in-process and connects.
///
/// A connection counts as up once the server has answered on it: the
/// accept loop polls every 25 ms, so `connect()` alone returns long
/// before a request could be served. The clients connect [`SETTLE`]
/// after the start, untimed, when the accept loop has gone to sleep, as
/// any client of a running daemon finds it. Connecting at once would
/// race the accept thread to its first poll, and whether a set-up then
/// takes 0.2 ms or 25 ms would be the scheduler's choice.
fn serve_up(socket: &Path, conns: usize, seed: u64) -> Result<Served> {
    let t0 = Instant::now();
    let net = constructions::bitonic(16).map_err(err("bitonic(16)"))?;
    let t1 = Instant::now();
    let mut config = ServeConfig::new(socket);
    config.seed = seed;
    let handle = CounterServer::start(&net, config).map_err(err("server start"))?;
    let t2 = Instant::now();
    std::thread::sleep(SETTLE);
    let t3 = Instant::now();
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut client = ServeClient::connect(socket).map_err(err("connect"))?;
        client.health().map_err(err("first health reply"))?;
        clients.push(client);
    }
    Ok(Served {
        handle,
        clients,
        phases: SetupPhases {
            build_s: (t1 - t0).as_secs_f64(),
            start_s: (t2 - t1).as_secs_f64(),
            connect_s: t3.elapsed().as_secs_f64(),
        },
    })
}

/// Drains the server with its connections idle; returns the retained
/// history's drop count and the seconds from the request to `wait()`.
fn serve_down(served: Served) -> Result<(u64, f64)> {
    let Served {
        handle, clients, ..
    } = served;
    let t0 = Instant::now();
    handle.request_shutdown();
    let summary = handle.wait().map_err(err("server drain"))?;
    let shutdown_s = t0.elapsed().as_secs_f64();
    drop(clients);
    Ok((summary.history_dropped, shutdown_s))
}

/// One cold set-up of `workload`, torn down again.
fn setup_once(workload: Workload, socket: &Path, seed: u64) -> Result<SetupPhases> {
    match workload.family() {
        Family::Serve => {
            let served = serve_up(socket, workload.serve_shape().0, seed)?;
            let phases = served.phases;
            serve_down(served)?;
            Ok(phases)
        }
        Family::Native => {
            // what `Backend::run` does before its first operation
            let t0 = Instant::now();
            let net = constructions::bitonic(16).map_err(err("bitonic(16)"))?;
            let t1 = Instant::now();
            std::hint::black_box(NetworkCounter::with_kind(&net, BalancerKind::WaitFree));
            Ok(SetupPhases {
                build_s: (t1 - t0).as_secs_f64(),
                start_s: t1.elapsed().as_secs_f64(),
                connect_s: 0.0,
            })
        }
        Family::Sim => {
            let t0 = Instant::now();
            for kind in [NetworkKind::Bitonic, NetworkKind::DiffractingTree] {
                std::hint::black_box(kind.build(cnet_harness::PAPER_WIDTH));
            }
            Ok(SetupPhases {
                build_s: t0.elapsed().as_secs_f64(),
                start_s: 0.0,
                connect_s: 0.0,
            })
        }
    }
}

/// Cold set-ups of one workload, sampled in batches at different times
/// of a run. A batch is read as its medians, and the run as its least
/// disturbed batch, the way the window is read as its best second.
pub struct SetupSampler<'a> {
    workload: Workload,
    socket: &'a Path,
    seed: u64,
    batch: usize,
    /// Per batch: the median set-up, then the median of each phase.
    batches: Vec<(f64, SetupPhases)>,
}

impl<'a> SetupSampler<'a> {
    /// A sampler that makes `batch` set-ups each time it is asked.
    pub fn new(workload: Workload, socket: &'a Path, seed: u64, batch: usize) -> Self {
        SetupSampler {
            workload,
            socket,
            seed,
            batch,
            batches: Vec::new(),
        }
    }

    /// One more batch of cold set-ups, each torn down again.
    pub fn sample(&mut self) -> Result<()> {
        let samples = (0..self.batch)
            .map(|_| setup_once(self.workload, self.socket, self.seed))
            .collect::<Result<Vec<_>>>()?;
        let med = |f: fn(&SetupPhases) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        self.batches.push((
            med(SetupPhases::total_s),
            SetupPhases {
                build_s: med(|p| p.build_s),
                start_s: med(|p| p.start_s),
                connect_s: med(|p| p.connect_s),
            },
        ));
        Ok(())
    }

    /// The batch with the lowest median set-up: that median, then the
    /// batch's median of each phase.
    pub fn best_batch(&self) -> (f64, SetupPhases) {
        *self
            .batches
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("a batch was sampled")
    }
}

// ----------------------------------------------------------------- serve

struct ClientRun {
    lat: WindowedLatency,
    coverage: Coverage,
    requests: u64,
    failed: u64,
    last_end_ns: u64,
    spans: Vec<(u64, u64)>,
    error: Option<String>,
}

/// One connection issuing requests back to back from `open_ns` after
/// `epoch` until the warm-up and the measured window have passed. Every
/// draw is checked; only requests that start after the warm-up are timed.
fn client_loop(
    client: &mut ServeClient,
    k: u32,
    epoch: Instant,
    open_ns: u64,
    windows: Windows,
    traced: bool,
) -> ClientRun {
    let warm_end = open_ns + windows.warmup.as_nanos() as u64;
    let end = warm_end + windows.measure.as_nanos() as u64;
    let mut run = ClientRun {
        lat: WindowedLatency::new(WINDOW_NS),
        coverage: Coverage::new(u64::from(k)),
        requests: 0,
        failed: 0,
        last_end_ns: warm_end,
        spans: Vec::new(),
        error: None,
    };
    let mut now = epoch.elapsed().as_nanos() as u64;
    while now < end {
        // back to back: one clock reading ends a request and starts the next
        let start = now;
        let drawn = if k == 1 {
            client.next()
        } else {
            client.next_batch(k)
        };
        now = epoch.elapsed().as_nanos() as u64;
        run.requests += 1;
        let drawn = match drawn {
            Ok(d) => d,
            Err(e) => {
                run.failed += 1;
                run.error = Some(format!("request failed: {e}"));
                break;
            }
        };
        if let Err(e) = run.coverage.record(drawn.base, u64::from(drawn.k)) {
            run.error = Some(e.to_string());
            break;
        }
        if start >= warm_end {
            run.lat.record(now - warm_end, now - start);
            run.last_end_ns = now;
            if traced {
                run.spans.push((start, now));
            }
        }
    }
    run
}

fn run_serve(
    workload: Workload,
    windows: Windows,
    seed: u64,
    socket: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<PathRun> {
    let (conns, k) = workload.serve_shape();
    let mut served = serve_up(socket, conns, seed)?;
    let epoch = tracer.as_ref().map_or_else(Instant::now, |t| t.epoch());
    let traced = tracer.is_some();
    let t_open = epoch.elapsed();
    let open_ns = t_open.as_nanos() as u64;
    let (runs, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || client_loop(client, k, epoch, open_ns, windows, traced))
            })
            .collect();
        // the main thread only reads the CPU clock at the window's edges
        std::thread::sleep((t_open + windows.warmup).saturating_sub(epoch.elapsed()));
        let cpu0 = host::cpu_seconds();
        std::thread::sleep(
            (t_open + windows.warmup + windows.measure).saturating_sub(epoch.elapsed()),
        );
        let cpu_s = host::cpu_seconds() - cpu0;
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, cpu_s)
    });

    let mut lat = WindowedLatency::new(WINDOW_NS);
    let mut coverage = Coverage::new(u64::from(k));
    let (mut attempted, mut failed, mut last_end_ns) = (0, 0, 0);
    for run in &runs {
        if let Some(e) = &run.error {
            if run.failed == 0 {
                return Err(format!("{}: {e}", workload.name()));
            }
        }
        lat.merge(&run.lat);
        coverage
            .merge(&run.coverage)
            .map_err(err(workload.name()))?;
        attempted += run.requests;
        failed += run.failed;
        last_end_ns = last_end_ns.max(run.last_end_ns);
    }
    // the counting property, end to end: exactly 0..N, and the server
    // counted the same N
    let values = coverage.finish().map_err(err(workload.name()))?;
    let report = served.handle.snapshot();
    if failed == 0 && report.total.ops != values {
        return Err(format!(
            "{}: clients drew {values} values, the server counted {}",
            workload.name(),
            report.total.ops
        ));
    }
    let mut all = lat.all();
    if all.len() == 0 {
        return Err(format!("{}: no request was measured", workload.name()));
    }

    let warm_end_ns = open_ns + windows.warmup.as_nanos() as u64;
    if let Some(tracer) = tracer {
        let root = tracer.push(
            "serve.window",
            0,
            0,
            warm_end_ns,
            last_end_ns.max(warm_end_ns),
        );
        let mut req = 0;
        for run in &runs {
            for &(start, end) in &run.spans {
                req += 1;
                tracer.push("serve.rtt", root, req, start, end);
            }
        }
    }

    let measured_values = all.len() * u64::from(k);
    let mean_ops_per_s = measured_values as f64 / windows.measure.as_secs_f64();
    let whole = lat.whole_windows(windows.measure.as_nanos() as u64);
    let rates: Vec<f64> = whole
        .iter()
        .map(|w| (w.len() * u64::from(k)) as f64 * (1e9 / WINDOW_NS as f64))
        .collect();
    // the least disturbed second; a window shorter than 1 s (quick mode)
    // has no whole window and is read as one
    let (ops_per_s, op_p50_us) = match whole.iter_mut().max_by_key(|w| w.len()) {
        Some(best) => (
            (best.len() * u64::from(k)) as f64 * (1e9 / WINDOW_NS as f64),
            best.percentile_ns(0.5) as f64 / 1e3,
        ),
        None => (mean_ops_per_s, all.percentile_ns(0.5) as f64 / 1e3),
    };
    let tail_q = tail_quantile(all.len()).min(0.99);
    let load = LoadStats {
        attempted,
        failed,
        ops_per_s,
        op_p50_us,
        mean_ops_per_s,
        op_tail_us: all.percentile_ns(tail_q) as f64 / 1e3,
        samples: all.len(),
        rates,
        cpu_us_per_op: cpu_s * 1e6 / measured_values as f64,
    };

    let mut layers = Layers::new();
    layers.insert("serve.service_us", report.total.latency.mean() / 1e3);
    layers.insert(
        "obs.violation_share",
        report.total.violations as f64 / report.total.ops.max(1) as f64,
    );
    let (history_dropped, shutdown_s) = serve_down(served)?;
    layers.insert("serve.history_dropped", history_dropped as f64);
    layers.insert("serve.shutdown_ms", shutdown_s * 1e3);
    Ok(PathRun {
        load,
        layers,
        last_ops: Vec::new(),
    })
}

// ------------------------------------------------------------ pass-based

/// Runs `pass` until the measured window has passed, discarding pass 0
/// and measuring at least two passes. `pass` returns its own seconds, so
/// that what the benchmark does between passes (its checks, and a batch
/// of cold set-ups when the run samples them) is not counted, and the
/// µs an operation took inside the window the program itself reports.
fn run_passes(
    windows: Windows,
    ops_per_pass: u64,
    mut setups: Option<&mut SetupSampler>,
    mut pass: impl FnMut(u64) -> Result<(f64, f64)>,
) -> Result<LoadStats> {
    pass(0)?;
    let started = Instant::now();
    let cpu0 = host::cpu_seconds();
    let (mut seconds, mut op_us) = (Vec::new(), Vec::new());
    while seconds.len() < 2 || started.elapsed() < windows.measure {
        let (s, us) = pass(seconds.len() as u64 + 1)?;
        seconds.push(s);
        op_us.push(us);
        if let Some(setups) = setups.as_deref_mut() {
            setups.sample()?;
        }
    }
    let cpu_s = host::cpu_seconds() - cpu0;
    let passes = seconds.len() as u64;
    // the least disturbed pass
    let best = (0..seconds.len())
        .min_by(|&a, &b| seconds[a].total_cmp(&seconds[b]))
        .expect("at least two passes ran");
    let tail_q = tail_quantile(passes).min(0.99);
    Ok(LoadStats {
        attempted: (passes + 1) * ops_per_pass,
        failed: 0,
        ops_per_s: ops_per_pass as f64 / seconds[best],
        op_p50_us: op_us[best],
        mean_ops_per_s: (passes * ops_per_pass) as f64 / seconds.iter().sum::<f64>(),
        op_tail_us: percentile(&op_us, tail_q),
        samples: passes,
        rates: seconds.iter().map(|s| ops_per_pass as f64 / s).collect(),
        // the benchmark's checks between passes are in this number too
        cpu_us_per_op: cpu_s * 1e6 / (passes * ops_per_pass) as f64,
    })
}

fn run_native(
    windows: Windows,
    seed: u64,
    setups: Option<&mut SetupSampler>,
    mut tracer: Option<&mut Tracer>,
) -> Result<PathRun> {
    let net = constructions::bitonic(16).map_err(err("bitonic(16)"))?;
    let workload = cnet_engine::Workload {
        total_ops: NATIVE_OPS,
        ..cnet_engine::Workload::paper(NATIVE_THREADS, 0, 0)
    };
    let mut last_ops = Vec::new();
    let mut nonlin = Vec::new();
    let load = run_passes(windows, NATIVE_OPS as u64, setups, |pass| {
        let backend = ShmBackend::network(&net, BalancerKind::WaitFree, seed.wrapping_add(pass));
        let t_start = tracer.as_deref().map_or(0, Tracer::now_ns);
        let t0 = Instant::now();
        let outcome = backend.run(&workload);
        let seconds = t0.elapsed().as_secs_f64();
        let t_ran = tracer.as_deref().map_or(0, Tracer::now_ns);
        if outcome.stats.operations.len() != NATIVE_OPS || !outcome.counts_exactly() {
            return Err(format!(
                "native_closed pass {pass}: values are not exactly 0..{NATIVE_OPS}"
            ));
        }
        if !outcome.has_step_property() {
            return Err(format!(
                "native_closed pass {pass}: output counters are not a step"
            ));
        }
        if let Some(t) = tracer.as_deref_mut() {
            let t_checked = t.now_ns();
            let root = t.push("native.pass", 0, pass, t_start, t_checked);
            let run = t.push("engine.run", root, pass, t_start, t_ran);
            // the backend's own client-loop window, as it reports it
            let drive_ns = (outcome.wall_ms * 1e6) as u64;
            t.push(
                "engine.drive.reported",
                run,
                pass,
                t_start,
                t_start + drive_ns,
            );
            t.push("bench.check", root, pass, t_ran, t_checked);
        }
        // a client thread issues its operations back to back inside the
        // backend's own window, so each took it window x threads / operations
        let op_us = outcome.wall_ms * 1e3 * NATIVE_THREADS as f64 / NATIVE_OPS as f64;
        if pass > 0 {
            nonlin.push(outcome.stats.nonlinearizable as f64 / NATIVE_OPS as f64);
        }
        last_ops = outcome.stats.operations;
        Ok((seconds, op_us))
    })?;
    let mut layers = Layers::new();
    layers.insert("timing.nonlin_share", median(&nonlin));
    Ok(PathRun {
        load,
        layers,
        last_ops,
    })
}

/// One of the two figure-5 grids. Its seed is the committed `0xF165` at
/// the default `--seed` and another at any other.
pub fn figure5_grid(kind: NetworkKind, seed: u64) -> Grid {
    Grid::paper(kind, 25, SIM_CELL_OPS, 0xF165 ^ seed ^ DEFAULT_SEED)
}

fn run_sim(
    windows: Windows,
    seed: u64,
    setups: Option<&mut SetupSampler>,
    mut tracer: Option<&mut Tracer>,
) -> Result<PathRun> {
    let committed = if seed == DEFAULT_SEED {
        // relative to the repository root, which a measurement changes into
        Some(std::fs::read_to_string("results/figure5.txt").map_err(err("results/figure5.txt"))?)
    } else {
        None
    };
    let mut first_render: Option<String> = None;
    let mut counts = Layers::new();
    let load = run_passes(windows, SIM_PASS_OPS, setups, |pass| {
        let t0 = Instant::now();
        let mut cells_ms = 0.0;
        let mut rendered = String::new();
        let mut stages = Vec::new();
        let (mut nonlin, mut visits, mut cycles, mut attempts, mut cells_ok) = (0, 0, 0, 0, true);
        for kind in [NetworkKind::Bitonic, NetworkKind::DiffractingTree] {
            let grid = figure5_grid(kind, seed);
            let t_grid = Instant::now();
            let outcome = grid.run(1);
            let t_table = Instant::now();
            let table = outcome.ratio_table(kind.label());
            let (text, csv) = (table.to_text(), table.to_csv());
            let t_json = Instant::now();
            let json = serde::json::to_string_pretty(&serde::Serialize::to_value(&outcome.report));
            let t_end = Instant::now();
            std::hint::black_box(&json);
            for record in &outcome.report.records {
                cells_ms += record.wall_ms;
                cells_ok &= record.stats.completed_ops == SIM_CELL_OPS;
                nonlin += record.stats.nonlinearizable as u64;
                visits += record.stats.node_visits;
                cycles += record.stats.sim_time;
                attempts += record.stats.fabric.as_ref().map_or(0, |f| f.attempts);
            }
            rendered.push_str(&format!("{text}\n{csv}\n"));
            if tracer.is_some() {
                let cell_ms: Vec<f64> = outcome.report.records.iter().map(|r| r.wall_ms).collect();
                stages.push(([t_grid, t_table, t_json, t_end], cell_ms));
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        if let Some(t) = tracer.as_deref_mut() {
            let epoch = t.epoch();
            let at = |i: Instant| (i - epoch).as_nanos() as u64;
            let root = t.push("sim.pass", 0, pass, at(t0), t.now_ns());
            for ([t_grid, t_table, t_json, t_end], cell_ms) in stages {
                let grid = t.push("harness.grid_run", root, pass, at(t_grid), at(t_table));
                // the cells ran one after another; each reports its own window
                let mut cell_start = at(t_grid);
                for ms in cell_ms {
                    let cell_end = cell_start + (ms * 1e6) as u64;
                    t.push("proteus.cell.reported", grid, pass, cell_start, cell_end);
                    cell_start = cell_end;
                }
                t.push("harness.table", root, pass, at(t_table), at(t_json));
                t.push("harness.json", root, pass, at(t_json), at(t_end));
            }
        }
        if !cells_ok {
            return Err(format!(
                "sim_figure5 pass {pass}: a cell did not complete {SIM_CELL_OPS} operations"
            ));
        }
        match &first_render {
            // every later pass must equal this one, so it alone is
            // held against the committed tables
            None => {
                if let Some(committed) = &committed {
                    for block in rendered.split_inclusive("\n\n") {
                        if !committed.contains(block) {
                            return Err(format!(
                                "sim_figure5: a rendered table differs from results/figure5.txt:\n{block}"
                            ));
                        }
                    }
                }
                first_render = Some(rendered);
            }
            Some(first) if *first != rendered => {
                return Err(format!(
                    "sim_figure5 pass {pass}: tables differ from pass 0 at one seed"
                ));
            }
            Some(_) => {}
        }
        counts.insert("timing.nonlin_share", nonlin as f64 / SIM_PASS_OPS as f64);
        counts.insert("proteus.node_visits", visits as f64);
        counts.insert("proteus.sim_cycles", cycles as f64);
        counts.insert("proteus.fabric_attempts", attempts as f64);
        // the cells ran one after another, each inside its own window
        Ok((seconds, cells_ms * 1e3 / SIM_PASS_OPS as f64))
    })?;
    Ok(PathRun {
        load,
        layers: counts,
        last_ops: Vec::new(),
    })
}

/// One warm-up plus measured window of `workload`; traced when a tracer
/// is given. A pass-based workload makes a batch of `setups` after every
/// pass: its set-up takes microseconds, and sampled at one moment it
/// reads 30-70% high whenever that moment is a slow one. (A serve
/// set-up waits out a 25 ms poll and is steady as it is.)
pub fn run_path(
    workload: Workload,
    windows: Windows,
    seed: u64,
    socket: &Path,
    setups: Option<&mut SetupSampler>,
    tracer: Option<&mut Tracer>,
) -> Result<PathRun> {
    match workload.family() {
        Family::Serve => run_serve(workload, windows, seed, socket, tracer),
        Family::Native => run_native(windows, seed, setups, tracer),
        Family::Sim => run_sim(windows, seed, setups, tracer),
    }
}
