//! The ledger: each layer's public functions timed in isolation, on the
//! inputs the traced workload feeds them, so that its end-to-end number
//! can be split into parts and a remainder.
//!
//! A call too short to time singly is timed as a loop of `calls` calls
//! under one span (the span's `req` is the call count). The host slows
//! down for seconds at a time and the end-to-end numbers are read off
//! the least disturbed window or pass, so the ledger is taken the same
//! way: it makes `rounds` rounds of one loop per entry, which puts an
//! entry's loops seconds apart, and reports each entry's fastest. A
//! remainder is then not the noise between two estimators.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cnet_concurrent::NetworkCounter;
use cnet_engine::ServiceDriver;
use cnet_harness::{NetworkKind, RunRecord, PAPER_WIDTH};
use cnet_obs::{SloEvaluator, SloPolicy};
use cnet_proteus::{SimRng, Simulator};
use cnet_serve::proto::{self, Request, Response};
use cnet_timing::linearizability::count_nonlinearizable;
use cnet_timing::Operation;
use cnet_topology::{constructions, Topology};

use crate::stats::{median, LatencyCounts};
use crate::trace::Tracer;
use crate::workloads::{figure5_grid, Result};
use crate::Layers;

/// How much work each ledger entry measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Calls per timed loop of a nanosecond-scale function.
    pub calls: u64,
    /// Rounds of one timed loop (or replay) per entry; an entry's
    /// fastest round is reported.
    pub rounds: usize,
    /// How long a round's raw-socket echo runs.
    pub echo: Duration,
}

impl Budget {
    pub const FULL: Budget = Budget {
        calls: 1_000_000,
        rounds: 5,
        echo: Duration::from_millis(300),
    };
    pub const QUICK: Budget = Budget {
        calls: 50_000,
        rounds: 2,
        echo: Duration::from_millis(50),
    };
}

/// One timed loop, in ns per call. `one_loop` makes `budget.calls` calls
/// and returns the seconds they took; the loop is one span.
fn per_call_ns(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Budget,
    one_loop: impl FnOnce(u64) -> f64,
) -> f64 {
    let start = tracer.now_ns();
    let seconds = one_loop(budget.calls);
    let end = tracer.now_ns();
    tracer.push(name, 0, budget.calls, start, end);
    seconds * 1e9 / budget.calls as f64
}

/// Seconds `calls` calls of `call` take on this thread.
fn spin(calls: u64, mut call: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        call(i);
    }
    start.elapsed().as_secs_f64()
}

/// `threads` threads each making `calls` calls after a common start;
/// returns the seconds from the start to the last thread's end.
fn contended_seconds(threads: usize, calls: u64, call: impl Fn(usize) + Sync) -> f64 {
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, call) = (&barrier, &call);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..calls {
                        call(t);
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("ledger thread panicked");
        }
        start.elapsed().as_secs_f64()
    })
}

/// Median µs of 21 calls of `call`, each its own span.
fn per_call_us(tracer: &mut Tracer, name: &'static str, mut call: impl FnMut()) -> f64 {
    let us: Vec<f64> = (0..21)
        .map(|i| {
            let start = tracer.now_ns();
            call();
            let end = tracer.now_ns();
            tracer.push(name, 0, i, start, end);
            (end - start) as f64 / 1e3
        })
        .collect();
    median(&us)
}

/// What the serve and native set-ups pay before the first operation:
/// building `bitonic(16)` and compiling it into a counter.
fn counter_setup_entries(tracer: &mut Tracer, out: &mut Layers) -> Result<Topology> {
    let net = constructions::bitonic(16).map_err(|e| e.to_string())?;
    let us = per_call_us(tracer, "ledger.topology.build", || {
        std::hint::black_box(constructions::bitonic(16).ok());
    });
    out.insert("topology.build_us", us);
    let us = per_call_us(tracer, "ledger.concurrent.compile", || {
        std::hint::black_box(NetworkCounter::new(&net));
    });
    out.insert("concurrent.compile_us", us);
    Ok(net)
}

/// The native path: the bare traversal on one thread and on the
/// workload's two, then what `Backend::run` does after its client loop
/// as far as it can be named from outside, the Definition 2.4 sweep over
/// a pass's operations.
fn native_entries(
    tracer: &mut Tracer,
    budget: Budget,
    ops: &[Operation],
    out: &mut Layers,
) -> Result<()> {
    let net = counter_setup_entries(tracer, out)?;
    let width = net.input_width();

    let counter = NetworkCounter::new(&net);
    let ns = per_call_ns(tracer, "ledger.concurrent.next_1t", budget, |calls| {
        spin(calls, |_| {
            std::hint::black_box(counter.next_on(0));
        })
    });
    out.insert("concurrent.next_1t_ns", ns);

    // wall time ÷ all calls: it feeds a throughput
    let counter = NetworkCounter::new(&net);
    let ns = per_call_ns(tracer, "ledger.concurrent.next", budget, |calls| {
        contended_seconds(2, calls / 2, |t| {
            std::hint::black_box(counter.next_on(t % width));
        })
    });
    out.insert("concurrent.next_ns", ns);

    // Inside a run of passes the sweep's scratch vectors come back from
    // the allocator already mapped; straight after the entries above
    // they are fresh pages and the sweep reads 100 ns per operation, not
    // 75. One untimed sweep puts the allocator where a pass finds it.
    std::hint::black_box(count_nonlinearizable(ops));
    let start = tracer.now_ns();
    std::hint::black_box(count_nonlinearizable(ops));
    let end = tracer.now_ns();
    tracer.push("ledger.timing.sweep", 0, ops.len() as u64, start, end);
    out.insert(
        "timing.sweep_ns_per_op",
        (end - start) as f64 / ops.len().max(1) as f64,
    );
    Ok(())
}

/// `SloEvaluator::record` per value, fed as the server feeds it: `k`
/// values per clock bracket, in end order, nothing else in flight.
fn slo_entry(tracer: &mut Tracer, budget: Budget, k: u32, seed: u64, out: &mut Layers) {
    let k = u64::from(k);
    let mut rng = SimRng::seed_from_u64(seed);
    let sojourns: Vec<u64> = (0..1024).map(|_| 500 + rng.inclusive(4_000)).collect();
    let mut evaluator = SloEvaluator::new(SloPolicy::unbounded(), 1024);
    let mut fed = 0u64;
    let ns = per_call_ns(tracer, "ledger.obs.slo_record", budget, |calls| {
        spin(calls, |_| {
            let (bracket, j) = (fed / k, fed % k);
            let (start, end) = (2 * bracket, 2 * bracket + 1);
            // a batch's earlier values may not retire past their shared start
            let bound = if j + 1 == k { end } else { start };
            let sojourn = sojourns[(bracket % 1024) as usize];
            std::hint::black_box(evaluator.record(start, end, fed, sojourn, bound, 0));
            fed += 1;
        })
    });
    out.insert("obs.slo_record_ns", ns);
}

/// One request and one response through the frame codec on a memory
/// buffer: write and read of each.
fn codec_ns(tracer: &mut Tracer, name: &'static str, budget: Budget, k: u32) -> Result<f64> {
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let mut failed = false;
    let ns = per_call_ns(tracer, name, budget, |calls| {
        spin(calls, |i| {
            let (request, response) = frames(k, i);
            buf.clear();
            failed |= proto::write_request(&mut buf, &request).is_err();
            failed |=
                !matches!(proto::read_request(&mut buf.as_slice()), Ok(Some(r)) if r == request);
            buf.clear();
            failed |= proto::write_response(&mut buf, &response).is_err();
            failed |=
                !matches!(proto::read_response(&mut buf.as_slice()), Ok(Some(r)) if r == response);
        })
    });
    if failed {
        return Err(format!(
            "{name}: a frame did not round-trip through the codec"
        ));
    }
    Ok(ns)
}

/// The request and response a draw of `k` values puts on the wire.
fn frames(k: u32, i: u64) -> (Request, Response) {
    if k == 1 {
        (
            Request::Next,
            Response::Value {
                value: i,
                start: 2 * i,
                end: 2 * i + 1,
            },
        )
    } else {
        (
            Request::NextBatch { k },
            Response::Batch {
                base: i * u64::from(k),
                k,
                start: 2 * i,
                end: 2 * i + 1,
            },
        )
    }
}

/// Median µs of a raw `UnixStream::pair` echo with the workload's frame
/// sizes, connection count and thread shape, on the one CPU the serve
/// workloads run on, and none of the program's code on the path: the
/// share of a round trip no change here can move.
fn transport_floor_us(tracer: &mut Tracer, budget: Budget, conns: usize, k: u32) -> Result<f64> {
    let (request, response) = frames(k, 0);
    let (mut req_frame, mut resp_frame) = (Vec::new(), Vec::new());
    proto::write_request(&mut req_frame, &request).map_err(|e| e.to_string())?;
    proto::write_response(&mut resp_frame, &response).map_err(|e| e.to_string())?;
    let (req_frame, resp_frame) = (&req_frame, &resp_frame);

    let mut pairs = Vec::new();
    for _ in 0..conns {
        pairs.push(UnixStream::pair().map_err(|e| e.to_string())?);
    }
    let start = tracer.now_ns();
    let per_conn: Vec<std::io::Result<LatencyCounts>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .into_iter()
            .map(|(mut near, mut far)| {
                scope.spawn(move || {
                    let mut inbox = vec![0u8; req_frame.len()];
                    while far.read_exact(&mut inbox).is_ok() {
                        if far.write_all(resp_frame).is_err() {
                            break;
                        }
                    }
                });
                scope.spawn(move || {
                    let mut lat = LatencyCounts::new();
                    let mut inbox = vec![0u8; resp_frame.len()];
                    let epoch = Instant::now();
                    let mut now = Duration::ZERO;
                    while now < budget.echo {
                        near.write_all(req_frame)?;
                        near.read_exact(&mut inbox)?;
                        let end = epoch.elapsed();
                        lat.record((end - now).as_nanos() as u64);
                        now = end;
                    }
                    Ok::<_, std::io::Error>(lat) // dropping `near` ends the echo thread
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("echo client panicked"))
            .collect()
    });
    let end = tracer.now_ns();
    let mut all = LatencyCounts::new();
    for lat in per_conn {
        all.merge(&lat.map_err(|e| format!("raw socket echo: {e}"))?);
    }
    tracer.push("ledger.serve.transport_floor", 0, all.len(), start, end);
    Ok(all.percentile_ns(0.5) as f64 / 1e3)
}

/// The serve path for one connection shape: what a request pays in
/// each layer between the socket and the counter.
fn serve_entries(
    tracer: &mut Tracer,
    budget: Budget,
    (conns, k): (usize, u32),
    seed: u64,
    out: &mut Layers,
) -> Result<()> {
    let net = counter_setup_entries(tracer, out)?;

    // the server draws every request, single or batch, with this call
    let counter = NetworkCounter::new(&net);
    let ns = per_call_ns(tracer, "ledger.concurrent.next_batch", budget, |calls| {
        spin(calls, |_| {
            std::hint::black_box(counter.next_batch_on(0, u64::from(k), 0));
        })
    });
    out.insert("concurrent.next_batch_ns", ns);

    let driver = ServiceDriver::new();
    let ns = per_call_ns(tracer, "ledger.engine.service_bracket", budget, |calls| {
        spin(calls, |_| {
            let start = driver.begin();
            std::hint::black_box(driver.complete(start, |end, _| end));
        })
    });
    out.insert("engine.service_bracket_ns", ns);

    // wall time ÷ one thread's calls: it would feed a request's latency
    let driver = ServiceDriver::new();
    let half = Budget {
        calls: budget.calls / 2,
        ..budget
    };
    let ns = per_call_ns(tracer, "ledger.engine.service_bracket_2t", half, |calls| {
        contended_seconds(2, calls, |_| {
            let start = driver.begin();
            std::hint::black_box(driver.complete(start, |end, _| end));
        })
    });
    out.insert("engine.service_bracket_2t_ns", ns);

    slo_entry(tracer, budget, k, seed, out);
    out.insert(
        "serve.codec_ns",
        codec_ns(tracer, "ledger.serve.codec", budget, 1)?,
    );
    out.insert(
        "serve.codec_batch_ns",
        codec_ns(tracer, "ledger.serve.codec_batch", budget, 256)?,
    );
    out.insert(
        "serve.transport_floor_us",
        transport_floor_us(tracer, budget, conns, k)?,
    );
    Ok(())
}

/// Replays the figure-5 cells straight through the simulator, the sweep
/// and the record builder, one span per call, and checks that the
/// simulator's streaming count agrees with the offline sweep.
fn sim_entries(tracer: &mut Tracer, round: u64, seed: u64, out: &mut Layers) -> Result<()> {
    let us = per_call_us(tracer, "ledger.topology.build", || {
        for kind in [NetworkKind::Bitonic, NetworkKind::DiffractingTree] {
            std::hint::black_box(kind.build(PAPER_WIDTH));
        }
    });
    out.insert("topology.build_us", us);
    let (mut run_ns, mut run_n4_ns, mut run_n256_ns, mut sweep_ns, mut record_ns) = (0, 0, 0, 0, 0);
    let (mut ops, mut ops_per_column) = (0, 0);
    for kind in [NetworkKind::Bitonic, NetworkKind::DiffractingTree] {
        let net = kind.build(PAPER_WIDTH);
        for job in figure5_grid(kind, seed).jobs() {
            let t0 = tracer.now_ns();
            let stats = Simulator::new(&net, job.config).run(&job.workload);
            let t1 = tracer.now_ns();
            let swept = count_nonlinearizable(&stats.operations);
            let t2 = tracer.now_ns();
            let record = RunRecord::measure(
                job.label.clone(),
                job.kind.clone(),
                &job.workload,
                job.config.seed,
                &stats,
                (t1 - t0) as f64 / 1e6,
            );
            let t3 = tracer.now_ns();
            std::hint::black_box(record);
            if swept != stats.nonlinearizable {
                return Err(format!(
                    "{} {}: the simulator counted {} non-linearizable operations, the sweep {swept}",
                    kind.label(),
                    job.label,
                    stats.nonlinearizable
                ));
            }
            tracer.push("ledger.proteus.sim_run", 0, round, t0, t1);
            tracer.push("ledger.timing.sweep_sim", 0, round, t1, t2);
            tracer.push("ledger.harness.record", 0, round, t2, t3);
            let cell_ops = stats.operations.len() as u64;
            run_ns += t1 - t0;
            match job.workload.processors {
                4 => {
                    run_n4_ns += t1 - t0;
                    ops_per_column += cell_ops;
                }
                256 => run_n256_ns += t1 - t0,
                _ => {}
            }
            sweep_ns += t2 - t1;
            record_ns += t3 - t2;
            ops += cell_ops;
        }
    }
    let per = |ns: u64, n: u64| ns as f64 / n as f64;
    out.insert("proteus.run_ns_per_op", per(run_ns, ops));
    out.insert("proteus.run_ns_per_op.n4", per(run_n4_ns, ops_per_column));
    out.insert(
        "proteus.run_ns_per_op.n256",
        per(run_n256_ns, ops_per_column),
    );
    out.insert("timing.sweep_sim_ns_per_op", per(sweep_ns, ops));
    out.insert("harness.record_ns_per_op", per(record_ns, ops));
    Ok(())
}

/// What one reading of the benchmark's own clock costs.
fn timer_entry(tracer: &mut Tracer, budget: Budget, out: &mut Layers) {
    let epoch = Instant::now();
    let ns = per_call_ns(tracer, "ledger.load.timer", budget, |calls| {
        spin(calls, |_| {
            std::hint::black_box(epoch.elapsed());
        })
    });
    out.insert("load.timer_ns", ns);
}

/// What the ledger replays: the traced workload's own inputs.
pub enum Inputs<'a> {
    /// Connections and values per request of the serve workload.
    Serve { shape: (usize, u32), seed: u64 },
    /// The operations of one `native_closed` pass.
    Native { ops: &'a [Operation] },
    /// The seed of the figure-5 grids.
    Sim { seed: u64 },
}

/// The ledger entries of one family, each the fastest of its rounds.
pub fn run(tracer: &mut Tracer, budget: Budget, inputs: Inputs) -> Result<Layers> {
    let mut out = Layers::new();
    for round in 0..budget.rounds as u64 {
        let mut this = Layers::new();
        match inputs {
            Inputs::Serve { shape, seed } => serve_entries(tracer, budget, shape, seed, &mut this)?,
            Inputs::Native { ops } => native_entries(tracer, budget, ops, &mut this)?,
            Inputs::Sim { seed } => sim_entries(tracer, round, seed, &mut this)?,
        }
        timer_entry(tracer, budget, &mut this);
        for (name, value) in this {
            let best = out.entry(name).or_insert(value);
            *best = best.min(value);
        }
    }
    Ok(out)
}
