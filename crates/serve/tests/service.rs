//! End-to-end tests of the daemon: real unix sockets, real threads,
//! and the two guarantees the service makes — online SLO accounting
//! that matches an offline replay *exactly*, and a drain-on-shutdown
//! that never duplicates or gaps the counting sequence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cnet_engine::RunRecord;
use cnet_obs::SloPolicy;
use cnet_serve::{drive, CounterServer, DriveConfig, ServeClient, ServeConfig, ServeSummary};
use cnet_timing::linearizability;
use cnet_topology::constructions;
use serde::Deserialize as _;

/// A collision-free socket path per test.
fn socket_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cnet-serve-{}-{tag}-{n}.sock", std::process::id()))
}

fn start(tag: &str, width: usize, window_ops: u64) -> (cnet_serve::ServerHandle, PathBuf) {
    let net = constructions::bitonic(width).unwrap();
    let mut config = ServeConfig::new(socket_path(tag));
    config.window_ops = window_ops;
    let socket = config.socket.clone();
    let handle = CounterServer::start(&net, config).unwrap();
    // the bind happens before `start` returns, so connecting is safe
    (handle, socket)
}

#[test]
fn serve_then_drive_reports_clean_slo() {
    let (handle, socket) = start("drive", 8, 128);
    let mut config = DriveConfig::new(&socket);
    config.clients = 4;
    config.rate_per_sec = 4000;
    config.duration = Duration::from_millis(500);
    config.policy = SloPolicy {
        max_violation_rate: 1.0,
        max_magnitude: u64::MAX,
        p99_latency_ns: u64::MAX,
    };
    let outcome = drive(&config).unwrap();
    assert_eq!(outcome.failures, 0);
    assert!(outcome.requests > 0);
    assert_eq!(outcome.values, outcome.requests); // batch = 1
    assert!(outcome.report.breach_free());

    // the server counted every drive op (plus the probe's health call
    // drew nothing — health is not a counter operation)
    let mut probe = ServeClient::connect(&socket).unwrap();
    let health = probe.health().unwrap();
    assert_eq!(health.ops, outcome.values);
    assert_eq!(health.breaches, 0);
    let metrics = probe.metrics_text().unwrap();
    assert!(metrics.contains(&format!("cnet_serve_ops_total {}", outcome.values)));
    assert!(metrics.contains("cnet_serve_in_breach 0"));

    probe.shutdown().unwrap();
    let summary = handle.wait().unwrap();
    assert_eq!(summary.report.total.ops, outcome.values);
    assert!(summary.report.breach_free());
    assert!(!socket.exists(), "socket must be unlinked after drain");
}

/// Hammers the daemon with mixed-size batches, then replays the
/// recorded history offline and asserts the online evaluator produced
/// *identical* per-window violation counts and magnitudes — the
/// feed-in-end-order contract, checked against the independently
/// implemented sweep in `cnet-timing`.
#[test]
fn a_schedule_past_half_the_clock_is_refused_before_connecting() {
    // no server: the check refuses the schedule first
    let mut config = DriveConfig::new(socket_path("overflow"));
    config.rate_per_sec = 1_000_000_000;
    config.duration = Duration::from_secs(u64::MAX / 1_000_000_000);
    let e = drive(&config).unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
    assert!(e.to_string().contains("u64::MAX / 2"), "{e}");
}

#[test]
fn online_windows_match_offline_replay_exactly() {
    online_windows_match_offline_replay("replay", 256, 8, 250, |t, i| 1 + ((t + i) % 4));
}

/// The same, with runs that straddle a window boundary on nearly every
/// request and close up to three windows in one call.
#[test]
fn online_windows_match_offline_replay_exactly_for_runs_longer_than_a_window() {
    const KS: [u32; 6] = [256, 1, 77, 100, 3, 199];
    online_windows_match_offline_replay("replay-runs", 100, 4, 12, |t, i| {
        KS[((t + i) % 6) as usize]
    });
}

fn online_windows_match_offline_replay(
    tag: &str,
    window: u64,
    threads: u32,
    requests: u32,
    batch: fn(u32, u32) -> u32,
) {
    let (handle, socket) = start(tag, 4, window);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let socket = socket.clone();
            scope.spawn(move || {
                let mut client = ServeClient::connect(&socket).unwrap();
                for i in 0..requests {
                    let k = batch(t, i);
                    let d = client.next_batch(k).unwrap();
                    assert_eq!(d.k, k);
                    assert!(d.start < d.end);
                }
            });
        }
    });
    handle.request_shutdown();
    let summary = handle.wait().unwrap();
    assert_eq!(summary.history_dropped, 0, "test must retain everything");
    let (operations, _) = summary.history.expand();
    let ops = &operations;
    assert_eq!(summary.report.total.ops, ops.len() as u64);
    assert!(
        ops.windows(2).all(|p| p[0].end <= p[1].end),
        "history must be recorded in end-tick order"
    );

    // offline violation set, via the independent index-sorted sweep
    let bad = linearizability::nonlinearizable_tokens(ops);
    assert_eq!(
        summary.report.total.violations,
        bad.len() as u64,
        "online total must equal the offline Definition 2.4 count"
    );

    // offline per-op magnitudes: ops are end-ordered, so the finished
    // set of op i is the prefix with end < start_i
    let ends: Vec<u64> = ops.iter().map(|o| o.end).collect();
    let mut prefix_max = Vec::with_capacity(ops.len());
    let mut running = 0u64;
    for o in ops {
        running = running.max(o.value);
        prefix_max.push(running);
    }
    let magnitude = |i: usize| -> u64 {
        let k = ends.partition_point(|&e| e < ops[i].start);
        if k == 0 {
            0
        } else {
            prefix_max[k - 1].saturating_sub(ops[i].value)
        }
    };

    // rebuild every window offline and compare field by field
    let windows_closed = usize::try_from(summary.report.windows_closed).unwrap();
    assert_eq!(
        summary.report.windows.len(),
        windows_closed,
        "test sized to keep every closed window in the retained ring"
    );
    for (w, closed) in summary.report.windows.iter().enumerate() {
        let lo = w * window as usize;
        let hi = lo + window as usize;
        let mut violations = 0u64;
        let mut mag_max = 0u64;
        let mut mag_total = 0u64;
        for i in lo..hi {
            let m = magnitude(i);
            if m > 0 {
                violations += 1;
                mag_total += m;
                mag_max = mag_max.max(m);
            }
        }
        assert_eq!(closed.ops, window, "window {w}");
        assert_eq!(closed.violations, violations, "window {w} violations");
        assert_eq!(closed.magnitude_max, mag_max, "window {w} magnitude_max");
        assert_eq!(
            closed.magnitude_total, mag_total,
            "window {w} magnitude_total"
        );
    }
    // and the still-open tail
    let tail_lo = windows_closed * window as usize;
    let tail: u64 = (tail_lo..ops.len())
        .map(|i| u64::from(magnitude(i) > 0))
        .sum();
    assert_eq!(summary.report.current.violations, tail);
}

/// The history is kept as one run per bracket but bounded, reported and
/// dumped in operations: whatever mix of batch sizes wrapped the ring
/// — one of them larger than the ring itself — what comes back is the
/// last `history_cap` operations of the full trace, as rebuilt from
/// the replies the clients got.
#[test]
fn the_history_ring_holds_exactly_the_last_cap_operations() {
    const CAP: usize = 1000;
    const WIDTH: usize = 4;
    const KS: [u32; 5] = [1, 77, 256, 1, 1];
    let net = constructions::bitonic(WIDTH).unwrap();
    let mut config = ServeConfig::new(socket_path("ring"));
    config.history_cap = CAP;
    config.dump_path = Some(config.socket.with_extension("json"));
    config.dump_every = Duration::from_secs(3600); // only the final flush
    let (socket, dump) = (config.socket.clone(), config.dump_path.clone().unwrap());
    let handle = CounterServer::start(&net, config).unwrap();

    // connections are numbered in accept order: one at a time, each
    // answered before the next connects
    let mut clients: Vec<ServeClient> = (0..3)
        .map(|_| {
            let mut client = ServeClient::connect(&socket).unwrap();
            client.health().unwrap();
            client
        })
        .collect();
    let replies: Vec<Vec<cnet_serve::Drawn>> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    (0..40)
                        .map(|i| match (conn, i) {
                            (0, 25) => client.next_batch(CAP as u32 + 500).unwrap(),
                            _ if KS[(conn + i) % 5] == 1 => client.next().unwrap(),
                            _ => client.next_batch(KS[(conn + i) % 5]).unwrap(),
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    drop(clients);
    handle.request_shutdown();
    let summary = handle.wait().unwrap();

    // the full trace: every reply expanded, in end-tick order (end
    // ticks are unique, so this is the order the server recorded)
    let mut brackets: Vec<(usize, cnet_serve::Drawn)> = replies
        .into_iter()
        .enumerate()
        .flat_map(|(conn, mine)| mine.into_iter().map(move |d| (conn, d)))
        .collect();
    brackets.sort_by_key(|(_, d)| d.end);
    let full: Vec<(u64, u64, u64, usize)> = brackets
        .iter()
        .flat_map(|&(conn, d)| (0..u64::from(d.k)).map(move |j| (d.base + j, d.start, d.end, conn)))
        .collect();
    assert_eq!(summary.report.total.ops, full.len() as u64);
    assert!(full.len() > 3 * CAP, "the ring must have wrapped");

    let (operations, completed_by) = summary.history.expand();
    assert_eq!(operations.len(), CAP);
    assert_eq!(completed_by.len(), CAP);
    assert_eq!(
        summary.history_dropped + operations.len() as u64,
        summary.report.total.ops
    );
    let first_token = full.len() - CAP;
    for (i, (op, &by)) in operations.iter().zip(&completed_by).enumerate() {
        let (value, start, end, conn) = full[first_token + i];
        assert_eq!(op.token, first_token + i, "tokens are contiguous");
        assert_eq!((op.value, op.start, op.end), (value, start, end), "op {i}");
        assert_eq!(op.counter, (value % WIDTH as u64) as u32, "op {i}");
        assert_eq!(
            (by as usize, op.input as usize),
            (conn, conn % WIDTH),
            "op {i}"
        );
    }

    // the dump expands the same ring
    let text = std::fs::read_to_string(&dump).unwrap();
    std::fs::remove_file(&dump).unwrap();
    let record = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
    assert_eq!(record.stats.completed_ops, CAP);
    assert_eq!(record.slo.unwrap().total.ops, full.len() as u64);
}

/// A connection is accepted when it arrives, not at the accept loop's
/// next look at its flags: against a server that has gone idle, connect
/// plus a first reply takes far less than the 25 ms poll interval.
#[test]
fn an_idle_server_accepts_without_waiting_out_its_poll_interval() {
    let (handle, socket) = start("accept", 4, 64);
    std::thread::sleep(Duration::from_millis(50));
    let mut took: Vec<Duration> = (0..11)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let mut client = ServeClient::connect(&socket).unwrap();
            client.health().unwrap();
            t0.elapsed()
        })
        .collect();
    took.sort_unstable();
    assert!(
        took[5] < Duration::from_millis(5),
        "median connect + health {:?} of {took:?}",
        took[5]
    );
    handle.request_shutdown();
    handle.wait().unwrap();
}

/// Clients hammer `NextBatch` while the server is told to shut down
/// mid-flight. Every reply a client received must carry values that,
/// unioned, form exactly `0..n` — no value duplicated by a re-send, no
/// value lost to a half-served batch.
#[test]
fn shutdown_mid_batch_never_duplicates_or_gaps() {
    let (handle, socket) = start("drain", 4, 1024);
    let collected: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let stop_handle = &handle;
        let workers: Vec<_> = (0..6)
            .map(|t| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect(&socket).unwrap();
                    let mut mine = Vec::new();
                    // an Err means shutdown raced the request: Bye or
                    // EOF — either way no values were reserved for it
                    while let Ok(d) = client.next_batch(3) {
                        mine.extend(d.base..d.base + u64::from(d.k));
                        if t == 0 && mine.len() > 30_000 {
                            break; // safety valve; shutdown should win first
                        }
                    }
                    mine
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        stop_handle.request_shutdown();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let summary = handle.wait().unwrap();

    let mut values: Vec<u64> = collected.into_iter().flatten().collect();
    assert!(!values.is_empty(), "drain test drew nothing");
    values.sort_unstable();
    let expected: Vec<u64> = (0..values.len() as u64).collect();
    assert_eq!(
        values, expected,
        "delivered values must be exactly 0..n — no duplicates, no gaps"
    );
    assert_eq!(summary.report.total.ops, values.len() as u64);
}

/// The final snapshot must hit disk (as a schema-v6 record with the
/// `slo` block) before `wait` returns and the socket disappears.
#[test]
fn final_dump_is_flushed_on_shutdown() {
    let net = constructions::bitonic(4).unwrap();
    let mut config = ServeConfig::new(socket_path("dump"));
    config.window_ops = 8;
    config.dump_path = Some(std::env::temp_dir().join(format!(
        "cnet-serve-dump-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    )));
    config.dump_every = Duration::from_secs(3600); // only the final flush
    config.label = "soak-test".to_string();
    let socket = config.socket.clone();
    let dump = config.dump_path.clone().unwrap();
    let handle = CounterServer::start(&net, config).unwrap();

    let mut client = ServeClient::connect(&socket).unwrap();
    for _ in 0..50 {
        client.next().unwrap();
    }
    client.shutdown().unwrap();
    let summary: ServeSummary = handle.wait().unwrap();
    assert!(summary.dumps_written >= 1);
    assert!(!socket.exists());

    let text = std::fs::read_to_string(&dump).unwrap();
    let record = RunRecord::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
    assert_eq!(record.backend, "serve");
    assert_eq!(record.label, "soak-test");
    assert_eq!(record.stats.completed_ops, 50);
    let slo = record.slo.expect("soak record must carry the slo block");
    assert_eq!(slo.total.ops, 50);
    assert_eq!(slo.windows_closed, 6); // 50 ops / 8-op windows
    assert!(slo.breach_free());
    std::fs::remove_file(&dump).unwrap();
}

/// A periodic dump that cannot be written stops the service as a
/// shutdown would: its connections are told `Bye` (or hung up on)
/// rather than left serving, `wait` reports the error, and the socket
/// is unlinked.
#[test]
fn a_dump_that_cannot_be_written_stops_the_service_cleanly() {
    let net = constructions::bitonic(4).unwrap();
    let mut config = ServeConfig::new(socket_path("dump-fails"));
    config.dump_path = Some(
        std::env::temp_dir()
            .join(format!("cnet-serve-missing-{}", std::process::id()))
            .join("dump.json"),
    );
    config.dump_every = Duration::from_millis(50);
    let socket = config.socket.clone();
    let handle = CounterServer::start(&net, config).unwrap();

    let mut client = ServeClient::connect(&socket).unwrap();
    assert_eq!(client.next().unwrap().base, 0);
    // the first dump fails within ~75 ms; `wait` returns once the
    // accept loop has given up, whatever it left running
    let waited = handle.wait();
    let refused = client.next();
    assert!(refused.is_err(), "served after a failed dump: {refused:?}");
    assert!(waited.is_err(), "the dump failure must reach wait()");
    assert!(
        !socket.exists(),
        "socket must be unlinked after a failed dump"
    );
}

/// Batch-size zero and oversized batches are rejected at the protocol
/// layer without disturbing the counter.
#[test]
fn invalid_batches_are_rejected() {
    let (handle, socket) = start("reject", 4, 64);
    let mut client = ServeClient::connect(&socket).unwrap();
    assert!(client.next_batch(0).is_err());
    let mut client = ServeClient::connect(&socket).unwrap();
    assert!(client.next_batch(cnet_serve::proto::MAX_BATCH + 1).is_err());
    let mut client = ServeClient::connect(&socket).unwrap();
    // the counter was never touched: the first real draw is value 0
    assert_eq!(client.next().unwrap().base, 0);
    client.shutdown().unwrap();
    handle.wait().unwrap();
}
