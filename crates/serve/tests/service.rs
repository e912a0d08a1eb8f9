//! End-to-end tests of the daemon: real unix sockets, real threads,
//! and the two guarantees the service makes — online SLO accounting
//! that matches an offline replay *exactly*, and a drain-on-shutdown
//! that never duplicates or gaps the counting sequence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cnet_harness::RunRecord;
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
fn online_windows_match_offline_replay_exactly() {
    const WINDOW: u64 = 256;
    let (handle, socket) = start("replay", 4, WINDOW);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let socket = socket.clone();
            scope.spawn(move || {
                let mut client = ServeClient::connect(&socket).unwrap();
                for i in 0..250u32 {
                    let k = 1 + ((t + i) % 4);
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
    let ops = &summary.operations;
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
    for (w, window) in summary.report.windows.iter().enumerate() {
        let lo = w * WINDOW as usize;
        let hi = lo + WINDOW as usize;
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
        assert_eq!(window.ops, WINDOW, "window {w}");
        assert_eq!(window.violations, violations, "window {w} violations");
        assert_eq!(window.magnitude_max, mag_max, "window {w} magnitude_max");
        assert_eq!(
            window.magnitude_total, mag_total,
            "window {w} magnitude_total"
        );
    }
    // and the still-open tail
    let tail_lo = windows_closed * WINDOW as usize;
    let tail: u64 = (tail_lo..ops.len())
        .map(|i| u64::from(magnitude(i) > 0))
        .sum();
    assert_eq!(summary.report.current.violations, tail);
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
