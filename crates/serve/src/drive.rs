//! The open-loop load generator (`cnet drive`).
//!
//! `N` client threads share one seeded arrival schedule — the same
//! schedule the in-process engine backends would derive for the same
//! `(seed, workload)` pair, via [`cnet_engine::arrival_schedule`] — and
//! race through it: each thread claims the next arrival index, sleeps
//! until its instant, fires one request, and records the reply's
//! logical bracket plus its *sojourn* (completion wall-clock minus
//! scheduled arrival, the open-loop latency that includes queueing
//! delay whenever the service falls behind the schedule).
//!
//! Afterwards each reply's Definition 2.4 witness is recomputed from
//! the collected ticks, and the trace is fed in end-tick order through
//! a client-side [`SloEvaluator`] — an independent check
//! of the server's own online accounting, and what `cnet drive` holds
//! to its `--slo` policy.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cnet_engine::{arrival_schedule, ArrivalProcess, Workload};
use cnet_obs::{SloEvaluator, SloPolicy, SloReport};
use cnet_timing::linearizability::StartWitness;

use crate::client::ServeClient;

/// The drive run's shape.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Socket of the daemon to load.
    pub socket: PathBuf,
    /// Concurrent client connections.
    pub clients: usize,
    /// Offered load in requests per second (across all clients).
    pub rate_per_sec: u64,
    /// How long to keep offering it.
    pub duration: Duration,
    /// Values per request (1 = plain `Next`).
    pub batch: u32,
    /// Thresholds for the client-side evaluator.
    pub policy: SloPolicy,
    /// Completions per client-side SLO window.
    pub window_ops: u64,
    /// Seed of the arrival schedule.
    pub seed: u64,
}

impl DriveConfig {
    /// Defaults: 4 clients, 1000 req/s for 10 s, batch 1, unbounded
    /// policy, 1024-op windows.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DriveConfig {
            socket: socket.into(),
            clients: 4,
            rate_per_sec: 1000,
            duration: Duration::from_secs(10),
            batch: 1,
            policy: SloPolicy::unbounded(),
            window_ops: 1024,
            seed: 0x5eed,
        }
    }

    /// Total requests this config offers (`rate × duration`, at least
    /// one so a smoke run always measures something).
    #[must_use]
    pub fn total_requests(&self) -> usize {
        let reqs = (self.rate_per_sec as u128 * self.duration.as_nanos()) / 1_000_000_000;
        usize::try_from(reqs).unwrap_or(usize::MAX).max(1)
    }
}

/// One completed request as the driver saw it.
#[derive(Debug, Clone, Copy)]
struct Completion {
    start: u64,
    end: u64,
    base: u64,
    k: u32,
    sojourn_ns: u64,
    scheduled_ns: u64,
}

/// What a finished drive run measured.
#[derive(Debug)]
pub struct DriveOutcome {
    /// The client-side SLO evaluation of the observed trace.
    pub report: SloReport,
    /// Requests completed successfully.
    pub requests: u64,
    /// Counter values drawn (`requests × batch` minus failures).
    pub values: u64,
    /// Requests that failed with an I/O error.
    pub failures: u64,
    /// Wall-clock spent driving.
    pub elapsed: Duration,
}

/// Runs the load, blocking until the schedule is exhausted.
///
/// # Errors
///
/// Fails fast if the *first* connection cannot be established (the
/// daemon is not there); individual request failures afterwards are
/// counted, not fatal — the survivors still make a judgeable trace.
pub fn drive(config: &DriveConfig) -> io::Result<DriveOutcome> {
    let total = config.total_requests();
    let mean_gap_ns = (1_000_000_000u64 / config.rate_per_sec.max(1)).max(1);
    let workload = Workload {
        total_ops: total,
        arrival: ArrivalProcess::Open {
            mean_gap: mean_gap_ns,
        },
        ..Workload::paper(config.clients.max(1), 0, 0)
    };
    let schedule = Arc::new(arrival_schedule(&workload, config.seed));

    // fail fast while we still can — and hold the probe connection
    // open so the daemon is never observed idle-then-gone
    let mut probe = ServeClient::connect_with_patience(&config.socket, Duration::from_secs(5))?;
    probe.health()?;

    let started = Instant::now();
    let next_index = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let mut collected: Vec<Completion> = Vec::with_capacity(total);
    thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..config.clients.max(1) {
            let schedule = Arc::clone(&schedule);
            let next_index = Arc::clone(&next_index);
            let failures = Arc::clone(&failures);
            workers.push(scope.spawn(move || {
                let mut client = match ServeClient::connect(&config.socket) {
                    Ok(c) => c,
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                        return Vec::new();
                    }
                };
                let mut mine: Vec<Completion> = Vec::new();
                loop {
                    let i = next_index.fetch_add(1, Ordering::Relaxed);
                    let Some(&at_ns) = schedule.get(i) else {
                        break;
                    };
                    let at = Duration::from_nanos(at_ns);
                    let since = started.elapsed();
                    if since < at {
                        thread::sleep(at - since);
                    }
                    let drawn = if config.batch <= 1 {
                        client.next()
                    } else {
                        client.next_batch(config.batch)
                    };
                    match drawn {
                        Ok(d) => {
                            let done_ns =
                                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            mine.push(Completion {
                                start: d.start,
                                end: d.end,
                                base: d.base,
                                k: d.k,
                                sojourn_ns: done_ns.saturating_sub(at_ns),
                                scheduled_ns: at_ns,
                            });
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                mine
            }));
        }
        for w in workers {
            collected.extend(w.join().expect("drive worker panicked"));
        }
    });
    let elapsed = started.elapsed();

    // replay in end-tick order — the order the server's logical clock
    // actually serialized the completions
    collected.sort_by_key(|c| (c.end, c.start, c.base));
    // each bracket's witness, from a sweep of the recorded ticks in
    // time order: the ends at or before a start, then the start
    let mut by_start: Vec<usize> = (0..collected.len()).collect();
    by_start.sort_by_key(|&i| collected[i].start);
    let mut witness = vec![0; collected.len()];
    let mut finished = StartWitness::default();
    let mut ended = collected.iter().peekable();
    for i in by_start {
        let start = collected[i].start;
        while let Some(c) = ended.next_if(|c| c.end <= start) {
            if let Some(last) = u64::from(c.k).checked_sub(1) {
                finished.record(c.end, c.base + last);
            }
        }
        witness[i] = finished.witness(start);
    }
    let mut evaluator = SloEvaluator::new(config.policy, config.window_ops);
    let mut values = 0u64;
    for (c, witness) in collected.iter().zip(witness) {
        evaluator.record_batch(
            c.base,
            u64::from(c.k),
            c.sojourn_ns,
            witness,
            c.scheduled_ns / 1_000_000,
        );
        values += u64::from(c.k);
    }
    let uptime_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
    Ok(DriveOutcome {
        report: evaluator.snapshot(uptime_ms),
        requests: collected.len() as u64,
        values,
        failures: failures.load(Ordering::Relaxed),
        elapsed,
    })
}
