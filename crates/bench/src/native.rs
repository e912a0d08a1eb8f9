//! The host-time suites: real threads (and the cooperative executor)
//! over the native counters, per-operation wall-clock per cell.
//!
//! Native wall-clock is far noisier than the simulator's, so every cell
//! is run [`BEST_OF`] times and the fastest run is recorded — that is
//! what the committed `results/BENCH_<suite>.json` reports hold. On a
//! host with a single hardware thread [`NativeSweep`] widens that to
//! best-of-5. Nothing here compares one run with another: two runs of
//! one binary differ by more than most changes on a shared host, and
//! the reading that holds still is the repository benchmark's, taken
//! from outside on one pinned CPU (`benchmark/README.md`).
//!
//! A cell's `wall_ms` runs from thread spawn to join, so per-op
//! wall-clock is size-dependent: a cell pays a fixed spawn cost (up to
//! 256 clients) that only a large `--ops` amortizes. The committed
//! tables are taken at the `--ops` their header names, where us/op at
//! `n = 4` is flat under doubling.
//!
//! These suites refuse to run on a build with the live probe layer
//! ([`crate::DriveError::LiveProbes`]): a probe's clock reads cost
//! several times the operation they bracket.

use std::io;

use cnet_engine::{
    AsyncConfig, Backend, BalancerKind, CombiningConfig, CounterSpec, RoutePolicy, RunRecord,
    Workload,
};
use cnet_harness::sweep::micros;
use cnet_harness::{
    derive_cell_seed, percent, BackendSpec, NativeSweep, ResultTable, KNEE_TOLERANCE,
};
use cnet_timing::linearizability;
use cnet_topology::{constructions, Topology};

use crate::Run;

/// Network width of every sweep.
const WIDTH: usize = 16;

/// Client-thread counts (the `n` axis of the EXPERIMENTS.md tables).
const CONCURRENCY: [usize; 3] = [4, 64, 256];

/// Runs per cell; the fastest is recorded.
const BEST_OF: usize = 3;

/// One thread-per-client race over width-16 bitonic hardware.
struct Race<'a> {
    /// The contenders: sweep title and counter.
    sweeps: &'a [(&'a str, CounterSpec)],
    /// Delayed fraction `F` (percent) and injected wait `W`.
    delayed_percent: u32,
    wait_cycles: u64,
    /// Whether every cell is priced: its Definition 2.4 fraction and
    /// measured `c2/c1` beside its wall-clock.
    priced: bool,
    /// The headline table, if the race has one: sweep 0 as the
    /// reference against sweep 1, under this title and these columns.
    headline: Option<(&'a str, [&'a str; 3])>,
}

impl Race<'_> {
    /// Runs every sweep at every [`CONCURRENCY`], printing one table
    /// per sweep and then the headline speedup table, if any.
    fn run(&self, run: &mut Run<'_>, net: &Topology) -> io::Result<()> {
        let ops = run.args.ops;
        let per_op_us = |r: &RunRecord| r.wall_ms / ops as f64 * 1e3;
        let (measures, columns) = if self.priced {
            let columns = &["wall ms", "us/op", "nonlin %", "avg c2/c1", "backend"][..];
            ("throughput and ordering cost", columns)
        } else {
            ("wall-clock", &["wall ms", "us/op", "backend"][..])
        };

        let mut grids = Vec::new();
        for (title, counter) in self.sweeps {
            let spec = BackendSpec::Threads(*counter);
            let sweep = NativeSweep {
                title,
                kind: "Bitonic Counting Network",
                net,
                spec: &spec,
                best_of: BEST_OF,
                base_seed: run.seed,
                threads: 1,
            };
            let cells = CONCURRENCY.map(|n| {
                let workload = Workload {
                    total_ops: ops,
                    ..Workload::paper(n, self.delayed_percent, self.wait_cycles)
                };
                let seed = derive_cell_seed(run.seed, title, 0, 0, n);
                (format!("n={n}"), seed, workload)
            });
            let grid = sweep.run(cells).expect("every cell checks on width 16");
            let mut table =
                ResultTable::new(format!("{title} — {measures} (best of {BEST_OF})"), columns);
            for r in &grid.records {
                let mut row = vec![format!("{:.2}", r.wall_ms), format!("{:.3}", per_op_us(r))];
                if self.priced {
                    row.push(percent(r.stats.nonlinearizable_ratio));
                    row.push(format!("{:.2}", r.stats.average_ratio));
                }
                row.push(r.backend.clone());
                table.push_row(r.label.clone(), row);
            }
            run.table(&table)?;
            grids.push(grid);
        }

        if let Some((title, columns)) = self.headline {
            let mut speedup = ResultTable::new(title, &columns);
            for (reference, contender) in grids[0].records.iter().zip(&grids[1].records) {
                let (slow, fast) = (per_op_us(reference), per_op_us(contender));
                speedup.push_row(
                    reference.label.clone(),
                    vec![
                        format!("{slow:.3}"),
                        format!("{fast:.3}"),
                        format!("{:.2}x", slow / fast),
                    ],
                );
            }
            run.table(&speedup)?;
        }
        grids
            .into_iter()
            .for_each(|grid| run.report.push_grid(grid));
        Ok(())
    }
}

/// The native perf sweep at `F = 0`, `W = 0` (raw traversal speed,
/// nothing injected) over [`CounterSpec::Network`]: the cache-line-aligned
/// `NetworkCounter` arena with relaxed toggle bits, the one native
/// traversal.
pub(crate) fn native(run: &mut Run<'_>) -> io::Result<()> {
    let net = constructions::bitonic(WIDTH).expect("width 16 is valid");
    writeln!(
        run.out,
        "Native perf sweep — per-op wall-clock, best of {BEST_OF}"
    )?;
    writeln!(
        run.out,
        "(bitonic[{WIDTH}], {} operations per cell, F = 0, W = 0)\n",
        run.args.ops
    )?;
    let race = Race {
        sweeps: &[(
            "Native shm WaitFree",
            CounterSpec::Network(BalancerKind::WaitFree),
        )],
        delayed_percent: 0,
        wait_cycles: 0,
        priced: false,
        headline: None,
    };
    race.run(run, &net)
}

/// Delayed fraction and wait of the frontend race: the paper's
/// contended regime, where traversals are expensive and a frontend that
/// *shares* traversals has something real to win.
const CONTENDED: (u32, u64) = (50, 1000);

/// The elastic-frontend race — combining and sharding against the
/// plain network, at equal hardware (4 shards of width 4
/// against one width-16 net), under `F = 50%, W = 1000`:
///
/// * **shm plain** — [`CounterSpec::Network`], one traversal per
///   operation, the baseline every frontend must beat;
/// * **shm-batch:8** — [`CounterSpec::Batch`], flat combining: a
///   combiner claims up to 8 requests and walks the network once with
///   a width-`k` interval reservation;
/// * **shm-shard:4** — [`CounterSpec::Shard`], four `bitonic(4)` shards
///   behind a round-robin router.
///
/// Every cell reports throughput **and** its ordering cost — the
/// Definition 2.4 non-linearizable fraction and the measured `c2/c1` —
/// since the race is only meaningful priced. A final section replays a
/// ≤16-operation trace per frontend through the brute-force oracle and
/// cross-checks it against the sweep counter.
pub(crate) fn frontend(run: &mut Run<'_>) -> io::Result<()> {
    let (delayed_percent, wait_cycles) = CONTENDED;
    let net = constructions::bitonic(WIDTH).expect("width 16 is valid");
    writeln!(
        run.out,
        "Elastic-frontend race — per-op wall-clock and ordering cost, best of {BEST_OF}"
    )?;
    writeln!(
        run.out,
        "(bitonic[{WIDTH}] hardware, {} operations per cell, F = {delayed_percent}%, W = {wait_cycles})\n",
        run.args.ops
    )?;

    // wide publication array: at n = 256 the default 8 slots would
    // collide most requests straight into solo traversals
    let batch_cfg = CombiningConfig {
        slots: 64,
        max_batch: 8,
        spin: 256,
    };
    let kind = BalancerKind::WaitFree;
    let sweeps = [
        ("Frontend shm plain", CounterSpec::Network(kind)),
        ("Frontend shm-batch:8", CounterSpec::Batch(kind, batch_cfg)),
        (
            "Frontend shm-shard:4",
            CounterSpec::Shard(kind, RoutePolicy::RoundRobin, 4),
        ),
    ];
    let race = Race {
        sweeps: &sweeps,
        delayed_percent,
        wait_cycles,
        priced: true,
        // the headline the frontends are gated on: batch vs plain, same net
        headline: Some((
            "Combining vs plain — per-op speedup (shm, width-16 bitonic)",
            ["plain us/op", "batch us/op", "speedup"],
        )),
    };
    race.run(run, &net)?;

    let mut oracle = ResultTable::new(
        "Exhaustive-oracle pass — tiny traces, oracle vs Def-2.4 sweep",
        &["ops", "linearizable", "nonlin ops", "oracle vs sweep"],
    );
    for (title, counter) in sweeps {
        let backend = BackendSpec::Threads(counter)
            .build(&net, run.seed ^ 0x0bac1e)
            .expect("width 16 hosts every counter");
        oracle.push_row(title, oracle_row(backend.as_ref(), title));
    }
    run.table(&oracle)
}

/// Replays one tiny trace through `backend` and cross-checks the
/// brute-force oracle against the Definition 2.4 sweep counter
/// ([`linearizability::check_exhaustive`] answers `Some` iff
/// Definition 2.4 counts zero on exact-valued traces).
fn oracle_row(backend: &dyn Backend, label: &str) -> Vec<String> {
    let ops = linearizability::EXHAUSTIVE_MAX_OPS.min(12);
    let workload = Workload {
        total_ops: ops,
        ..Workload::paper(4, CONTENDED.0, CONTENDED.1)
    };
    let outcome = backend.run(&workload);
    assert!(
        outcome.counts_exactly(),
        "{label}: oracle trace lost the counting property"
    );
    let witness = linearizability::check_exhaustive(&outcome.stats.operations);
    let swept = linearizability::count_nonlinearizable(&outcome.stats.operations);
    assert_eq!(
        witness.is_some(),
        swept == 0,
        "{label}: oracle disagrees with the Definition 2.4 sweep"
    );
    vec![
        ops.to_string(),
        if witness.is_some() { "yes" } else { "no" }.to_string(),
        swept.to_string(),
        "agree".to_string(),
    ]
}

/// The saturation atlas: open-loop arrival sweeps over the async
/// executor, locating each network's saturation knee.
///
/// A closed-loop run cannot saturate — offered load is capped by the
/// processor count — so this drives the cooperative
/// [`BackendSpec::Async`] executor with open arrival schedules down the
/// shared gap ladder ([`cnet_harness::GAP_LADDER`], far-subcritical to
/// past the service rate), at two client-arena sizes, over the width-16
/// bitonic network and its shallower counting-tree cousin. Every cell
/// reports the open-loop curve (offered/achieved rates, the lag ratio,
/// sojourn-latency quantiles); a final table collects one knee per
/// (topology, arena) pair, and the atlas is gated on every sweep having
/// one.
pub(crate) fn saturation(run: &mut Run<'_>) -> io::Result<()> {
    /// OS worker threads under the client arena.
    const WORKERS: usize = 2;
    let ops = run.args.ops;
    writeln!(
        run.out,
        "Saturation atlas — open-loop gap sweeps over the async executor, best of {BEST_OF}"
    )?;
    writeln!(
        run.out,
        "(width-{WIDTH} networks, {ops} operations per cell, {WORKERS} workers, knee at lag <= {KNEE_TOLERANCE})\n"
    )?;

    let config = AsyncConfig {
        workers: WORKERS,
        chunk: 1024,
        windows: 8,
    };
    let spec = BackendSpec::Async(config);
    let nets = [
        (
            "bitonic",
            constructions::bitonic(WIDTH).expect("valid width"),
        ),
        (
            "counting-tree",
            constructions::counting_tree(WIDTH).expect("valid width"),
        ),
    ];
    let mut knees = ResultTable::new(
        format!("Saturation knees — smallest gap with lag <= {KNEE_TOLERANCE}"),
        &["knee gap ns", "offered kops/s", "lag", "p99 us"],
    );
    let mut found_all = true;
    for (name, net) in &nets {
        // logical-client arena sizes: the executor multiplexes these
        // onto its workers, so the axis prices the polling sweep
        for arena in [256usize, 4096] {
            let title = format!("Saturation {name}[{WIDTH}] n={arena}");
            let sweep = NativeSweep {
                title: &title,
                kind: &title,
                net,
                spec: &spec,
                best_of: BEST_OF,
                base_seed: run.seed,
                threads: WORKERS,
            };
            let curve = format!("{title} — open-loop curve (best of {BEST_OF})");
            let seed = |i: usize| derive_cell_seed(run.seed, &title, i as u32, 0, arena);
            let ladder = sweep
                .gap_ladder(curve, arena, ops, seed)
                .expect("every cell checks on every topology");
            run.table(&ladder.curve)?;
            let knee = match ladder.knee() {
                Some((gap, open)) => vec![
                    gap.to_string(),
                    format!("{:.1}", open.offered_rate() / 1e3),
                    format!("{:.3}", open.lag_ratio()),
                    micros(open.latency.quantile_upper_bound(0.99)),
                ],
                None => {
                    found_all = false;
                    vec!["none".into(), "-".into(), "-".into(), "-".into()]
                }
            };
            knees.push_row(title, knee);
            run.report.push_grid(ladder.grid);
        }
    }
    run.table(&knees)?;
    assert!(
        found_all,
        "atlas gate: every sweep must locate a knee (no gap kept lag <= {KNEE_TOLERANCE})"
    );
    Ok(())
}
