//! The elastic-frontend race: combining, sharding, and elimination
//! against the plain substrates, at equal hardware.
//!
//! Five sweeps over width-16 bitonic hardware at `n ∈ {4, 64, 256}`
//! client threads, under the paper's contended workload `F = 50%,
//! W = 1000` (half the clients spin `W` per hop, so traversals are
//! expensive and a frontend that *shares* traversals has something
//! real to win):
//!
//! * **shm plain** — [`CounterSpec::Network`], one traversal per
//!   operation, the baseline every frontend must beat;
//! * **shm-batch:8** — [`CounterSpec::Batch`], flat combining: a
//!   combiner claims up to 8 requests and walks the network once with
//!   a width-`k` interval reservation;
//! * **shm-shard:4** — [`CounterSpec::Shard`], four `bitonic(4)` shards
//!   behind a round-robin router (same total width, shallower nets);
//! * **mp plain** — [`CounterSpec::Mp`], one message pipeline walk per
//!   operation;
//! * **mp-elim** — [`CounterSpec::MpElim`], paired operations enter the
//!   pipeline as one token.
//!
//! Every cell reports throughput **and** its ordering cost: the
//! Definition 2.4 non-linearizable fraction and the measured
//! `c2/c1 = (Tog + W)/Tog` — the race is only meaningful priced. A
//! final section replays a ≤16-operation trace per frontend through
//! the brute-force linearizability oracle and cross-checks it against
//! the sweep counter ([`linearizability::check_exhaustive`] answers
//! `Some` iff Definition 2.4 counts zero on exact-valued traces).
//!
//! Wall-clock is best-of-[`BEST_OF`] per cell; on a host with a single
//! hardware thread [`NativeSweep`] widens that to best-of-5 and the
//! records carry the `noisy` flag. Like `native`, baseline
//! comparisons must use the same `--ops` as the committed baseline.
//!
//! Usage: `frontend [--ops N] [--seed S] [--json PATH]
//! [--baseline PATH]` (default 5000 operations per cell).

use cnet_engine::{
    Backend, BackendSpec, BalancerKind, CombiningConfig, CounterSpec, EliminationConfig, MpConfig,
    RoutePolicy, Workload,
};
use cnet_harness::{derive_cell_seed, BenchArgs, BenchReport, NativeSweep, ResultTable};
use cnet_timing::linearizability;
use cnet_topology::constructions;

/// Total network width of every contender (the "equal hardware" side
/// of the race: 4 shards of width 4 against one width-16 net).
const WIDTH: usize = 16;

/// Shards behind the `shm-shard` router.
const SHARDS: usize = 4;

/// Combiner batch width for `shm-batch`.
const MAX_BATCH: u64 = 8;

/// Client-thread counts (the `n` axis of the EXPERIMENTS.md table).
const CONCURRENCY: [usize; 3] = [4, 64, 256];

/// Delayed fraction `F` (percent) and injected wait `W`: the paper's
/// contended regime, where traversal sharing pays.
const DELAYED_PERCENT: u32 = 50;
const WAIT_CYCLES: u64 = 1000;

/// Runs per cell; the fastest is recorded (widened to 5 on a
/// single-hardware-thread host, with the records flagged noisy).
const BEST_OF: usize = 3;

/// Replays one tiny trace through `backend` and cross-checks the
/// brute-force oracle against the Definition 2.4 sweep counter.
/// Returns the row for the oracle table.
fn oracle_row(backend: &dyn Backend, label: &str) -> (String, Vec<String>) {
    let ops = linearizability::EXHAUSTIVE_MAX_OPS.min(12);
    let workload = Workload {
        total_ops: ops,
        ..Workload::paper(4, DELAYED_PERCENT, WAIT_CYCLES)
    };
    let outcome = backend.run(&workload);
    assert!(
        outcome.counts_exactly(),
        "{label}: oracle trace lost the counting property"
    );
    let witness = linearizability::check_exhaustive(&outcome.stats.operations);
    let swept = linearizability::count_nonlinearizable(&outcome.stats.operations);
    // on exact-valued traces the oracle and the sweep must agree
    assert_eq!(
        witness.is_some(),
        swept == 0,
        "{label}: oracle disagrees with the Definition 2.4 sweep"
    );
    (
        label.to_string(),
        vec![
            ops.to_string(),
            if witness.is_some() { "yes" } else { "no" }.to_string(),
            swept.to_string(),
            "agree".to_string(),
        ],
    )
}

fn main() {
    let args = BenchArgs::parse("frontend");
    let base_seed = args.base_seed(0xF207);
    let net = constructions::bitonic(WIDTH).expect("width 16 is valid");
    let mut report = BenchReport::new("frontend", 1);
    println!("Elastic-frontend race — per-op wall-clock and ordering cost, best of {BEST_OF}");
    println!(
        "(bitonic[{WIDTH}] hardware, {} operations per cell, F = {DELAYED_PERCENT}%, W = {WAIT_CYCLES})\n",
        args.ops
    );

    // wide publication array: at n = 256 the default 8 slots would
    // collide most requests straight into solo traversals
    let batch_cfg = CombiningConfig {
        slots: 64,
        max_batch: MAX_BATCH,
        spin: 256,
    };
    let (kind, mp) = (BalancerKind::WaitFree, MpConfig::default());
    let sweeps = [
        ("Frontend shm plain", CounterSpec::Network(kind)),
        ("Frontend shm-batch:8", CounterSpec::Batch(kind, batch_cfg)),
        (
            "Frontend shm-shard:4",
            CounterSpec::Shard(kind, RoutePolicy::RoundRobin, SHARDS),
        ),
        ("Frontend mp plain", CounterSpec::Mp(mp)),
        (
            "Frontend mp-elim",
            CounterSpec::MpElim(mp, EliminationConfig::default()),
        ),
    ]
    .map(|(title, counter)| (title, BackendSpec::Threads(counter)));

    let mut per_op_us: Vec<Vec<f64>> = Vec::new();
    for (title, spec) in &sweeps {
        let sweep = NativeSweep {
            title,
            kind: "Bitonic Counting Network",
            net: &net,
            spec,
            best_of: BEST_OF,
            base_seed,
            threads: 1,
        };
        let cells = CONCURRENCY.map(|n| {
            let workload = Workload {
                total_ops: args.ops,
                ..Workload::paper(n, DELAYED_PERCENT, WAIT_CYCLES)
            };
            let seed = derive_cell_seed(base_seed, title, 0, 0, n);
            (format!("n={n}"), seed, workload)
        });
        let grid = sweep.run(cells).expect("width 16 hosts every counter");
        let mut table = ResultTable::new(
            format!("{title} — throughput and ordering cost (best of {BEST_OF})"),
            &["wall ms", "us/op", "nonlin %", "avg c2/c1", "backend"],
        );
        per_op_us.push(
            grid.records
                .iter()
                .map(|r| r.wall_ms / args.ops as f64 * 1e3)
                .collect(),
        );
        for r in &grid.records {
            table.push_row(
                r.label.clone(),
                vec![
                    format!("{:.2}", r.wall_ms),
                    format!("{:.3}", r.wall_ms / args.ops as f64 * 1e3),
                    cnet_harness::percent(r.stats.nonlinearizable_ratio),
                    format!("{:.2}", r.stats.average_ratio),
                    r.backend.clone(),
                ],
            );
        }
        println!("{}", table.to_text());
        report.push_table(&table);
        report.push_grid(grid);
    }

    // the headline the tentpole is gated on: batch vs plain, same net
    let mut race = ResultTable::new(
        "Combining vs plain — per-op speedup (shm, width-16 bitonic)",
        &["plain us/op", "batch us/op", "speedup"],
    );
    for (i, n) in CONCURRENCY.iter().enumerate() {
        let (plain, batch) = (per_op_us[0][i], per_op_us[1][i]);
        race.push_row(
            format!("n={n}"),
            vec![
                format!("{plain:.3}"),
                format!("{batch:.3}"),
                format!("{:.2}x", plain / batch),
            ],
        );
    }
    println!("{}", race.to_text());
    report.push_table(&race);

    // the brute-force oracle section: one ≤16-op trace per frontend,
    // cross-checked against the Definition 2.4 sweep
    let mut oracle = ResultTable::new(
        "Exhaustive-oracle pass — tiny traces, oracle vs Def-2.4 sweep",
        &["ops", "linearizable", "nonlin ops", "oracle vs sweep"],
    );
    for (title, spec) in &sweeps {
        let backend = spec
            .build(&net, base_seed ^ 0x0bac1e)
            .expect("width 16 hosts every counter");
        let (label, row) = oracle_row(backend.as_ref(), title);
        oracle.push_row(label, row);
    }
    println!("{}", oracle.to_text());
    report.push_table(&oracle);
    report.emit(&args);
}
