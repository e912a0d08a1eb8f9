//! The saturation atlas: open-loop arrival sweeps over the async
//! executor, locating each network's saturation knee.
//!
//! A closed-loop run cannot saturate — offered load is capped by the
//! processor count — so this bench drives the cooperative
//! [`BackendSpec::Async`] executor with `ArrivalProcess::Open` schedules and sweeps
//! the mean inter-arrival gap from far-subcritical (16 µs) down past
//! the service rate (250 ns), at two arena sizes, over both width-16
//! topologies:
//!
//! * **bitonic[16]** — the paper's Section 3 network;
//! * **counting-tree[16]** — the shallower diffracting-tree cousin.
//!
//! Every cell reports the open-loop curve ([`offered`/`achieved`
//! rates, the lag ratio, sojourn-latency quantiles) from the run's
//! schema-v5 `open_loop` block. The **knee** of a sweep is the
//! smallest gap (highest offered rate) whose completions stretched no
//! more than [`TOLERANCE`]× past the arrival span — the last point
//! where the substrate keeps up. A final table collects one knee per
//! (topology, arena) pair; the atlas is gated on every sweep having
//! one.
//!
//! Wall-clock is best-of-[`BEST_OF`] per cell; the async executor
//! always runs [`WORKERS`] OS workers, so on a single-hardware-thread
//! host [`NativeSweep`] widens that to best-of-5 and flags the
//! records noisy (the CI gate then allows the 9× noisy factor).
//!
//! Usage: `saturation [--ops N] [--seed S] [--json PATH]
//! [--baseline PATH]` (default 5000 operations per cell).

use cnet_engine::{ArrivalProcess, AsyncConfig, BackendSpec, BalancerKind, CounterSpec, Workload};
use cnet_harness::{
    derive_cell_seed, BenchArgs, BenchReport, GridReport, NativeSweep, ResultTable,
};
use cnet_topology::{constructions, Topology};

/// Network width of both topologies.
const WIDTH: usize = 16;

/// Mean inter-arrival gaps swept, nanoseconds, subcritical first. The
/// offered rate of a cell is ≈ 10^9 / gap operations per second; the
/// bottom of the sweep offers well past the serialized service rate
/// (~4 Mops/s on the reference host), so every sweep crosses its knee.
const GAPS: [u64; 8] = [16_000, 4_000, 1_000, 500, 250, 125, 60, 30];

/// Logical-client arena sizes (the async executor multiplexes these
/// onto [`WORKERS`] OS threads; the axis prices the polling sweep).
const ARENAS: [usize; 2] = [256, 4096];

/// OS worker threads under the client arena.
const WORKERS: usize = 2;

/// Equal-population latency windows per run.
const WINDOWS: usize = 8;

/// A sweep's knee is the smallest gap whose completion span stayed
/// within this factor of the arrival span.
const TOLERANCE: f64 = 1.25;

/// Runs per cell; the fastest is recorded (widened to 5 on a
/// single-hardware-thread host, with the records flagged noisy).
const BEST_OF: usize = 3;

/// One sweep: every gap cell through the async executor, best-of-N;
/// record `i` is the cell of `GAPS[i]`.
fn sweep(
    title: &str,
    net: &Topology,
    arena: usize,
    args: &BenchArgs,
    base_seed: u64,
) -> GridReport {
    let config = AsyncConfig {
        workers: WORKERS,
        chunk: 1024,
        windows: WINDOWS,
    };
    let spec = BackendSpec::Async(CounterSpec::Network(BalancerKind::WaitFree), config);
    let sweep = NativeSweep {
        title,
        kind: title,
        net,
        spec: &spec,
        best_of: BEST_OF,
        base_seed,
        threads: WORKERS,
    };
    let cells = GAPS.iter().enumerate().map(|(i, &gap)| {
        let workload = Workload {
            total_ops: args.ops,
            arrival: ArrivalProcess::Open { mean_gap: gap },
            ..Workload::paper(arena, 0, 0)
        };
        let seed = derive_cell_seed(base_seed, title, i as u32, 0, arena);
        (format!("gap={gap}ns"), seed, workload)
    });
    sweep
        .run(cells)
        .expect("every topology hosts its own network counter")
}

/// A histogram bound in nanoseconds as microseconds, one decimal.
fn micros(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn main() {
    let args = BenchArgs::parse("saturation");
    let base_seed = args.base_seed(0x5A70);
    let mut report = BenchReport::new("saturation", WORKERS);
    println!("Saturation atlas — open-loop gap sweeps over the async executor, best of {BEST_OF}");
    println!(
        "(width-{WIDTH} networks, {} operations per cell, {WORKERS} workers, knee at lag <= {TOLERANCE})\n",
        args.ops
    );

    let nets: [(&str, Topology); 2] = [
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
        format!("Saturation knees — smallest gap with lag <= {TOLERANCE}"),
        &["knee gap ns", "offered kops/s", "lag", "p99 us"],
    );
    let mut found_all = true;
    for (name, net) in &nets {
        for &arena in &ARENAS {
            let title = format!("Saturation {name}[{WIDTH}] n={arena}");
            let grid = sweep(&title, net, arena, &args, base_seed);
            // the curve: one open-loop block per gap
            let curve: Vec<_> = GAPS
                .iter()
                .zip(&grid.records)
                .map(|(&gap, record)| {
                    let open = record.open_loop.as_ref();
                    (gap, open.expect("open-loop async runs carry telemetry"))
                })
                .collect();
            let mut table = ResultTable::new(
                format!("{title} — open-loop curve (best of {BEST_OF})"),
                &[
                    "offered kops/s",
                    "achieved kops/s",
                    "lag",
                    "p50 us",
                    "p99 us",
                    "saturated",
                ],
            );
            for &(gap, open) in &curve {
                let saturated = open.is_saturated(TOLERANCE);
                table.push_row(
                    format!("gap={gap}ns"),
                    vec![
                        format!("{:.1}", open.offered_rate() / 1e3),
                        format!("{:.1}", open.achieved_rate() / 1e3),
                        format!("{:.3}", open.lag_ratio()),
                        micros(open.latency.quantile_upper_bound(0.50)),
                        micros(open.latency.quantile_upper_bound(0.99)),
                        if saturated { "yes" } else { "no" }.to_string(),
                    ],
                );
            }
            println!("{}", table.to_text());
            report.push_table(&table);
            // the knee: the smallest gap still inside tolerance
            let knee = curve
                .iter()
                .filter(|(_, open)| !open.is_saturated(TOLERANCE))
                .min_by_key(|(gap, _)| *gap);
            match knee {
                Some((gap, open)) => knees.push_row(
                    title,
                    vec![
                        gap.to_string(),
                        format!("{:.1}", open.offered_rate() / 1e3),
                        format!("{:.3}", open.lag_ratio()),
                        micros(open.latency.quantile_upper_bound(0.99)),
                    ],
                ),
                None => {
                    found_all = false;
                    knees.push_row(
                        title,
                        vec!["none".into(), "-".into(), "-".into(), "-".into()],
                    );
                }
            }
            report.push_grid(grid);
        }
    }
    println!("{}", knees.to_text());
    report.push_table(&knees);
    report.emit(&args);
    assert!(
        found_all,
        "atlas gate: every sweep must locate a knee (no gap kept lag <= {TOLERANCE})"
    );
}
