//! The native perf sweep: real threads over the shared-memory and
//! message-passing counters, per-operation wall-clock per cell.
//!
//! Three sweeps over a width-16 bitonic network at `n ∈ {4, 64, 256}`
//! client threads, `F = 0`, `W = 0` (raw traversal speed, nothing
//! injected):
//!
//! * **shm compiled** — [`CounterSpec::Network`], the
//!   cache-line-aligned `CompiledNet` arena with relaxed toggle bits;
//! * **shm reference** — [`CounterSpec::Reference`], the preserved
//!   pre-refactor traversal, so the compiled/reference gap stays
//!   measured forever;
//! * **mp** — [`CounterSpec::Mp`], one thread per balancer and
//!   counter, tokens as messages.
//!
//! Native wall-clock is far noisier than the simulator's, so every
//! cell is run [`BEST_OF`] times and the fastest run is recorded —
//! that is what the committed `results/BENCH_native.json` baseline
//! holds, and the CI gate compares best-of-N against best-of-N with
//! the usual wide [`cnet_harness::baseline::REGRESSION_FACTOR`]
//! tolerance.
//!
//! Unlike the simulator gates, baseline comparisons must use the
//! *same* `--ops` as the committed baseline: a native cell pays a
//! fixed thread-spawn cost (up to 256 clients, plus one thread per
//! balancer on the mp sweep), so per-op wall-clock is size-dependent
//! and a 500-op run cannot be judged against a 5000-op baseline.
//!
//! Usage: `native [--ops N] [--seed S] [--json PATH]
//! [--baseline PATH]` (default 5000 operations per cell).

use cnet_engine::{BackendSpec, BalancerKind, CounterSpec, MpConfig, Workload};
use cnet_harness::{derive_cell_seed, BenchArgs, BenchReport, NativeSweep, ResultTable};
use cnet_topology::constructions;

/// Network width for every sweep (the tentpole's "width ≥ 16" target).
const WIDTH: usize = 16;

/// Client-thread counts (the `n` axis of the EXPERIMENTS.md table).
const CONCURRENCY: [usize; 3] = [4, 64, 256];

/// Runs per cell; the fastest is recorded (see
/// [`NativeSweep::best_of`]).
const BEST_OF: usize = 3;

/// The sweeps, all thread-per-client: title and counter.
const SWEEPS: [(&str, CounterSpec); 3] = [
    (
        "Native shm WaitFree (compiled)",
        CounterSpec::Network(BalancerKind::WaitFree),
    ),
    (
        "Native shm WaitFree (reference)",
        CounterSpec::Reference(BalancerKind::WaitFree),
    ),
    ("Native mp", CounterSpec::Mp(MpConfig { hop_spin: 0 })),
];

fn main() {
    let args = BenchArgs::parse("native");
    let base_seed = args.base_seed(0x7A7E);
    let net = constructions::bitonic(WIDTH).expect("width 16 is valid");
    let mut report = BenchReport::new("native", 1);
    println!("Native perf sweep — per-op wall-clock, best of {BEST_OF}");
    println!(
        "(bitonic[{WIDTH}], {} operations per cell, F = 0, W = 0)\n",
        args.ops
    );

    let mut per_op_us: Vec<Vec<f64>> = Vec::new();
    for (title, counter) in SWEEPS {
        let spec = BackendSpec::Threads(counter);
        let sweep = NativeSweep {
            title,
            kind: "Bitonic Counting Network",
            net: &net,
            spec: &spec,
            best_of: BEST_OF,
            base_seed,
            threads: 1,
        };
        let cells = CONCURRENCY.map(|n| {
            let workload = Workload {
                total_ops: args.ops,
                ..Workload::paper(n, 0, 0)
            };
            let seed = derive_cell_seed(base_seed, title, 0, 0, n);
            (format!("n={n}"), seed, workload)
        });
        let grid = sweep.run(cells).expect("width 16 hosts every counter");
        let mut table = ResultTable::new(
            format!("{title} — wall-clock (best of {BEST_OF})"),
            &["wall ms", "us/op", "backend"],
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
                    r.backend.clone(),
                ],
            );
        }
        println!("{}", table.to_text());
        report.push_table(&table);
        report.push_grid(grid);
    }

    // the headline the refactor is gated on: compiled vs reference
    let mut speedup = ResultTable::new(
        "Compiled vs reference — per-op speedup (shm WaitFree)",
        &["compiled us/op", "reference us/op", "speedup"],
    );
    for (i, n) in CONCURRENCY.iter().enumerate() {
        let (c, r) = (per_op_us[0][i], per_op_us[1][i]);
        speedup.push_row(
            format!("n={n}"),
            vec![
                format!("{c:.3}"),
                format!("{r:.3}"),
                format!("{:.2}x", r / c),
            ],
        );
    }
    println!("{}", speedup.to_text());
    report.push_table(&speedup);
    report.emit(&args);
}
