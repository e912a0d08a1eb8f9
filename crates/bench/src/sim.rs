//! The simulator suites: the Section 5 figures and control runs, and
//! the sweeps EXPERIMENTS.md adds to them.

use cnet_engine::{WaitMode, Workload};
use cnet_harness::{
    derive_cell_seed, derive_seed, percent, Grid, GridOutcome, Job, NetworkKind, ResultTable,
    PAPER_WAITS, PAPER_WIDTH,
};
use cnet_proteus::{Fabric, LinkSpec, PrismConfig, RetryPolicy, SimConfig, SwitchSpec};
use cnet_timing::windows::{self, Window};
use cnet_topology::constructions;

use crate::{cell_table, Cell, DriveError, Run};

const KINDS: [NetworkKind; 2] = [NetworkKind::Bitonic, NetworkKind::DiffractingTree];

/// The paper's workload at `(n, F, W)`, sized by `--ops`.
fn workload(run: &Run<'_>, n: usize, f: u32, w: u64, wait_mode: WaitMode) -> Workload {
    Workload {
        total_ops: run.ops,
        wait_mode,
        ..Workload::paper(n, f, w)
    }
}

/// A cell's non-linearizability ratio as a percentage.
fn nonlin<K>(cell: &Cell<K>) -> String {
    percent(cell.record.stats.nonlinearizable_ratio)
}

/// Figures 5–7: the paper's `(W, n)` grid over both networks at each
/// delayed fraction, one table of `cell` per grid.
fn figures(
    run: &mut Run<'_>,
    heading: &str,
    fractions: &[u32],
    cell: fn(&GridOutcome, &str) -> ResultTable,
) -> Result<(), DriveError> {
    writeln!(run.out, "{heading}")?;
    writeln!(run.out, "({} operations per cell, width 32)\n", run.ops)?;
    for &f in fractions {
        for kind in KINDS {
            let mut grid = Grid::paper(kind, f, run.ops, run.seed);
            // grids of several fractions share one report: tell them apart
            if fractions.len() > 1 {
                grid.title = format!("{} — F = {f}%", kind.label());
            }
            let outcome = grid.run(run.threads);
            run.table_csv(&cell(&outcome, &grid.title))?;
            let records = &outcome.report.records;
            let observed = records.iter().filter(|r| r.metrics.is_some()).count();
            if observed > 0 {
                eprintln!(
                    "(probe layer on: {observed} cells carry a metrics block in the JSON report)"
                );
            }
            run.report.push_grid(outcome.report);
        }
    }
    Ok(())
}

/// **Figure 5**: non-linearizability ratios with `F = 25%` of the
/// processors delayed, `W ∈ {100, …, 100000}` × `n ∈ {4, …, 256}`.
pub(crate) fn figure5(run: &mut Run<'_>) -> Result<(), DriveError> {
    let heading = "Figure 5 — non-linearizability ratios, F = 25% delayed processors";
    figures(run, heading, &[25], GridOutcome::ratio_table)
}

/// **Figure 6**: the Figure 5 grid with `F = 50%`.
pub(crate) fn figure6(run: &mut Run<'_>) -> Result<(), DriveError> {
    let heading = "Figure 6 — non-linearizability ratios, F = 50% delayed processors";
    figures(run, heading, &[50], GridOutcome::ratio_table)
}

/// **Figure 7**: the average `c2/c1 = (Tog + W)/Tog` measured during
/// the simulations, for both networks and both delayed fractions.
pub(crate) fn figure7(run: &mut Run<'_>) -> Result<(), DriveError> {
    let heading = "Figure 7 — average c2/c1 = (Tog + W)/Tog";
    figures(run, heading, &[50, 25], GridOutcome::average_ratio_table)
}

/// The Section 5 **control runs**, all of which the paper reports as
/// violation-free: `F = 0%` and `F = 100%` at every `W`, `W = 0`, and
/// uniform-random waits in `[0, W]` after each node.
pub(crate) fn controls(run: &mut Run<'_>) -> Result<(), DriveError> {
    writeln!(
        run.out,
        "Section 5 control runs ({} operations per cell, width 32, n = 64)\n",
        run.ops
    )?;
    let n = 64;
    let scenarios: [(&str, u32, WaitMode); 3] = [
        ("F=0%", 0, WaitMode::Fixed),
        ("F=100%", 100, WaitMode::Fixed),
        ("random [0,W]", 0, WaitMode::UniformRandom),
    ];
    for kind in KINDS {
        let net = kind.build(PAPER_WIDTH);
        let cell = |label: String, domain: &str, f: u32, w: u64, mode: WaitMode| Job {
            label,
            kind: kind.label().to_string(),
            net: 0,
            config: kind.config(derive_seed(
                run.seed,
                &format!("controls/{}/{domain}", kind.label()),
                &[u64::from(f), w, n as u64],
            )),
            workload: workload(run, n, f, w, mode),
        };
        let mut jobs = Vec::new();
        for (label, f, mode) in scenarios {
            for &w in &PAPER_WAITS {
                jobs.push(cell(format!("{label},W={w}"), label, f, w, mode));
            }
        }
        // the W = 0 cell, at F = 50%
        jobs.push(cell("F=50%,W=0".to_string(), "W=0", 50, 0, WaitMode::Fixed));

        let title = format!(
            "{} — control scenarios (non-linearizability ratio)",
            kind.label()
        );
        let cells = run.jobs(&title, std::slice::from_ref(&net), &jobs, drop);

        let mut table = ResultTable::new(&title, &PAPER_WAITS.map(|w| format!("W={w}")));
        for (row, (label, _, _)) in cells.chunks(PAPER_WAITS.len()).zip(scenarios) {
            table.push_row(label, row.iter().map(nonlin).collect());
        }
        run.table(&table)?;
        let w0 = cells.last().expect("W=0 cell");
        writeln!(run.out, "W=0 (F=50%): {}\n", nonlin(w0))?;
        writeln!(run.out, "{}", table.to_csv())?;
    }
    Ok(())
}

/// Consistency breakdown of the Section 5 benchmark: how much of the
/// non-linearizability is visible to a single process (the
/// program-order count), and where in the run the violations cluster.
/// The paper remarks that linearizability "is related to (but not
/// identical with)" sequential consistency; this quantifies the gap.
pub(crate) fn consistency(run: &mut Run<'_>) -> Result<(), DriveError> {
    let n = 64;
    writeln!(
        run.out,
        "consistency breakdown (n = {n}, F = 50%, width 32, {} ops/cell)\n",
        run.ops
    )?;
    for kind in KINDS {
        let net = kind.build(PAPER_WIDTH);
        let jobs: Vec<Job> = PAPER_WAITS
            .iter()
            .map(|&w| Job {
                label: format!("W={w}"),
                kind: kind.label().to_string(),
                net: 0,
                config: kind.config(derive_cell_seed(run.seed, kind.label(), 50, w, n)),
                workload: workload(run, n, 50, w, WaitMode::Fixed),
            })
            .collect();
        let title = format!("{} — linearizability vs program order", kind.label());
        // what the tables read off a cell's trace, taken in the worker
        // that ran it: the two counts, and the density profile a cell
        // with violations may be printed with
        let cells = run.jobs(&title, std::slice::from_ref(&net), &jobs, |stats| {
            let lin = stats.nonlinearizable_count();
            let density = if lin == 0 {
                Vec::new()
            } else {
                windows::violation_density(&stats.operations, (stats.sim_time / 24).max(1))
            };
            Consistency {
                lin,
                po: stats.program_order_violations(),
                density,
            }
        });

        let columns = ["nonlin", "program-order", "invisible share"];
        let table = cell_table(&title, &columns, &cells, |cell| {
            let Consistency { lin, po, .. } = cell.kept;
            let invisible = if lin == 0 {
                "-".to_string()
            } else {
                percent(lin.saturating_sub(po) as f64 / lin as f64)
            };
            vec![lin.to_string(), po.to_string(), invisible]
        });
        run.table(&table)?;
        // the first cell with the most violations
        let worst = cells
            .iter()
            .rev()
            .max_by_key(|c| c.kept.lin)
            .filter(|c| c.kept.lin > 0);
        if let Some(cell) = worst {
            writeln!(
                run.out,
                "violation density over time (worst cell, W = {}):",
                cell.record.wait_cycles
            )?;
            writeln!(run.out, "{}", windows::density_profile(&cell.kept.density))?;
        }
    }
    Ok(())
}

/// What the `consistency` suite keeps of a cell's trace.
struct Consistency {
    /// Definition 2.4 violations.
    lin: usize,
    /// Violations a single process observes (program order).
    po: usize,
    /// The violation density over 24 windows of the run; empty for a
    /// clean cell.
    density: Vec<Window>,
}

/// The motivation experiment — counting networks "eliminate sequential
/// bottlenecks and contention": simulated throughput of a centralized
/// counter vs `Bitonic[32]` vs the width-32 diffracting tree as
/// concurrency grows, with a 100-cycle fetch-and-increment at every
/// counter. The centralized counter is flat; the networks scale.
pub(crate) fn scaling(run: &mut Run<'_>) -> Result<(), DriveError> {
    let counter_cost = 100;
    let nets = [
        constructions::serial_line(1),
        constructions::bitonic(PAPER_WIDTH).expect("valid width"),
        constructions::counting_tree(PAPER_WIDTH).expect("valid width"),
    ];
    let rows: [(&str, bool); 3] = [
        ("central counter", false),
        ("bitonic[32]", false),
        ("diffracting[32]", true),
    ];
    let concurrency = [1usize, 4, 16, 64, 256];

    let mut jobs = Vec::new();
    for (net, (name, prism)) in rows.into_iter().enumerate() {
        for &n in &concurrency {
            let seed = derive_seed(run.seed, &format!("scaling/{name}"), &[n as u64]);
            let config = if prism {
                SimConfig::diffracting(seed)
            } else {
                SimConfig::queue_lock(seed)
            };
            jobs.push(Job {
                label: format!("{name},n={n}"),
                kind: name.to_string(),
                net,
                config: SimConfig {
                    counter_cost,
                    ..config
                },
                workload: workload(run, n, 0, 0, WaitMode::Fixed),
            });
        }
    }

    let title = format!(
        "throughput, ops/kilocycle ({} ops, counter cost {counter_cost})",
        run.ops
    );
    let cells = run.jobs(&title, &nets, &jobs, drop);

    let mut table = ResultTable::new(&title, &concurrency.map(|n| format!("n={n}")));
    for (row, (name, _)) in cells.chunks(concurrency.len()).zip(rows) {
        let per_kilocycle = |c: &Cell<()>| format!("{:.2}", c.record.stats.throughput * 1000.0);
        table.push_row(name, row.iter().map(per_kilocycle).collect());
    }
    run.table_csv(&table)
}

/// Ablation: the critical-section length (`toggle_cost`) of the
/// queue-lock balancer, `Bitonic[32]` at `n = 64`, `F = 50%`,
/// `W = 1000`. A cheaper balancer means a smaller measured `Tog`, hence
/// a *larger* effective `(Tog + W)/Tog` — the paper's reason for
/// keeping balancers slow enough that the `W` waits dominate `c2/c1`.
pub(crate) fn ablation_balancer(run: &mut Run<'_>) -> Result<(), DriveError> {
    let net = constructions::bitonic(32).expect("valid width");
    let jobs: Vec<Job> = [1u64, 10, 50, 200, 800]
        .iter()
        .map(|&toggle_cost| Job {
            label: format!("cs={toggle_cost}"),
            kind: "Bitonic Counting Network".to_string(),
            net: 0,
            config: SimConfig {
                toggle_cost,
                ..SimConfig::queue_lock(derive_seed(run.seed, "ablation_balancer", &[toggle_cost]))
            },
            workload: workload(run, 64, 50, 1000, WaitMode::Fixed),
        })
        .collect();

    let title = format!(
        "balancer-cost ablation (bitonic32, n=64, F=50%, W=1000, {} ops)",
        run.ops
    );
    let cells = run.jobs(&title, std::slice::from_ref(&net), &jobs, drop);
    let columns = ["Tog", "avg c2/c1", "mean latency", "max queue", "nonlin"];
    run.table_csv(&cell_table(&title, &columns, &cells, |cell| {
        let s = &cell.record.stats;
        vec![
            format!("{:.0}", s.avg_toggle_wait),
            format!("{:.2}", s.average_ratio),
            format!("{:.0}", s.mean_latency),
            format!("{}", s.max_lock_queue),
            percent(s.nonlinearizable_ratio),
        ]
    }))
}

/// Ablation: wire-latency jitter vs violations at high concurrency.
/// EXPERIMENTS.md's deviation note claims that without timing variance
/// the deterministic queue locks serialize the saturated network and
/// violations vanish at large `n`; this makes the claim a table:
/// violations at `n = 256, W = 10000, F = 50%` as the jitter grows.
pub(crate) fn ablation_jitter(run: &mut Run<'_>) -> Result<(), DriveError> {
    let nets = [
        constructions::bitonic(32).expect("valid width"),
        constructions::counting_tree(32).expect("valid width"),
    ];
    let jitters = [0u64, 50, 200, 800, 3200];
    let mut jobs = Vec::new();
    for &jitter in &jitters {
        for (net, name) in [(0usize, "bitonic"), (1, "tree")] {
            let seed = derive_seed(run.seed, &format!("ablation_jitter/{name}"), &[jitter]);
            let config = if net == 0 {
                SimConfig::queue_lock(seed)
            } else {
                SimConfig::diffracting(seed)
            };
            jobs.push(Job {
                label: format!("{name},jitter={jitter}"),
                kind: name.to_string(),
                net,
                config: SimConfig {
                    fabric: Fabric::degenerate(config.fabric.link.delay, jitter),
                    ..config
                },
                workload: workload(run, 256, 50, 10_000, WaitMode::Fixed),
            });
        }
    }

    let title = format!("jitter ablation (n=256, F=50%, W=10000, {} ops)", run.ops);
    let cells = run.jobs(&title, &nets, &jobs, drop);
    let mut table = ResultTable::new(&title, &["bitonic nonlin", "tree nonlin"]);
    for (pair, jitter) in cells.chunks(2).zip(jitters) {
        table.push_row(
            format!("jitter={jitter}"),
            pair.iter().map(nonlin).collect(),
        );
    }
    run.table_csv(&table)
}

/// Ablation: prism (diffraction) width and spin window in the width-32
/// diffracting tree at `n = 64`, `F = 50%`, `W = 1000`: the measured
/// `Tog`, the diffraction rate, operation latency, and the
/// non-linearizability ratio. `slots = 0` disables diffraction.
pub(crate) fn ablation_prism(run: &mut Run<'_>) -> Result<(), DriveError> {
    let net = constructions::counting_tree(32).expect("valid width");
    let sweep = [
        (0usize, 0u64),
        (4, 200),
        (8, 400),
        (16, 700),
        (32, 700),
        (64, 700),
        (32, 200),
        (32, 1400),
    ];
    let jobs: Vec<Job> = sweep
        .iter()
        .map(|&(slots, spin)| {
            let seed = derive_seed(run.seed, "ablation_prism", &[slots as u64, spin]);
            let mut config = SimConfig::queue_lock(seed);
            if slots > 0 {
                config.prism = Some(PrismConfig {
                    root_slots: slots,
                    spin_window: spin,
                    pair_cost: 60,
                });
            }
            Job {
                label: format!("slots={slots},spin={spin}"),
                kind: "Diffracting Tree".to_string(),
                net: 0,
                config,
                workload: workload(run, 64, 50, 1000, WaitMode::Fixed),
            }
        })
        .collect();

    let title = format!(
        "prism ablation (tree32, n=64, F=50%, W=1000, {} ops)",
        run.ops
    );
    let cells = run.jobs(&title, std::slice::from_ref(&net), &jobs, drop);
    let columns = ["Tog", "diffracted", "mean latency", "nonlin"];
    run.table_csv(&cell_table(&title, &columns, &cells, |cell| {
        let s = &cell.record.stats;
        let diffracted = 2.0 * s.diffraction_pairs as f64 / s.node_visits.max(1) as f64;
        vec![
            format!("{:.0}", s.avg_toggle_wait),
            percent(diffracted),
            format!("{:.0}", s.mean_latency),
            percent(s.nonlinearizable_ratio),
        ]
    }))
}

/// The wire of one fabric cell: a shared switch with NACK backpressure,
/// service 8, at the given loss rate and egress queue depth.
fn fabric_cell(loss_per_million: u32, capacity: u32) -> Fabric {
    Fabric {
        link: LinkSpec {
            delay: 20,
            jitter: 200,
            service: 8,
            capacity,
            loss_per_million,
        },
        switch: SwitchSpec {
            service: 4,
            capacity,
        },
        backpressure: true,
        retry: RetryPolicy::default(),
    }
}

/// Fabric sweep: Definition 2.4 violations and `c2/c1` as the wire
/// degrades from the ideal flat link into a lossy, shallow-queued
/// fabric. The paper's claim is a statement about timing — violations
/// stay rare because traversal times are tightly banded — and a real
/// interconnect widens that band, so this measures how far the claim
/// stretches: a width-16 bitonic network under `loss ∈ {0, 0.1%, 1%}`
/// × egress queue depth `∈ {unbounded, 16, 4}`, plus the legacy
/// degenerate wire as the reference cell.
pub(crate) fn fabric(run: &mut Run<'_>) -> Result<(), DriveError> {
    writeln!(
        run.out,
        "Fabric degradation sweep — width-16 bitonic, n=16, F=25%, W=10000"
    )?;
    writeln!(
        run.out,
        "({} operations per cell, NACK backpressure, service 8)\n",
        run.ops
    )?;
    let nets = [constructions::bitonic(16).expect("valid width")];
    let cell = |label: String, config: SimConfig| Job {
        label,
        kind: "bitonic".to_string(),
        net: 0,
        config,
        workload: workload(run, 16, 25, 10_000, WaitMode::Fixed),
    };
    let legacy = SimConfig::queue_lock(derive_seed(run.seed, "fabric/legacy", &[]));
    let mut jobs = vec![cell("legacy wire".to_string(), legacy)];
    for loss in [0u32, 1_000, 10_000] {
        for cap in [0u32, 16, 4] {
            let seed = derive_seed(run.seed, "fabric", &[u64::from(loss), u64::from(cap)]);
            let config = SimConfig {
                fabric: fabric_cell(loss, cap),
                ..SimConfig::queue_lock(seed)
            };
            jobs.push(cell(format!("loss={loss}/1M,cap={cap}"), config));
        }
    }

    let title = "fabric sweep (bitonic 16, n=16, F=25%, W=10000)";
    // the fabric counters and the delivered-token total, taken in the
    // worker that ran the cell
    let cells = run.jobs(title, &nets, &jobs, |stats| {
        let sim = stats.sim.expect("a simulated run keeps its counters");
        (sim.fabric, stats.output_counts.total())
    });
    let columns = [
        "nonlin %",
        "avg c2/c1",
        "attempts",
        "drops",
        "nacks",
        "peak q",
    ];
    run.table_csv(&cell_table(title, &columns, &cells, |cell| {
        let s = &cell.record.stats;
        let (f, _) = cell.kept;
        vec![
            percent(s.nonlinearizable_ratio),
            format!("{:.2}", s.average_ratio),
            f.attempts.to_string(),
            (f.loss_drops + f.full_drops).to_string(),
            f.nack_retries.to_string(),
            f.max_queue_depth.to_string(),
        ]
    }))?;

    // the sweep is only meaningful if the lossy cells actually
    // exercised the retry machinery and still delivered every token
    for cell in &cells {
        let (_, delivered) = cell.kept;
        assert_eq!(
            delivered, run.ops as u64,
            "{}: tokens were lost",
            cell.record.label
        );
    }
    let (lossiest, _) = cells.last().expect("cells").kept;
    assert!(
        lossiest.loss_drops > 0,
        "the 1% loss cell must drop: {lossiest:?}"
    );
    Ok(())
}
