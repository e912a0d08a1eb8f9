//! Ablation: wire-latency jitter vs violations at high concurrency.
//!
//! EXPERIMENTS.md's deviation note claims that without timing variance
//! the deterministic queue locks serialize the saturated network and
//! violations vanish at large `n`. This sweep makes that claim a
//! table: violations at `n = 256, W = 10000, F = 50%` as the uniform
//! link jitter grows from 0.
//!
//! Usage: `ablation_jitter [--ops N] [--seed S] [--threads T] [--json PATH] [--baseline PATH]`.

use cnet_harness::{
    derive_seed, percent, run_jobs_report, BenchArgs, BenchReport, Job, ResultTable,
};
use cnet_proteus::{SimConfig, WaitMode, Workload};
use cnet_topology::constructions;

fn main() {
    let args = BenchArgs::parse("ablation_jitter");
    let base = args.base_seed(0xA1);
    let mut report = BenchReport::new("ablation_jitter", args.threads);
    let nets = [
        constructions::bitonic(32).expect("valid width"),
        constructions::counting_tree(32).expect("valid width"),
    ];
    let workload = Workload {
        total_ops: args.ops,
        wait_mode: WaitMode::Fixed,
        ..Workload::paper(256, 50, 10_000)
    };
    let jitters = [0u64, 50, 200, 800, 3200];
    let mut jobs = Vec::new();
    for &jitter in &jitters {
        for (net, name) in [(0usize, "bitonic"), (1, "tree")] {
            let seed = derive_seed(base, &format!("ablation_jitter/{name}"), &[jitter]);
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
                    fabric: cnet_proteus::Fabric::degenerate(config.fabric.link.delay, jitter),
                    ..config
                },
                workload: workload.clone(),
            });
        }
    }

    let title = format!("jitter ablation (n=256, F=50%, W=10000, {} ops)", args.ops);
    let (cells, grid) = run_jobs_report(&title, base, &nets, &jobs, args.threads);

    let mut table = ResultTable::new(&title, &["bitonic nonlin", "tree nonlin"]);
    for (i, &jitter) in jitters.iter().enumerate() {
        table.push_row(
            format!("jitter={jitter}"),
            vec![
                percent(cells[2 * i].record.stats.nonlinearizable_ratio),
                percent(cells[2 * i + 1].record.stats.nonlinearizable_ratio),
            ],
        );
    }
    println!("{}", table.to_text());
    println!("{}", table.to_csv());
    report.push_table(&table);
    report.push_grid(grid);
    report.emit(&args);
}
