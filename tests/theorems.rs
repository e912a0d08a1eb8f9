//! The paper's statements as executable properties over its Section 2
//! model: timing schedules replayed by `TimedExecutor`, graded by
//! Definition 2.4.
//!
//! The closed loop of an engine `Workload` becomes one schedule
//! (`cnet_engine::closed_loop_schedule`): processor `p` on input
//! `p mod w`, each entry at its previous exit, each hop
//! `200 + U[0, 200]` cycles plus `W` on a delayed processor — the
//! per-processor reading of `F`.
//!
//! Seeds are the schedules' inputs. A case runs seeds `base..base + 3`,
//! `base` = `CNET_TEST_SEED` or 0, and a failure prints
//! `reproduce with CNET_TEST_SEED=<base>`.

use cnet_concurrent::testcfg;
use cnet_engine::{closed_loop_schedule, Workload};
use cnet_timing::executor::TimedExecutor;
use cnet_topology::{constructions, Topology};

/// Seeds per cell; a cell's share is their mean.
const SEEDS: u64 = 3;

/// Operations per run.
const OPS: usize = 5_000;

fn base_seed() -> u64 {
    std::env::var("CNET_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The mean Definition 2.4 share over seeds `base..base + SEEDS` of the
/// model's closed loop with `n` processors, `F` = `delayed` %, `W` =
/// `wait`.
fn model_share(net: &Topology, n: usize, delayed: u32, wait: u64, base: u64) -> f64 {
    let workload = Workload {
        total_ops: OPS,
        ..Workload::paper(n, delayed, wait)
    }
    .check()
    .expect("a well-formed closed loop");
    let executor = TimedExecutor::new(net);
    let total: f64 = (base..base + SEEDS)
        .map(|seed| {
            let schedule = closed_loop_schedule(&workload, net, seed).expect("a closed loop");
            let execution = executor
                .run(&schedule)
                .expect("the schedule fits the network");
            execution.nonlinearizable_ratio()
        })
        .sum();
    total / SEEDS as f64
}

/// With a fixed half of the processors delayed for the whole run, the
/// share falls as processors per input wire grow. ROADMAP item 21's
/// probe read 13.28 % at n = w and 0.03 % at n = 8w on bitonic(32);
/// this cell reads 14.17 % and 0.46 % over seeds 0–2.
#[test]
fn the_model_share_falls_from_n_equals_w_to_eight_w() {
    let net = constructions::bitonic(8).expect("valid width");
    let w = net.input_width();
    testcfg::with_seed_report(base_seed(), |base| {
        let few = model_share(&net, w, 50, 10_000, base);
        let many = model_share(&net, 8 * w, 50, 10_000, base);
        assert!(
            many < few,
            "bitonic(8), F = 50 %, W = 10^4: the share at n = 8w ({many}) is not below n = w ({few})"
        );
    });
}
