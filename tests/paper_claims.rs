//! The paper's Section 5 claims as predicates over the committed
//! records.
//!
//! `crates/bench/tests/results.rs` holds the tables to their committed
//! bytes; this suite holds EXPERIMENTS.md's verdicts to the numbers
//! behind them. Each claims-table row there names the test here that
//! checks it. A claim the data support only in part is asserted to the
//! extent the data show, so a regenerated table that moves a verdict
//! fails here instead of leaving the prose stale.
//!
//! Reads `results/BENCH_figure{5,6,7}.json` and `BENCH_controls.json`
//! through the harness's `GridReport` reader; runs nothing.

use std::collections::BTreeMap;
use std::path::Path;

use cnet_engine::RunRecord;
use cnet_harness::GridReport;
use serde::Deserialize;

const BITONIC: &str = "Bitonic Counting Network";
const TREE: &str = "Diffracting Tree";

/// Every record of a committed report, grid by grid.
fn records(report: &str) -> Vec<RunRecord> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/BENCH_{report}.json"));
    let text = std::fs::read_to_string(&path).expect("committed report is readable");
    let value = serde::json::from_str(&text).expect("committed report is JSON");
    let Some(serde::Value::Array(grids)) = value.get("grids") else {
        panic!("{}: no grids", path.display());
    };
    grids
        .iter()
        .flat_map(|grid| {
            GridReport::from_value(grid)
                .expect("a current grid")
                .records
        })
        .collect()
}

/// The violation share in percent of every Figure 5 (F = 25 %) and
/// Figure 6 (F = 50 %) cell, keyed by `(network, F, W, n)`.
fn figure_cells() -> BTreeMap<(String, u32, u64, usize), f64> {
    ["figure5", "figure6"]
        .iter()
        .flat_map(|report| records(report))
        .map(|r| {
            let key = (
                r.kind.clone(),
                r.delayed_percent,
                r.wait_cycles,
                r.processors,
            );
            (key, 100.0 * r.stats.nonlinearizable_ratio)
        })
        .collect()
}

fn cell(
    cells: &BTreeMap<(String, u32, u64, usize), f64>,
    kind: &str,
    f: u32,
    w: u64,
    n: usize,
) -> f64 {
    cells[&(kind.to_string(), f, w, n)]
}

const FS: [u32; 2] = [25, 50];
const NS: [usize; 5] = [4, 16, 64, 128, 256];

#[test]
fn the_grids_are_the_papers() {
    let cells = figure_cells();
    assert_eq!(
        cells.len(),
        2 * 2 * 4 * 5,
        "two networks × two F × four W × five n"
    );
}

/// "For the lower delay levels the average c2/c1 ratio is less than or
/// around 2, and no violations were detected."
#[test]
fn low_delay_cells_are_clean() {
    for ((kind, f, w, n), share) in figure_cells() {
        if w == 100 {
            assert!(share <= 0.02, "{kind} F={f} n={n}: {share:.2} %");
        }
    }
}

/// "When the average goes up far above 2, violations occur": on every
/// tree cell with `W ≥ 10⁴`, but on the bitonic network only at
/// n ≤ 16. Every bitonic `W = 10⁵` cell at n ≥ 64 reads 0.00 %.
#[test]
fn violations_occur_far_above_two_on_trees_and_on_bitonic_at_low_n() {
    for ((kind, f, w, n), share) in figure_cells() {
        if w < 10_000 {
            continue;
        }
        let what = format!("{kind} F={f} W={w} n={n}: {share:.2} %");
        if kind == TREE || n <= 16 {
            assert!(share > 0.0, "{what}");
        }
        if kind == BITONIC && w == 100_000 && n >= 64 {
            assert_eq!(share, 0.0, "{what}");
        }
    }
}

/// "Diffracting trees have a higher fraction of violations because of
/// their lower depth": tree above bitonic at `W = 10⁴` for n ≥ 64.
#[test]
fn trees_violate_more_than_bitonic_at_high_concurrency() {
    let cells = figure_cells();
    for f in FS {
        for n in [64, 128, 256] {
            let (tree, bitonic) = (
                cell(&cells, TREE, f, 10_000, n),
                cell(&cells, BITONIC, f, 10_000, n),
            );
            assert!(
                tree > bitonic,
                "F={f} n={n}: tree {tree:.2} % vs bitonic {bitonic:.2} %"
            );
        }
    }
}

/// The largest `n` up to which a row's violation share does not fall.
fn rises_up_to(
    cells: &BTreeMap<(String, u32, u64, usize), f64>,
    kind: &str,
    f: u32,
    w: u64,
) -> usize {
    let row: Vec<f64> = NS.iter().map(|&n| cell(cells, kind, f, w, n)).collect();
    let falls = row.windows(2).position(|pair| pair[1] < pair[0]);
    NS[falls.unwrap_or(NS.len() - 1)]
}

/// "The number of violations increases with concurrency": per network,
/// F and W, the largest n up to which violations do not fall. At the
/// delays where violations occur (`W ≥ 10⁴`) they rise at most to
/// n = 16 on the bitonic network and to n = 64 on the tree.
#[test]
fn violations_rise_with_concurrency_only_up_to_these_n() {
    let cells = figure_cells();
    let expected: [(&str, u32, [usize; 4]); 4] = [
        // (network, F, [W = 10², 10³, 10⁴, 10⁵])
        (BITONIC, 25, [256, 4, 4, 4]),
        (BITONIC, 50, [256, 4, 16, 4]),
        (TREE, 25, [256, 128, 16, 4]),
        (TREE, 50, [128, 64, 64, 4]),
    ];
    for (kind, f, extents) in expected {
        for (w, extent) in [100, 1000, 10_000, 100_000].into_iter().zip(extents) {
            assert_eq!(
                rises_up_to(&cells, kind, f, w),
                extent,
                "{kind} F={f} W={w}"
            );
        }
    }
}

/// "The 100,000 becomes better than the 10,000 at high concurrency
/// levels": true of every bitonic cell at n ≥ 64, where both rows
/// collapse, and of only two tree cells. It fails for the tree at
/// F = 25 % for every n ≥ 64 and at F = 50 %, n = 128.
#[test]
fn w100000_beats_w10000_at_high_concurrency_only_in_these_cells() {
    let cells = figure_cells();
    let mut tree_holds = Vec::new();
    for f in FS {
        for n in [64, 128, 256] {
            let (w4, w5) = (
                cell(&cells, BITONIC, f, 10_000, n),
                cell(&cells, BITONIC, f, 100_000, n),
            );
            assert!(w5 <= w4, "bitonic F={f} n={n}: {w5:.2} % vs {w4:.2} %");
            let (w4, w5) = (
                cell(&cells, TREE, f, 10_000, n),
                cell(&cells, TREE, f, 100_000, n),
            );
            if w5 < w4 {
                tree_holds.push((f, n));
            }
        }
    }
    assert_eq!(tree_holds, [(50, 64), (50, 256)]);
}

/// F = 0 %, F = 100 %, W = 0 and uniform-random waits show no
/// violations, except the tree's uniform-random cell at `W = 10⁵`.
#[test]
fn controls_are_clean_except_the_tree_residual() {
    let controls = records("controls");
    assert_eq!(controls.len(), 26);
    for r in controls {
        let share = 100.0 * r.stats.nonlinearizable_ratio;
        if r.kind == TREE && r.label == "random [0,W],W=100000" {
            assert!(share > 0.0 && share <= 0.04, "{}: {share:.2} %", r.label);
        } else {
            assert_eq!(share, 0.0, "{} {}", r.kind, r.label);
        }
    }
}

/// Figure 7's n = 4 column (F = 50 %) lies within 6 % of the paper's,
/// the calibration the simulator was fitted to.
#[test]
fn figure7_at_low_concurrency_is_within_six_percent_of_the_paper() {
    let paper: [(&str, [f64; 4]); 2] = [
        (BITONIC, [1.45, 5.67, 48.77, 483.0]),
        (TREE, [1.11, 2.06, 12.14, 115.54]),
    ];
    let measured: BTreeMap<(String, u64), f64> = records("figure7")
        .into_iter()
        .filter(|r| r.delayed_percent == 50 && r.processors == 4)
        .map(|r| ((r.kind.clone(), r.wait_cycles), r.stats.average_ratio))
        .collect();
    assert_eq!(measured.len(), 8);
    for (kind, column) in paper {
        for (w, expected) in [100, 1000, 10_000, 100_000].into_iter().zip(column) {
            let ours = measured[&(kind.to_string(), w)];
            let off = (ours - expected).abs() / expected;
            assert!(
                off <= 0.06,
                "{kind} W={w}: {ours:.2} vs the paper's {expected}"
            );
        }
    }
}
