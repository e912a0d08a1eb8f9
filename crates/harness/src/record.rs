//! The report of one sweep: one [`GridReport`] over its cells'
//! [`RunRecord`]s.

use cnet_engine::RunRecord;
use serde::impl_serde_struct;

/// The repetitions a native bench cell should take.
///
/// A cell that models `threads`-way parallelism cannot be measured
/// faithfully when the host exposes a single hardware thread — the
/// "concurrent" clients are in fact time-sliced. The benches respond
/// by widening best-of-`default_reps` to at least best-of-5 (more
/// chances to dodge a scheduler hiccup).
#[must_use]
pub fn native_cell_reps(threads: usize, default_reps: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if threads > 1 && cores == 1 {
        default_reps.max(5)
    } else {
        default_reps
    }
}

/// The serializable report of one sweep: the sweep identity plus every
/// cell's [`RunRecord`] in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Sweep title (matches the printed table title).
    pub title: String,
    /// Base seed the cell seeds were derived from.
    pub base_seed: u64,
    /// Worker threads the sweep ran with (does not affect any record
    /// field except `wall_ms`).
    pub threads: usize,
    /// Host wall-clock for the whole sweep, in milliseconds.
    pub wall_ms: f64,
    /// Per-cell records, in submission order.
    pub records: Vec<RunRecord>,
}

impl_serde_struct!(GridReport {
    title,
    base_seed,
    threads,
    wall_ms,
    records,
});

impl GridReport {
    /// The report with all wall-clock fields and the thread count
    /// zeroed — equal across `--threads` values iff the sweep is
    /// deterministic.
    #[must_use]
    pub fn canonical(&self) -> Self {
        GridReport {
            threads: 0,
            wall_ms: 0.0,
            records: self.records.iter().map(RunRecord::canonical).collect(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use cnet_engine::Workload;
    use cnet_proteus::{SimConfig, Simulator};
    use serde::{Deserialize as _, Serialize as _};

    fn record(label: &str, wall_ms: f64) -> RunRecord {
        let net = cnet_topology::constructions::bitonic(4).unwrap();
        let workload = Workload {
            total_ops: 20,
            ..Workload::paper(4, 25, 100)
        };
        let stats = Simulator::new(&net, SimConfig::queue_lock(42)).run(&workload);
        RunRecord::measure(
            label,
            "Bitonic Counting Network",
            &workload,
            42,
            &stats,
            wall_ms,
        )
    }

    pub(crate) fn grid(title: &str, records: Vec<RunRecord>) -> GridReport {
        GridReport {
            title: title.to_string(),
            base_seed: 1,
            threads: 1,
            wall_ms: 5.0,
            records,
        }
    }

    #[test]
    fn native_cell_reps_widens_only_uniprocessor_parallel_cells() {
        // a single-threaded cell is always measured as requested
        assert_eq!(native_cell_reps(1, 3), 3);
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(native_cell_reps(64, 3), if cores == 1 { 5 } else { 3 });
    }

    #[test]
    fn grid_report_serde_round_trip() {
        let g = grid(
            "Figure 5",
            vec![record("W=100,n=4", 1.0), record("W=100,n=16", 2.0)],
        );
        let text = serde::json::to_string(&g.to_value());
        let back = GridReport::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn canonical_strips_timing_only() {
        let a = grid("t", vec![record("c", 1.0)]);
        let b = GridReport {
            threads: 8,
            wall_ms: 9.0,
            records: vec![record("c", 7.0)],
            ..a.clone()
        };
        assert_ne!(a, b);
        assert_eq!(a.canonical(), b.canonical());
    }
}
