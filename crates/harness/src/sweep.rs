//! The best-of-N sweep shared by the native benches (`native`,
//! `frontend`, `saturation`): one [`BackendSpec`] over a list of
//! cells, the fastest run of each recorded.

use std::time::Instant;

use cnet_engine::{BackendSpec, SpecError, Workload};
use cnet_topology::Topology;

use crate::record::{native_cell_reps, GridReport, RunRecord};

/// One sweep of a native bench: which backend, over which network,
/// under which titles.
#[derive(Debug, Clone, Copy)]
pub struct NativeSweep<'a> {
    /// Sweep title (the grid a baseline matches cells under).
    pub title: &'a str,
    /// Network description recorded in every cell.
    pub kind: &'a str,
    /// The network every cell runs over.
    pub net: &'a Topology,
    /// The backend every cell builds, freshly, from its own seed.
    pub spec: &'a BackendSpec,
    /// Runs per cell; the fastest is recorded — the standard defense
    /// against scheduler noise on shared runners. A cell the host
    /// cannot give its parallelism ([`native_cell_reps`]) takes at
    /// least five and its record is flagged noisy.
    pub best_of: usize,
    /// Base seed the report declares (the caller derives each cell's
    /// seed from it, see [`crate::derive_cell_seed`]).
    pub base_seed: u64,
    /// Worker threads the report declares.
    pub threads: usize,
}

impl NativeSweep<'_> {
    /// Runs every `(label, seed, workload)` cell and assembles the
    /// grid report, records in cell order.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] when the network cannot host the spec.
    ///
    /// # Panics
    ///
    /// Panics if a run loses the counting property.
    pub fn run(
        &self,
        cells: impl IntoIterator<Item = (String, u64, Workload)>,
    ) -> Result<GridReport, SpecError> {
        let title = self.title;
        let started = Instant::now();
        let mut records = Vec::new();
        for (label, seed, workload) in cells {
            let backend = self.spec.build(self.net, seed)?;
            let (reps, noisy) = native_cell_reps(self.spec.client_threads(&workload), self.best_of);
            if noisy {
                eprintln!(
                    "note: {title} {label}: single hardware thread, best-of-{reps}, flagged noisy"
                );
            }
            let mut best: Option<RunRecord> = None;
            for _ in 0..reps {
                let outcome = backend.run(&workload);
                assert!(
                    outcome.counts_exactly(),
                    "{title} {label}: counting property violated"
                );
                let record =
                    RunRecord::from_outcome(label.as_str(), self.kind, &workload, seed, &outcome);
                if best.as_ref().is_none_or(|b| record.wall_ms < b.wall_ms) {
                    best = Some(record);
                }
            }
            let mut best = best.expect("reps >= 1");
            best.noisy = noisy;
            records.push(best);
        }
        Ok(GridReport {
            title: title.to_string(),
            base_seed: self.base_seed,
            threads: self.threads,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            records,
        })
    }
}
