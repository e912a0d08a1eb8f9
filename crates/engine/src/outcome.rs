//! The unified result of one backend run.

use crate::RunStats;

/// What every backend hands back: the full measurement of one run.
///
/// `stats` carries the timestamped operation trace (simulated cycles
/// for the simulator, logical-clock ticks for the native backends),
/// the per-counter totals, the contention counters behind the paper's
/// `Tog`, and the optional `cnet-obs` metrics snapshot.
/// `wall_ms` is host wall-clock around the run itself — workload
/// execution plus metric recording, with snapshot export outside the
/// window, matching what the perf baselines have always measured.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The producing backend's [`crate::Backend::name`].
    pub backend: &'static str,
    /// The run's measurements, uniform across substrates.
    pub stats: RunStats,
    /// Host wall-clock spent executing, in milliseconds.
    pub wall_ms: f64,
    /// Frontend telemetry (batch histogram, shard routing) for the
    /// elastic frontends on client threads (`shm-batch`, `shm-shard`).
    /// `None` on every other family and on probe-free (`obs`-less)
    /// builds.
    pub frontend: Option<cnet_obs::FrontendMetrics>,
    /// Open-loop telemetry — per-window sojourn latency against the
    /// seeded arrival schedule, the saturation atlas's raw material.
    /// Only [`crate::AsyncBackend`] records per-op completion instants
    /// (host nanoseconds), and only on open-loop workloads; `None`
    /// everywhere else.
    pub open_loop: Option<cnet_obs::OpenLoopMetrics>,
}

impl RunOutcome {
    /// Checks the counting property: the multiset of returned values
    /// is exactly `0..n`. Every correct counting network satisfies
    /// this regardless of timing, so it holds on all backends.
    #[must_use]
    pub fn counts_exactly(&self) -> bool {
        let n = self.stats.operations.len();
        let mut seen = vec![0u64; n.div_ceil(64)];
        // n values, each inside 0..n and none drawn twice: none missing
        self.stats.operations.iter().all(|o| {
            let Some(v) = usize::try_from(o.value).ok().filter(|&v| v < n) else {
                return false;
            };
            let (word, bit) = (&mut seen[v / 64], 1u64 << (v % 64));
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        })
    }

    /// Whether the final per-counter totals have the step property.
    #[must_use]
    pub fn has_step_property(&self) -> bool {
        self.stats.output_counts.is_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_timing::Operation;
    use cnet_topology::OutputCounts;

    fn outcome(values: &[u64]) -> RunOutcome {
        let operations: Vec<Operation> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| Operation {
                token: i,
                input: 0,
                start: 2 * i as u64,
                end: 2 * i as u64 + 1,
                counter: 0,
                value,
            })
            .collect();
        let n = operations.len();
        RunOutcome {
            backend: "test",
            stats: RunStats {
                operations,
                completed_by: crate::ProcessMap::per_op(vec![0; n]),
                output_counts: OutputCounts::zeros(2),
                sim_time: 2 * n as u64,
                node_visits: 0,
                node_wait_total: 0,
                sim: None,
                nonlinearizable: 0,
                metrics: None,
            },
            wall_ms: 0.0,
            frontend: None,
            open_loop: None,
        }
    }

    #[test]
    fn counts_exactly_accepts_permutations() {
        assert!(outcome(&[2, 0, 1]).counts_exactly());
        assert!(outcome(&[]).counts_exactly());
    }

    #[test]
    fn counts_exactly_rejects_gaps_and_duplicates() {
        assert!(!outcome(&[0, 2]).counts_exactly());
        assert!(!outcome(&[0, 0, 1]).counts_exactly());
        assert!(!outcome(&[1, 0, u64::MAX]).counts_exactly());
        let mut wide: Vec<u64> = (0..130).collect();
        assert!(outcome(&wide).counts_exactly());
        wide[129] = 64;
        assert!(!outcome(&wide).counts_exactly());
    }
}
