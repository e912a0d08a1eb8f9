//! Streaming non-linearizability telemetry with violation *magnitude*.
//!
//! `cnet_timing::linearizability::FinishedMax` answers Definition 2.4
//! for each completed operation: how far the largest value that
//! finished before it started lies above its own — the gap in counter
//! positions, 0 for a linearizable operation. Production telemetry
//! wants the distribution of those gaps, so this tracker is that table
//! plus a histogram of the non-zero answers.

use cnet_timing::linearizability::FinishedMax;

use crate::hist::LogHistogram;

/// Streaming violation counter + magnitude histogram.
///
/// Feed it `(start, end, value)` triples in completion order (see
/// [`FinishedMax`] for what any other order means) and
/// [`retire`](ViolationTracker::retire) what no future operation can
/// start before.
///
/// # Example
///
/// ```
/// use cnet_obs::ViolationTracker;
///
/// let mut t = ViolationTracker::new();
/// t.observe(0, 10, 5); // finishes at 10 holding value 5
/// t.observe(20, 30, 2); // starts after, sees a smaller value: violation
/// assert_eq!(t.count(), 1);
/// assert_eq!(t.magnitude().max(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ViolationTracker {
    finished: FinishedMax,
    magnitude: LogHistogram,
}

impl ViolationTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one completed operation. Returns the violation
    /// magnitude (`> 0` iff this operation is non-linearizable against
    /// the operations observed so far).
    pub fn observe(&mut self, start: u64, end: u64, value: u64) -> u64 {
        self.observe_run(start, end, value, 1)
    }

    /// Observes the `k` operations of one clock bracket: they share
    /// `(start, end)` and hold `base..base + k`. Returns the largest of
    /// their magnitudes, the first sibling's (0 for an empty run, which
    /// observes nothing).
    ///
    /// Siblings cannot witness one another (none ended before the
    /// shared `start`), so one witness value judges them all, sibling
    /// `j` has magnitude `witness - base - j`, and the table needs only
    /// the run's last, largest value. Only the violating prefix — empty
    /// on a linearizable run — is visited, so the histogram stays exact
    /// per operation.
    pub fn observe_run(&mut self, start: u64, end: u64, base: u64, k: u64) -> u64 {
        if k == 0 {
            return 0;
        }
        let worst = self.finished.before(start).saturating_sub(base);
        self.finished.observe(start, end, base + k - 1);
        for j in 0..worst.min(k) {
            self.magnitude.record(worst - j);
        }
        worst
    }

    /// Number of non-linearizable operations observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.magnitude.count()
    }

    /// Histogram of violation magnitudes (positions out of order).
    /// `sum()` is the total displacement; `max()` the worst single
    /// violation.
    #[must_use]
    pub fn magnitude(&self) -> &LogHistogram {
        &self.magnitude
    }

    /// Promises that every future [`observe`](Self::observe) has
    /// `start >= min_future_start` and drops the entries that promise
    /// makes indistinguishable ([`FinishedMax::retire`]). Counts and
    /// magnitudes are unchanged by retirement.
    pub fn retire(&mut self, min_future_start: u64) {
        self.finished.retire(min_future_start);
    }

    /// Operations currently held in memory (observed minus retired).
    #[must_use]
    pub fn retained(&self) -> usize {
        self.finished.retained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_histogram_holds_exactly_the_nonzero_magnitudes() {
        let mut t = ViolationTracker::new();
        assert_eq!(t.observe(0, 10, 7), 0);
        // starts at 10, the earlier op ended at 10: not strictly before
        assert_eq!(t.observe(10, 20, 0), 0);
        assert_eq!(t.count(), 0);
        assert_eq!(t.observe(21, 30, 2), 5);
        t.retire(31);
        assert_eq!(t.observe(31, 40, 4), 3);
        assert_eq!(t.count(), 2);
        assert_eq!(t.magnitude().sum(), 8);
        assert_eq!(t.magnitude().max(), 5);
        assert_eq!(t.retained(), 1);
    }
}
