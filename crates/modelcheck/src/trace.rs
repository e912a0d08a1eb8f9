//! Logical-clock operation tracing inside model executions.
//!
//! Reproduces the native measurement methodology of `cnet_engine`'s
//! client threads under the scheduler: every operation is bracketed by
//! two ticks of a shared virtual clock (a facade `fetch_add`, i.e.
//! itself a yield point), so "completely precedes" has a sound witness
//! in every explored interleaving. The resulting `cnet_timing::Operation`
//! records feed both the Definition 2.4 sweep
//! (`linearizability::count_nonlinearizable`) and the brute-force
//! oracle (`linearizability::check_exhaustive`).

use std::sync::{Mutex, PoisonError};

use cnet_timing::Operation;
use loom::sync::atomic::{AtomicU64, Ordering};

/// Records `(start, end, value)` triples against a virtual logical
/// clock. Construct one per model execution (inside the explored
/// closure) and share it across virtual threads with an `Arc`.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
    ops: Mutex<Vec<(u64, u64, u64)>>,
}

impl Recorder {
    /// Creates an empty recorder with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `op`, bracketing it with clock ticks, and records the
    /// value it returns.
    pub fn measure(&self, op: impl FnOnce() -> u64) -> u64 {
        let start = self.clock.fetch_add(1, Ordering::AcqRel);
        let value = op();
        let end = self.clock.fetch_add(1, Ordering::AcqRel);
        // uncontended within one scheduler step: no yield point between
        // lock and unlock, so the virtual scheduler cannot interleave
        // another recorder call here
        self.ops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((start, end, value));
        value
    }

    /// The operations recorded so far, token-numbered in recording
    /// order, with `counter = value mod width` (pass `width = 1` for
    /// centralized counters).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn operations(&self, width: usize) -> Vec<Operation> {
        assert!(width > 0, "width must be positive");
        self.ops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .enumerate()
            .map(|(token, &(start, end, value))| Operation {
                token,
                input: 0,
                start,
                end,
                counter: u32::try_from(value % width as u64)
                    .expect("a counter index below the width fits u32"),
                value,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_dfs, Config};
    use crate::sync::spawn;
    use cnet_timing::linearizability;
    use std::sync::Arc;

    #[test]
    fn recorder_brackets_operations_with_clock_ticks() {
        explore_dfs(&Config::default(), || {
            let rec = Arc::new(Recorder::new());
            let counter = Arc::new(AtomicU64::new(0));
            let (r2, c2) = (Arc::clone(&rec), Arc::clone(&counter));
            let h = spawn(move || {
                r2.measure(|| c2.fetch_add(1, Ordering::AcqRel));
            });
            rec.measure(|| counter.fetch_add(1, Ordering::AcqRel));
            h.join();
            let ops = rec.operations(1);
            assert_eq!(ops.len(), 2);
            for op in &ops {
                assert!(op.start < op.end, "bracketing must be ordered");
            }
            // an atomic fetch_add counter is linearizable in every
            // interleaving
            assert_eq!(linearizability::count_nonlinearizable(&ops), 0);
            assert!(linearizability::check_exhaustive(&ops).is_some());
        })
        .expect_ok();
    }
}
