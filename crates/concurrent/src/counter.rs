//! The shared-counter abstraction and the centralized baselines.

use std::fmt::Debug;
use std::sync::{Mutex, PoisonError};

use crate::sync::{AtomicU64, Ordering};

/// A shared fetch-and-increment counter: every call returns a distinct
/// value, and the set of returned values is exactly `0..n` after `n`
/// calls have completed.
///
/// Implementations differ in *contention* (how many threads hammer the
/// same cache line) and *linearizability* (whether real-time order is
/// respected): the centralized [`FetchAddCounter`] and [`LockCounter`]
/// are linearizable but serialize all threads on one location; counting
/// networks distribute the load and are linearizable only under the
/// timing conditions the paper quantifies.
pub trait Counter: Send + Sync + Debug {
    /// Takes the next value.
    fn next(&self) -> u64;
}

/// A counter a native driver can stress: the client loop of
/// `cnet_engine::run_counter` and of the engine's backends.
///
/// `thread` is a stable client id the implementation may use to spread
/// clients across network inputs; `spin_per_node` asks for an
/// artificial delay after each internal step, the real-threads
/// analogue of the paper's `W` (ignored by centralized counters, which
/// have no internal steps). The two widths label the records a driver
/// writes: a client enters on `thread % input_width()`, a value leaves
/// on `value % width()`. Both default to a centralized counter's 1.
pub trait StressCounter: Send + Sync {
    /// Takes the next value under stress parameters.
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64;

    /// Output width.
    fn width(&self) -> usize {
        1
    }

    /// Input width.
    fn input_width(&self) -> usize {
        1
    }
}

/// The trivial centralized counter: a single atomic `fetch_add`.
///
/// Linearizable (the hardware primitive is a linearization point) but
/// a sequential bottleneck: every thread contends on one cache line.
#[derive(Debug, Default)]
pub struct FetchAddCounter {
    value: AtomicU64,
}

impl FetchAddCounter {
    /// Creates a counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Counter for FetchAddCounter {
    fn next(&self) -> u64 {
        self.value.fetch_add(1, Ordering::Relaxed)
    }
}

/// A mutex-protected counter — the naive baseline.
#[derive(Debug, Default)]
pub struct LockCounter {
    value: Mutex<u64>,
}

impl LockCounter {
    /// Creates a counter starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Counter for LockCounter {
    fn next(&self) -> u64 {
        // one increment under the lock: a poisoned guard holds a valid
        // count
        let mut v = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        let out = *v;
        *v += 1;
        out
    }
}

impl StressCounter for FetchAddCounter {
    fn next_stressed(&self, _thread: usize, _spin: u64) -> u64 {
        self.next()
    }
}

impl StressCounter for LockCounter {
    fn next_stressed(&self, _thread: usize, _spin: u64) -> u64 {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(counter: Arc<dyn Counter>, cfg: crate::testcfg::StressParams) -> Vec<u64> {
        let mut handles = Vec::new();
        for _ in 0..cfg.threads {
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                (0..cfg.per_thread).map(|_| c.next()).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panic"))
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn fetch_add_counts_exactly() {
        let cfg = crate::testcfg::stress();
        let all = exercise(Arc::new(FetchAddCounter::new()), cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
    }

    #[test]
    fn lock_counter_counts_exactly() {
        let cfg = crate::testcfg::stress();
        let all = exercise(Arc::new(LockCounter::new()), cfg);
        assert_eq!(all, (0..cfg.total()).collect::<Vec<u64>>());
    }

    #[test]
    fn counters_are_object_safe() {
        let boxed: Box<dyn Counter> = Box::new(FetchAddCounter::new());
        assert_eq!(boxed.next(), 0);
        assert_eq!(boxed.next(), 1);
    }
}
