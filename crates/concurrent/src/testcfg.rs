//! Shared configuration for the workspace's stress tests.
//!
//! Every multi-threaded test draws its thread count and per-thread
//! operation count from one place (overridable via
//! `CNET_STRESS_THREADS` / `CNET_STRESS_OPS`). A test that feeds a
//! [`seed`] into its run wraps its body in [`with_seed_report`], so a
//! failure prints the seed (settable via `CNET_TEST_SEED`).
//!
//! What a seed reproduces is the run's *inputs*: in an engine run, the
//! arrival schedule and the per-operation `W` draws. It does not
//! reproduce the interleaving of OS threads, which is the scheduler's;
//! a failure that depends on one interleaving needs the modelcheck
//! suite's replayable schedules instead. A test whose body reads no
//! seed has nothing to report and runs unwrapped. Public so
//! integration tests can use it too; not part of the semantic API.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread and operation counts for one stress test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressParams {
    /// Worker threads to spawn.
    pub threads: usize,
    /// Operations per worker.
    pub per_thread: usize,
}

impl StressParams {
    /// Total operations across all workers.
    #[must_use]
    pub fn total(&self) -> u64 {
        (self.threads * self.per_thread) as u64
    }

    /// A copy with a different per-thread count (for tests that need a
    /// specific total, e.g. "not a multiple of the width").
    #[must_use]
    pub fn with_per_thread(self, per_thread: usize) -> Self {
        StressParams { per_thread, ..self }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The crate-wide stress parameters: 4 threads × 500 ops unless
/// overridden by `CNET_STRESS_THREADS` / `CNET_STRESS_OPS`.
#[must_use]
pub fn stress() -> StressParams {
    StressParams {
        threads: env_usize("CNET_STRESS_THREADS", 4),
        per_thread: env_usize("CNET_STRESS_OPS", 500),
    }
}

/// The seed for this test run: `CNET_TEST_SEED` if set, otherwise
/// fresh entropy (distinct per call). Always odd.
#[must_use]
pub fn seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    if let Some(fixed) = std::env::var("CNET_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return fixed;
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    (u64::from(nanos) ^ n.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15) | 1
}

/// Runs `f(seed)`; if it panics, prints
/// `reproduce with CNET_TEST_SEED=<seed>` on the way out so the
/// failing run's inputs are recoverable from the test log.
pub fn with_seed_report<R>(seed: u64, f: impl FnOnce(u64) -> R) -> R {
    struct Guard(u64);
    impl Drop for Guard {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "stress test failed: reproduce with CNET_TEST_SEED={}",
                    self.0
                );
            }
        }
    }
    let guard = Guard(seed);
    let out = f(guard.0);
    drop(guard);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = stress();
        assert!(p.threads >= 1);
        assert!(p.per_thread >= 1);
        assert_eq!(p.total(), (p.threads * p.per_thread) as u64);
        assert_eq!(p.with_per_thread(7).per_thread, 7);
    }

    #[test]
    fn seeds_are_odd_and_distinct() {
        // distinctness only holds without a CNET_TEST_SEED override
        let (a, b) = (seed(), seed());
        assert_eq!(a % 2, 1);
        if std::env::var("CNET_TEST_SEED").is_err() {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn with_seed_report_passes_value_through() {
        assert_eq!(with_seed_report(41, |s| s + 1), 42);
    }
}
