//! Runtime linearizability auditing on real threads.
//!
//! This reproduces the paper's measurement methodology natively: every
//! operation is bracketed by two ticks of a global logical clock
//! (atomic `fetch_add`), so "operation `O'` completely precedes `O`"
//! has a sound witness — `O'` observed its end tick before `O` drew its
//! start tick. The collected `(start, end, value)` records are fed to
//! the `cnet-timing` checker, yielding the fraction of
//! non-linearizable operations for a real multi-threaded run.
//!
//! Delay injection mirrors Section 5: a subset of threads spins a
//! configurable number of iterations after each balancer traversal,
//! skewing the effective `c2/c1` ratio exactly like the paper's
//! `W`-cycle waits.

use std::sync::atomic::{AtomicU64, Ordering};

use cnet_timing::{linearizability, Operation};

use crate::counter::{Counter, FetchAddCounter, LockCounter};
use crate::network::NetworkCounter;

/// A counter that can participate in a delayed stress run.
///
/// `thread` is a stable id the implementation may use to spread
/// threads across network inputs; `spin_per_node` asks for an
/// artificial delay after each internal step (ignored by centralized
/// counters, which have no internal steps).
pub trait StressCounter: Send + Sync {
    /// Takes the next value under stress parameters.
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64;

    /// Output width (1 for centralized counters); used to label
    /// operations with their counter index.
    fn width(&self) -> usize;
}

impl StressCounter for NetworkCounter {
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64 {
        self.next_on_with_delay(thread % self.input_width(), spin_per_node)
    }

    fn width(&self) -> usize {
        NetworkCounter::width(self)
    }
}

impl StressCounter for FetchAddCounter {
    fn next_stressed(&self, _thread: usize, _spin: u64) -> u64 {
        self.next()
    }

    fn width(&self) -> usize {
        1
    }
}

impl StressCounter for LockCounter {
    fn next_stressed(&self, _thread: usize, _spin: u64) -> u64 {
        self.next()
    }

    fn width(&self) -> usize {
        1
    }
}

/// Parameters of a stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressConfig {
    /// Worker threads to spawn.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// The first `delayed_threads` threads spin after each node — the
    /// real-threads analogue of the paper's delayed fraction `F`.
    pub delayed_threads: usize,
    /// Spin iterations per node for delayed threads (the analogue of
    /// `W`).
    pub spin_per_node: u64,
}

/// The outcome of a stress run.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// One record per completed operation (token ids are arbitrary).
    pub operations: Vec<Operation>,
}

impl AuditReport {
    /// Number of non-linearizable operations (Definition 2.4).
    #[must_use]
    pub fn nonlinearizable_count(&self) -> usize {
        linearizability::count_nonlinearizable(&self.operations)
    }

    /// Fraction of non-linearizable operations.
    #[must_use]
    pub fn nonlinearizable_ratio(&self) -> f64 {
        linearizability::nonlinearizable_ratio(&self.operations)
    }

    /// Checks the counting property: after the run, the multiset of
    /// returned values must be exactly `0..n`.
    #[must_use]
    pub fn counts_exactly(&self) -> bool {
        let mut values: Vec<u64> = self.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        values.iter().enumerate().all(|(i, &v)| v == i as u64)
    }
}

/// Runs `config.threads` threads against `counter`, timestamping every
/// operation with a global logical clock, and returns the audit trace.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn run_stress<C: StressCounter + ?Sized>(counter: &C, config: StressConfig) -> AuditReport {
    let clock = AtomicU64::new(0);
    let width = counter.width();
    let mut operations = Vec::with_capacity(config.threads * config.ops_per_thread);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..config.threads {
            let clock = &clock;
            let spin = if t < config.delayed_threads {
                config.spin_per_node
            } else {
                0
            };
            handles.push(scope.spawn(move || {
                let mut ops = Vec::with_capacity(config.ops_per_thread);
                for _ in 0..config.ops_per_thread {
                    let start = clock.fetch_add(1, Ordering::AcqRel);
                    let value = counter.next_stressed(t, spin);
                    let end = clock.fetch_add(1, Ordering::AcqRel);
                    ops.push((start, end, value));
                }
                ops
            }));
        }
        for h in handles {
            for (start, end, value) in h.join().expect("worker thread panicked") {
                let token = operations.len();
                operations.push(Operation {
                    token,
                    input: 0,
                    start,
                    end,
                    counter: u32::try_from(value % width as u64)
                        .expect("a counter index below the width fits u32"),
                    value,
                });
            }
        }
    });
    AuditReport { operations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    fn cfg(threads: usize, ops: usize) -> StressConfig {
        StressConfig {
            threads,
            ops_per_thread: ops,
            delayed_threads: 0,
            spin_per_node: 0,
        }
    }

    #[test]
    fn fetch_add_audit_is_clean_and_exact() {
        let c = FetchAddCounter::new();
        let report = run_stress(&c, cfg(4, 500));
        assert_eq!(report.operations.len(), 2000);
        assert!(report.counts_exactly());
        // a single atomic instruction is linearizable: the clock
        // bracketing can never catch it out of order
        assert_eq!(report.nonlinearizable_count(), 0);
    }

    #[test]
    fn lock_counter_audit_is_clean() {
        let c = LockCounter::new();
        let report = run_stress(&c, cfg(4, 500));
        assert!(report.counts_exactly());
        assert_eq!(report.nonlinearizable_count(), 0);
    }

    #[test]
    fn network_audit_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let c = NetworkCounter::new(&net);
        let report = run_stress(&c, cfg(4, 500));
        assert_eq!(report.operations.len(), 2000);
        assert!(report.counts_exactly());
    }

    #[test]
    fn tree_audit_counts_exactly_under_delays() {
        let tree = constructions::counting_tree(8).unwrap();
        let kind = crate::network::BalancerKind::Diffracting { slots: 8, spin: 64 };
        let c = NetworkCounter::with_kind(&tree, kind);
        let report = run_stress(
            &c,
            StressConfig {
                threads: 4,
                ops_per_thread: 400,
                delayed_threads: 2,
                spin_per_node: 500,
            },
        );
        assert!(report.counts_exactly());
        // violations may or may not occur on a real machine; the ratio
        // is what the example binaries report
        let _ = report.nonlinearizable_ratio();
    }

    #[test]
    fn empty_run_is_clean() {
        let c = FetchAddCounter::new();
        let report = run_stress(&c, cfg(0, 0));
        assert!(report.operations.is_empty());
        assert!(report.counts_exactly());
        assert_eq!(report.nonlinearizable_ratio(), 0.0);
    }
}
