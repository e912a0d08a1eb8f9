//! Timestamp generation over a shared counter.
//!
//! Concurrent timestamping is the paper's first-listed application of
//! linearizable counting. A [`TimestampOracle`] wraps any counter and
//! hands out unique, monotone-per-thread timestamps; the
//! [`causality_audit`] measures *causality reversals*: pairs of draws
//! where one thread finished drawing `t1` before another thread began
//! drawing `t2`, yet `t1 > t2`. With a linearizable counter reversals
//! are impossible; with a counting network they are exactly the
//! non-linearizable operations of Definition 2.4.

use std::sync::atomic::{AtomicU64, Ordering};

use cnet_concurrent::counter::Counter;
use cnet_timing::{linearizability, Operation};

/// A timestamp drawn from an oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

/// Unique-timestamp source over any [`Counter`].
#[derive(Debug)]
pub struct TimestampOracle<C: Counter> {
    counter: C,
}

impl<C: Counter> TimestampOracle<C> {
    /// Wraps a fresh counter (starting at zero).
    #[must_use]
    pub fn new(counter: C) -> Self {
        TimestampOracle { counter }
    }

    /// Draws the next timestamp. Uniqueness is unconditional;
    /// real-time ordering holds up to the counter's linearizability.
    pub fn draw(&self) -> Timestamp {
        Timestamp(self.counter.next())
    }

    /// Consumes the oracle, returning the underlying counter.
    pub fn into_inner(self) -> C {
        self.counter
    }
}

/// The outcome of a [`causality_audit`].
#[derive(Debug, Clone)]
pub struct CausalityReport {
    /// One record per draw: interval in logical-clock ticks, value =
    /// the timestamp.
    pub draws: Vec<Operation>,
}

impl CausalityReport {
    /// Draw pairs ordered against real time (reversals), counted per
    /// victim draw.
    #[must_use]
    pub fn reversals(&self) -> usize {
        linearizability::count_nonlinearizable(&self.draws)
    }

    /// Reversals as a fraction of all draws.
    #[must_use]
    pub fn reversal_ratio(&self) -> f64 {
        linearizability::nonlinearizable_ratio(&self.draws)
    }

    /// Whether every timestamp was unique (always true for correct
    /// counters).
    #[must_use]
    pub fn all_unique(&self) -> bool {
        let mut values: Vec<u64> = self.draws.iter().map(|o| o.value).collect();
        values.sort_unstable();
        values.windows(2).all(|w| w[0] != w[1])
    }
}

/// Runs `threads` threads drawing `draws_per_thread` timestamps each,
/// bracketing every draw with a global logical clock, and reports the
/// causality reversals.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn causality_audit<C: Counter>(
    oracle: &TimestampOracle<C>,
    threads: usize,
    draws_per_thread: usize,
) -> CausalityReport {
    let clock = AtomicU64::new(0);
    let mut draws = Vec::with_capacity(threads * draws_per_thread);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let clock = &clock;
            let oracle = &oracle;
            handles.push(scope.spawn(move || {
                let mut local = Vec::with_capacity(draws_per_thread);
                for _ in 0..draws_per_thread {
                    let start = clock.fetch_add(1, Ordering::AcqRel);
                    let ts = oracle.draw();
                    let end = clock.fetch_add(1, Ordering::AcqRel);
                    local.push((t, start, end, ts.0));
                }
                local
            }));
        }
        for h in handles {
            for (input, start, end, value) in h.join().expect("audit thread") {
                let token = draws.len();
                draws.push(Operation {
                    token,
                    input: u32::try_from(input).expect("a thread index fits u32"),
                    start,
                    end,
                    counter: 0,
                    value,
                });
            }
        }
    });
    CausalityReport { draws }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_concurrent::counter::FetchAddCounter;
    use cnet_concurrent::network::NetworkCounter;
    use cnet_topology::constructions;

    #[test]
    fn draws_are_unique_and_monotone_single_thread() {
        let oracle = TimestampOracle::new(FetchAddCounter::new());
        let a = oracle.draw();
        let b = oracle.draw();
        assert!(a < b);
        assert_eq!(a, Timestamp(0));
    }

    #[test]
    fn linearizable_oracle_has_no_reversals() {
        let oracle = TimestampOracle::new(FetchAddCounter::new());
        let report = causality_audit(&oracle, 4, 1000);
        assert_eq!(report.draws.len(), 4000);
        assert!(report.all_unique());
        assert_eq!(report.reversals(), 0);
    }

    #[test]
    fn network_oracle_is_unique_and_reports_a_ratio() {
        let net = constructions::bitonic(4).unwrap();
        let oracle = TimestampOracle::new(NetworkCounter::new(&net));
        let report = causality_audit(&oracle, 4, 1000);
        assert!(report.all_unique());
        // reversals are machine-dependent; the ratio is just defined
        assert!(report.reversal_ratio() >= 0.0);
    }

    #[test]
    fn into_inner_returns_the_counter() {
        let oracle = TimestampOracle::new(FetchAddCounter::new());
        let _ = oracle.draw();
        let counter = oracle.into_inner();
        assert_eq!(counter.next(), 1);
    }
}
