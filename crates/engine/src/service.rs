//! The open-ended driver for long-running counter services.
//!
//! Every fixed-op backend in this crate runs a workload to completion
//! and exits; a *service* (`cnet serve`) has no op quota and no run
//! end. What it still needs from the engine is the audit methodology:
//! a global logical clock bracketing every operation so "completely
//! precedes" has a sound witness, exactly as [`crate::driver`] does
//! with its `fetch_add` ticks — plus two things a batch run never
//! needed:
//!
//! 1. **A witness read at the start.** Every tick is handed out under
//!    one lock, so when [`begin`] draws an operation's start tick,
//!    every completion already recorded ended before it, and none
//!    recorded later did. The Definition 2.4 witness — the largest
//!    value that finished before the operation started — is therefore
//!    one running maximum ([`StartWitness`]), read in [`begin`] and
//!    carried by the [`Bracket`] it returns. An online evaluator needs
//!    no table and nothing to retire.
//! 2. **A completion critical section.** [`complete`] assigns the end
//!    tick, folds the bracket's last drawn value into that maximum,
//!    *and* runs the caller's callback under the same lock, so whatever
//!    the callback records is recorded in end-tick order — the
//!    integration suites replay recorded histories offline to confirm
//!    the online counts match exactly.
//!
//! The counter traversal itself runs between [`begin`] and
//! [`complete`], unlocked — only the tick assignment is serialized,
//! which is the same total order an `AcqRel` `fetch_add` would give.
//!
//! [`begin`]: ServiceDriver::begin
//! [`complete`]: ServiceDriver::complete

use std::sync::Mutex;

use cnet_timing::linearizability::StartWitness;

/// Logical clock + start witness for an open-ended run.
#[derive(Debug, Default)]
pub struct ServiceDriver {
    inner: Mutex<ServiceState>,
}

#[derive(Debug, Default)]
struct ServiceState {
    /// Next logical tick (every begin/complete consumes one).
    clock: u64,
    /// The values of every completed bracket, as Definition 2.4 needs
    /// them.
    finished: StartWitness,
}

/// One operation between [`ServiceDriver::begin`] and
/// [`ServiceDriver::complete`]: its start tick, the witness read with
/// it, and what it drew. Not `Clone`: [`ServiceDriver::complete`]
/// consumes it, so an operation completes exactly once.
#[derive(Debug)]
pub struct Bracket {
    start: u64,
    witness: u64,
    /// The largest value drawn, `None` while nothing is.
    last: Option<u64>,
}

impl Bracket {
    /// The start tick.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Records that the operation drew `base..base + k` (nothing for
    /// `k = 0`), so [`ServiceDriver::complete`] can fold its last value
    /// into the witness of every later start.
    pub fn drew(&mut self, base: u64, k: u64) {
        if k > 0 {
            self.last = Some(base + k - 1);
        }
    }
}

impl ServiceDriver {
    /// A fresh driver with the clock at zero and nothing completed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an operation: assigns its start tick and reads its
    /// witness, the largest value any operation completed so far has
    /// drawn (0 for none). The caller traverses the counter (unlocked),
    /// records what it drew with [`Bracket::drew`], then hands the
    /// bracket to [`complete`].
    ///
    /// [`complete`]: ServiceDriver::complete
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a prior holder panicked).
    pub fn begin(&self) -> Bracket {
        let mut s = self.inner.lock().expect("service clock poisoned");
        let start = s.clock;
        s.clock += 1;
        Bracket {
            start,
            witness: s.finished.witness(start),
            last: None,
        }
    }

    /// Closes `bracket`: assigns the end tick, folds the bracket's last
    /// drawn value into the witness of later starts (a bracket that
    /// drew nothing leaves it alone), and runs `f(end, witness)` before
    /// any other operation can begin or complete. Because `f` runs
    /// under the clock lock, callbacks across threads execute in strict
    /// end-tick order.
    ///
    /// The bracket is consumed, so it cannot complete twice:
    ///
    /// ```compile_fail,E0382
    /// let driver = cnet_engine::ServiceDriver::new();
    /// let bracket = driver.begin();
    /// driver.complete(bracket, |end, _| end);
    /// driver.complete(bracket, |end, _| end); // use of moved value
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn complete<R>(&self, bracket: Bracket, f: impl FnOnce(u64, u64) -> R) -> R {
        let mut s = self.inner.lock().expect("service clock poisoned");
        let end = s.clock;
        s.clock += 1;
        if let Some(last) = bracket.last {
            s.finished.record(end, last);
        }
        f(end, bracket.witness)
    }

    /// Current logical-clock reading (ticks consumed so far).
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.inner.lock().expect("service clock poisoned").clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing_and_bracket_ops() {
        let d = ServiceDriver::new();
        let mut b1 = d.begin();
        let mut b2 = d.begin();
        let (s1, s2) = (b1.start(), b2.start());
        assert!(s2 > s1);
        b2.drew(5, 3);
        let (e2, w2) = d.complete(b2, |end, witness| (end, witness));
        assert!(e2 > s2);
        // nothing had finished when either started
        assert_eq!(w2, 0);
        b1.drew(0, 1);
        let (e1, w1) = d.complete(b1, |end, witness| (end, witness));
        assert!(e1 > e2);
        assert_eq!(w1, 0);
        // a later start sees the largest value drawn, 7
        assert_eq!(d.complete(d.begin(), |_, witness| witness), 7);
        // a bracket that drew nothing leaves the maximum alone
        assert_eq!(d.complete(d.begin(), |_, witness| witness), 7);
        assert_eq!(d.clock(), 8);
    }

    /// Eight threads race 4 000 brackets, each drawing a distinct value:
    /// callbacks run in end-tick order, and every bracket's witness is
    /// the largest value among the brackets that ended before it
    /// started, recomputed offline.
    #[test]
    fn witnesses_are_exact_under_contention() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const BRACKETS: u64 = 4_000;
        let d = ServiceDriver::new();
        let feed = Mutex::new(Vec::new());
        let next_value = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| loop {
                    let value = next_value.fetch_add(1, Ordering::Relaxed);
                    if value >= BRACKETS {
                        break;
                    }
                    let mut bracket = d.begin();
                    let start = bracket.start();
                    std::hint::spin_loop(); // the "traversal"
                    bracket.drew(value, 1);
                    d.complete(bracket, |end, witness| {
                        feed.lock().unwrap().push((start, end, value, witness));
                    });
                });
            }
        });
        let feed = feed.into_inner().unwrap();
        assert_eq!(feed.len(), BRACKETS as usize);
        for w in feed.windows(2) {
            assert!(w[0].1 < w[1].1, "ends out of order: {w:?}");
        }
        for &(start, _, value, witness) in &feed {
            let expected = feed
                .iter()
                .filter(|b| b.1 < start)
                .map(|b| b.2)
                .max()
                .unwrap_or(0);
            assert_eq!(witness, expected, "bracket drawing {value}");
        }
    }
}
