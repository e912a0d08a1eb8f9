//! FIFO queue locks and lock-based balancers.
//!
//! The paper's Section 5 implementation protects every balancer with an
//! MCS queue lock. The defining behaviour of the MCS lock — FIFO
//! granting, so waiting tokens toggle in arrival order — is what the
//! study depends on. [`TicketLock`] reproduces exactly that behaviour
//! in safe Rust (MCS additionally spins on a *local* cache line, a
//! performance property that does not change any ordering); the
//! substitution is recorded in DESIGN.md.

use crate::sync::{spin_loop, yield_now, AtomicU64, Ordering};

/// A FIFO spin lock: tickets are granted in acquisition order.
///
/// # Example
///
/// ```
/// use cnet_concurrent::lock::TicketLock;
///
/// let lock = TicketLock::new();
/// let guard = lock.lock();
/// // …critical section…
/// drop(guard);
/// ```
#[derive(Debug, Default)]
pub struct TicketLock {
    next_ticket: AtomicU64,
    now_serving: AtomicU64,
}

/// Releases the [`TicketLock`] on drop.
#[derive(Debug)]
pub struct TicketGuard<'a> {
    lock: &'a TicketLock,
    ticket: u64,
}

impl TicketGuard<'_> {
    /// The ticket this acquisition drew. Tickets are granted in
    /// strictly increasing order, so the sequence of `ticket()` values
    /// observed inside critical sections is the FIFO grant order —
    /// which is what the model-checking tests assert.
    #[must_use]
    pub fn ticket(&self) -> u64 {
        self.ticket
    }
}

impl TicketLock {
    /// Creates an unlocked lock.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock, spinning until this caller's ticket is
    /// served. Granting is strictly FIFO.
    pub fn lock(&self) -> TicketGuard<'_> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        while self.now_serving.load(Ordering::Acquire) != ticket {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                yield_now();
            } else {
                spin_loop();
            }
        }
        TicketGuard { lock: self, ticket }
    }

    /// Whether anyone currently holds or waits for the lock.
    #[must_use]
    pub fn is_contended(&self) -> bool {
        self.next_ticket.load(Ordering::Relaxed) != self.now_serving.load(Ordering::Relaxed)
    }
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        self.lock.now_serving.fetch_add(1, Ordering::Release);
    }
}

/// A balancer implemented the way the paper's benchmark implements it:
/// a toggle in a critical section protected by a FIFO queue lock.
///
/// Functionally a `fetch_add` toggle over the fan-out, but serializes
/// tokens through a lock, which is what makes the injected `W`-cycle delays of the
/// Section 5 benchmark visible as `Tog` (queueing time) — and it is
/// the configuration the ablation benchmark compares against the
/// wait-free toggle.
#[derive(Debug, Default)]
pub struct LockBalancer {
    lock: TicketLock,
    // only ever accessed while `lock` is held; an atomic (rather than a
    // Cell) keeps the type Sync under `forbid(unsafe_code)`
    toggle: AtomicU64,
    fan_out: u64,
}

impl LockBalancer {
    /// Creates a lock-protected balancer with the given fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `fan_out` is zero.
    #[must_use]
    pub fn new(fan_out: usize) -> Self {
        assert!(fan_out > 0, "balancer fan-out must be positive");
        LockBalancer {
            lock: TicketLock::new(),
            toggle: AtomicU64::new(0),
            fan_out: fan_out as u64,
        }
    }

    /// Routes one token: acquire the FIFO lock, read and advance the
    /// toggle, release.
    pub fn traverse(&self) -> usize {
        self.traverse_probed(crate::obs::BalancerProbe::sink())
    }

    /// Like [`traverse`](Self::traverse), reporting to `probe` how long
    /// the token queued for the lock, how long it held it, and the
    /// toggle wait (queueing time — the real-threads `Tog`). With the
    /// disabled probe layer the timing arithmetic folds to nothing.
    pub fn traverse_probed(&self, probe: &crate::obs::BalancerProbe) -> usize {
        let enter = crate::obs::now();
        let guard = self.lock.lock();
        let acquired = crate::obs::now();
        let t = self.toggle.load(Ordering::Relaxed);
        self.toggle.store(t + 1, Ordering::Relaxed);
        drop(guard);
        let released = crate::obs::now();
        probe.record_lock(acquired - enter, released - acquired);
        probe.record_toggle(acquired - enter);
        (t % self.fan_out) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_provides_mutual_exclusion() {
        let cfg = crate::testcfg::stress().with_per_thread(2000);
        let lock = Arc::new(TicketLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let shared = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..cfg.threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            let shared = Arc::clone(&shared);
            let per_thread = cfg.per_thread;
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    let _g = lock.lock();
                    // non-atomic-style read-modify-write under the lock
                    let v = shared.load(Ordering::Relaxed);
                    shared.store(v + 1, Ordering::Relaxed);
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
        assert_eq!(
            shared.load(Ordering::Relaxed),
            cfg.total(),
            "no lost updates"
        );
        assert!(!lock.is_contended());
    }

    #[test]
    fn guards_report_their_tickets_in_order() {
        let lock = TicketLock::new();
        for expect in 0..3 {
            let g = lock.lock();
            assert_eq!(g.ticket(), expect);
        }
    }

    #[test]
    fn guard_releases_on_drop() {
        let lock = TicketLock::new();
        drop(lock.lock());
        drop(lock.lock()); // would deadlock if the first guard leaked
    }
}
