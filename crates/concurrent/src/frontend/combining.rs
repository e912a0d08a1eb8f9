//! Flat combining over a compiled network: one traversal serves `k`
//! requests.
//!
//! The protocol is the publication-list variant of flat combining
//! (Hendler, Incze, Shavit, Tzafrir) specialized to a counter, where
//! combining is *exact*: a batch of `k` fetch-and-increments is one
//! network traversal plus a single width-`k` interval reservation
//! ([`NetworkCounter::next_batch_on`]), so the combined operations
//! receive `k` consecutive values and the value space stays exactly
//! `0..n`.
//!
//! Protocol, per operation:
//!
//! 1. **Publish** — CAS the home slot (`thread % slots`) from `EMPTY`
//!    to `PENDING`. A lost CAS (the slot belongs to another in-flight
//!    request) degrades to a solo traversal — still through the batch
//!    allocator, with `k = 1`.
//! 2. **Combine or wait** — spin up to `spin` rounds: if the home slot
//!    turned `DONE`, take the mailbox value and reset the slot; if the
//!    combiner lock is free, take it and *become* the combiner: claim
//!    up to `max_batch` `PENDING` slots (`PENDING → CLAIMED`), perform
//!    one batch traversal, fan values out through the mailboxes
//!    (`value` store, then `CLAIMED → DONE`), reset the own slot, and
//!    release the lock.
//! 3. **Withdraw** — after `spin` rounds, CAS `PENDING → EMPTY` and go
//!    solo. If the CAS fails the request was already claimed, and the
//!    combiner holding it is obligated to deliver: wait for `DONE`
//!    unconditionally (bounded by the combiner's own completion, which
//!    needs no cooperation from this thread).
//!
//! Every shared location goes through [`crate::sync`], so the whole
//! handoff — publication CAS, claim CAS, mailbox fan-out — is explored
//! by the bounded-DFS regression in the modelcheck suite: across tens
//! of thousands of schedules covering both resolutions of the race
//! (combined delivery and solo withdrawal), no interleaving loses or
//! double-delivers a value.

use crate::sync::{spin_loop, yield_now, AtomicU64, AtomicUsize, Ordering};

use cnet_topology::Topology;

use crate::counter::{Counter, StressCounter};
use crate::network::{BalancerKind, NetworkCounter};

/// Publication-slot states (see the module docs for the protocol).
const EMPTY: u64 = 0;
const PENDING: u64 = 1;
const CLAIMED: u64 = 2;
const DONE: u64 = 3;

/// One publication slot: the request state machine plus the mailbox
/// the combiner delivers through. Padded to a cache line — slots are
/// the hottest locations in the frontend.
#[repr(align(64))]
#[derive(Debug)]
struct PubSlot {
    state: AtomicU64,
    value: AtomicU64,
}

/// Tuning for a [`CombiningCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombiningConfig {
    /// Publication slots (home slot = `thread % slots`). Size it near
    /// the expected thread count; colliding threads degrade to solo.
    pub slots: usize,
    /// Most requests one combiner claims per traversal (its own
    /// included).
    pub max_batch: u64,
    /// Combine-or-wait rounds before a pending request withdraws.
    pub spin: u32,
}

impl Default for CombiningConfig {
    fn default() -> Self {
        CombiningConfig {
            slots: 8,
            max_batch: 8,
            spin: 64,
        }
    }
}

/// A combining/batching frontend over a [`NetworkCounter`].
///
/// All traversals — combined and solo — go through the batch interval
/// allocator, so values are handed out exactly once with no gaps; see
/// [`NetworkCounter::next_batch_on`] for the allocator contract.
#[derive(Debug)]
pub struct CombiningCounter {
    net: NetworkCounter,
    slots: Box<[PubSlot]>,
    /// The combiner lock: 0 free, 1 held. A plain spin lock is enough —
    /// losers keep checking their mailbox rather than queueing.
    lock: AtomicU64,
    next_input: AtomicUsize,
    max_batch: u64,
    spin: u32,
    probe: crate::obs::FrontendProbe,
}

impl CombiningCounter {
    /// Builds the frontend over `topology` with the chosen balancer
    /// implementation.
    ///
    /// # Panics
    ///
    /// Panics if `config.slots == 0` or `config.max_batch == 0`.
    #[must_use]
    pub fn with_kind(topology: &Topology, kind: BalancerKind, config: CombiningConfig) -> Self {
        assert!(config.slots > 0, "at least one publication slot");
        assert!(config.max_batch > 0, "a combiner claims at least itself");
        CombiningCounter {
            net: NetworkCounter::with_kind(topology, kind),
            slots: (0..config.slots)
                .map(|_| PubSlot {
                    state: AtomicU64::new(EMPTY),
                    value: AtomicU64::new(0),
                })
                .collect(),
            lock: AtomicU64::new(0),
            next_input: AtomicUsize::new(0),
            max_batch: config.max_batch,
            spin: config.spin,
            probe: crate::obs::FrontendProbe::new(0),
        }
    }

    /// Builds the frontend with wait-free balancers and default tuning.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        Self::with_kind(topology, BalancerKind::WaitFree, CombiningConfig::default())
    }

    /// The next network input, round-robin across traversals (solo and
    /// combined alike), so the underlying network sees balanced entry
    /// pressure.
    fn pick_input(&self) -> usize {
        self.next_input.fetch_add(1, Ordering::Relaxed) % self.net.input_width()
    }

    /// One solo traversal through the batch allocator (`k = 1`).
    fn solo(&self, spin_per_node: u64) -> u64 {
        self.probe.record_solo();
        self.net.next_batch_on(self.pick_input(), 1, spin_per_node)
    }

    /// Becomes the combiner: claims pending requests, runs one batch
    /// traversal, fans values out. Caller holds the lock and owns a
    /// `PENDING` slot at `home`. Returns the caller's value.
    fn combine(&self, home: usize, spin_per_node: u64) -> u64 {
        // claim up to max_batch - 1 other pending requests, scanning
        // cyclically from the home slot; the own request is claimed
        // implicitly (no other combiner can run while we hold the lock)
        let mut claimed: Vec<usize> = Vec::with_capacity(self.max_batch as usize);
        for off in 1..self.slots.len() {
            if claimed.len() as u64 + 1 >= self.max_batch {
                break;
            }
            let s = (home + off) % self.slots.len();
            if self.slots[s]
                .state
                .compare_exchange(PENDING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                claimed.push(s);
            }
        }
        let k = claimed.len() as u64 + 1;
        let base = self.net.next_batch_on(self.pick_input(), k, spin_per_node);
        self.probe.record_batch(k);
        // fan out: mailbox value first, then the DONE flag that
        // publishes it — all before the lock is released, so a slot a
        // combiner saw CLAIMED is always DONE by the next lock holder
        for (j, &s) in claimed.iter().enumerate() {
            self.slots[s]
                .value
                .store(base + 1 + j as u64, Ordering::Release);
            self.slots[s].state.store(DONE, Ordering::Release);
        }
        self.slots[home].state.store(EMPTY, Ordering::Release);
        self.lock.store(0, Ordering::Release);
        base
    }

    /// Takes the next value, spinning `spin_per_node` iterations per
    /// network hop (the paper's `W` injection; applies to whichever
    /// traversal ends up carrying this request).
    pub fn next_for(&self, thread: usize, spin_per_node: u64) -> u64 {
        let home = thread % self.slots.len();
        let slot = &self.slots[home];
        // 1. publish
        if slot
            .state
            .compare_exchange(EMPTY, PENDING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return self.solo(spin_per_node);
        }
        // 2. combine or wait
        let mut rounds: u32 = 0;
        loop {
            if slot.state.load(Ordering::Acquire) == DONE {
                let value = slot.value.load(Ordering::Acquire);
                slot.state.store(EMPTY, Ordering::Release);
                return value;
            }
            if self
                .lock
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // holding the lock, the own slot is either still
                // PENDING or a previous combiner finished it (DONE) —
                // CLAIMED is impossible, combiners deliver before
                // unlocking
                if slot.state.load(Ordering::Acquire) == DONE {
                    self.lock.store(0, Ordering::Release);
                    let value = slot.value.load(Ordering::Acquire);
                    slot.state.store(EMPTY, Ordering::Release);
                    return value;
                }
                return self.combine(home, spin_per_node);
            }
            rounds += 1;
            if rounds > self.spin {
                break;
            }
            yield_now();
        }
        // 3. withdraw — or, if already claimed, the combiner owes us
        if slot
            .state
            .compare_exchange(PENDING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return self.solo(spin_per_node);
        }
        loop {
            if slot.state.load(Ordering::Acquire) == DONE {
                let value = slot.value.load(Ordering::Acquire);
                slot.state.store(EMPTY, Ordering::Release);
                return value;
            }
            spin_loop();
        }
    }

    /// The underlying network's input width.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.net.input_width()
    }

    /// The underlying network's output width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.net.width()
    }

    /// Per-counter totals of the underlying network. Sums to the
    /// number of values handed out; a `(max_batch - 1)`-relaxed step
    /// at quiescence (a k-batch lands on one counter).
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.net.output_counts()
    }

    /// The underlying network's contention metrics (`None` without the
    /// `obs` feature).
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.net.metrics_snapshot(wait_cycles)
    }

    /// Frontend telemetry: batch-size histogram and solo count
    /// (`None` without the `obs` feature).
    #[must_use]
    pub fn frontend_metrics(&self) -> Option<cnet_obs::FrontendMetrics> {
        self.probe.snapshot()
    }
}

impl Counter for CombiningCounter {
    fn next(&self) -> u64 {
        // a caller without a thread identity scatters over the slots
        // via the shared ticket — contention on the slot CAS degrades
        // to solo, never to incorrectness
        let t = self.next_input.fetch_add(1, Ordering::Relaxed);
        self.next_for(t, 0)
    }
}

impl StressCounter for CombiningCounter {
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64 {
        self.next_for(thread, spin_per_node)
    }

    fn width(&self) -> usize {
        CombiningCounter::width(self)
    }

    fn input_width(&self) -> usize {
        CombiningCounter::input_width(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;
    use std::sync::Arc;

    #[test]
    fn sequential_use_counts_in_order() {
        let net = constructions::bitonic(4).unwrap();
        let c = CombiningCounter::new(&net);
        for expect in 0..50 {
            assert_eq!(c.next(), expect);
        }
        assert_eq!(c.output_counts().iter().sum::<u64>(), 50);
    }

    #[test]
    fn tiny_slot_count_still_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let cfg = CombiningConfig {
            slots: 2,
            max_batch: 2,
            spin: 1,
        };
        let c = Arc::new(CombiningCounter::with_kind(
            &net,
            BalancerKind::WaitFree,
            cfg,
        ));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| c.next_for(t, 0)).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panic"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..2000).collect::<Vec<u64>>());
        assert_eq!(c.output_counts().iter().sum::<u64>(), 2000);
    }

    #[test]
    fn contended_threads_hand_out_each_value_once() {
        let net = constructions::bitonic(8).unwrap();
        let c = Arc::new(CombiningCounter::new(&net));
        let threads = 8;
        let per_thread = 1000;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..per_thread)
                    .map(|_| c.next_for(t, 0))
                    .collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panic"))
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..(threads * per_thread) as u64).collect::<Vec<u64>>()
        );
        let counts = c.output_counts();
        assert_eq!(counts.iter().sum::<u64>(), (threads * per_thread) as u64);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn probe_accounts_for_every_operation() {
        let net = constructions::bitonic(4).unwrap();
        let c = Arc::new(CombiningCounter::new(&net));
        let threads = 4;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    let _ = c.next_for(t, 0);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
        let m = c.frontend_metrics().expect("obs build snapshots");
        // every operation is either in a batch or solo — none lost
        assert_eq!(m.batch_hist.sum() + m.solo_ops, threads as u64 * per_thread);
        assert!(m.avg_batch() >= 1.0);
    }
}
