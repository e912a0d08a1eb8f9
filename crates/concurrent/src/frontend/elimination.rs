//! An elimination layer at the message-passing ingress: matched
//! operations enter the actor pipeline as one token.
//!
//! In the plain [`MpNetwork`] every operation walks the full balancer
//! pipeline as its own message. Here an arriving operation first
//! visits a small exchange array in shared memory:
//!
//! * finds an advertised partner → *match*: take the advert and inject
//!   one **pair token** ([`MpNetwork::count_pair_on`]) carrying both
//!   reply channels; the counter thread answers both with consecutive
//!   values. Two operations, one pipeline walk — the waiter's token
//!   never enters the network at all.
//! * finds no partner → advertise `(op id, reply sender)` in the slot,
//!   back off `spin` rounds, then resolve under the slot lock: if the
//!   advert is still ours, withdraw and walk the network solo; if it
//!   is gone, a partner has *committed* to our value — block on the
//!   reply channel.
//!
//! The op-id tag is what makes the timeout race-free: a timed-out
//! waiter never removes a *different* request's advert (the slot may
//! have been taken and re-filled by third parties while it spun), so
//! no advertised request is ever orphaned.
//!
//! Unlike a diffracting prism — where eliminated tokens leave
//! *without* a value, balancing each other out — a counter pair still
//! needs two values, so the pair token traverses once and draws both
//! from the shared interval allocator
//! ([`MpNetwork::spawn_shared_issue`]); the pair makes the quiescent
//! tallies a 1-relaxed step, which is the entire ordering price.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Mutex;

use cnet_topology::Topology;

use crate::audit::StressCounter;
use crate::counter::Counter;
use crate::mp::{MpConfig, MpNetwork};

/// Tuning for an [`EliminatingMpNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EliminationConfig {
    /// Exchange slots at the ingress (`thread % slots` is the home
    /// slot).
    pub slots: usize,
    /// Backoff rounds an advertised operation waits for a partner
    /// before going solo.
    pub spin: u32,
}

impl Default for EliminationConfig {
    fn default() -> Self {
        EliminationConfig { slots: 4, spin: 32 }
    }
}

/// An advertised operation: its unique id and where its value goes.
type Advert = (u64, Sender<u64>);

/// The elimination frontend over a shared-issue [`MpNetwork`].
#[derive(Debug)]
pub struct EliminatingMpNetwork {
    net: MpNetwork,
    slots: Box<[Mutex<Option<Advert>>]>,
    ids: AtomicU64,
    next_input: AtomicUsize,
    width: usize,
    spin: u32,
    probe: crate::obs::FrontendProbe,
}

impl EliminatingMpNetwork {
    /// Spawns the network threads (shared-issue mode) and the exchange
    /// array.
    ///
    /// # Panics
    ///
    /// Panics if `config.slots == 0` or the OS refuses to spawn a
    /// thread.
    #[must_use]
    pub fn spawn(topology: &Topology, mp: MpConfig, config: EliminationConfig) -> Self {
        assert!(config.slots > 0, "at least one exchange slot");
        EliminatingMpNetwork {
            net: MpNetwork::spawn_shared_issue(topology, mp),
            slots: (0..config.slots).map(|_| Mutex::new(None)).collect(),
            ids: AtomicU64::new(0),
            next_input: AtomicUsize::new(0),
            width: topology.output_width(),
            spin: config.spin,
            probe: crate::obs::FrontendProbe::new(0),
        }
    }

    fn pick_input(&self) -> usize {
        self.next_input.fetch_add(1, Ordering::Relaxed) % self.net.input_width()
    }

    /// Takes the next value for `thread`, trying elimination first.
    pub fn next_for(&self, thread: usize) -> u64 {
        let slot = &self.slots[thread % self.slots.len()];
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        {
            let mut guard = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some((_, partner)) = guard.take() {
                drop(guard);
                // matched: one pair token serves both operations
                self.probe.record_pair();
                return self.net.count_pair_on(self.pick_input(), partner);
            }
            *guard = Some((id, MpNetwork::client_reply_sender()));
        }
        for _ in 0..self.spin {
            std::thread::yield_now();
        }
        let withdrawn = {
            let mut guard = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match &*guard {
                // still our advert: withdraw and go solo
                Some((eid, _)) if *eid == id => {
                    *guard = None;
                    true
                }
                // gone (or replaced by a later advert): a partner took
                // ours and is committed to replying
                _ => false,
            }
        };
        if withdrawn {
            self.probe.record_elim_solo();
            self.net.count_on(self.pick_input())
        } else {
            MpNetwork::client_reply_recv()
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
        self.width
    }

    /// Per-counter arrival tallies (a pair counts twice where it
    /// landed). Sums to the number of values handed out; a 1-relaxed
    /// step at quiescence.
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.net
            .output_counts()
            .expect("spawned in shared-issue mode")
    }

    /// The underlying network's contention metrics (`None` without the
    /// `obs` feature).
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.net.metrics_snapshot(wait_cycles)
    }

    /// Frontend telemetry: pair/solo counts (`None` without the `obs`
    /// feature).
    #[must_use]
    pub fn frontend_metrics(&self) -> Option<cnet_obs::FrontendMetrics> {
        self.probe.snapshot()
    }
}

impl Counter for EliminatingMpNetwork {
    fn next(&self) -> u64 {
        let t = self.next_input.load(Ordering::Relaxed);
        self.next_for(t)
    }
}

impl StressCounter for EliminatingMpNetwork {
    fn next_stressed(&self, thread: usize, _spin: u64) -> u64 {
        // hop delays are configured at spawn time (MpConfig::hop_spin),
        // exactly like the plain mp StressCounter impl
        self.next_for(thread)
    }

    fn width(&self) -> usize {
        EliminatingMpNetwork::width(self)
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
        // spin 0: a lone thread advertises, immediately withdraws, and
        // goes solo every time
        let c = EliminatingMpNetwork::spawn(
            &net,
            MpConfig::default(),
            EliminationConfig { slots: 2, spin: 0 },
        );
        for expect in 0..20 {
            assert_eq!(c.next_for(0), expect);
        }
        assert_eq!(c.output_counts().iter().sum::<u64>(), 20);
    }

    #[test]
    fn contended_threads_hand_out_each_value_once() {
        let net = constructions::bitonic(4).unwrap();
        let c = Arc::new(EliminatingMpNetwork::spawn(
            &net,
            MpConfig::default(),
            EliminationConfig::default(),
        ));
        let threads = 8;
        let per_thread = 400;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..per_thread).map(|_| c.next_for(t)).collect::<Vec<u64>>()
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
        assert_eq!(
            c.output_counts().iter().sum::<u64>(),
            (threads * per_thread) as u64
        );
    }

    #[test]
    fn single_slot_forces_the_tagged_timeout_path() {
        // every thread shares one exchange slot: maximal contention on
        // the advertise/withdraw/match races the op-id tag guards
        let net = constructions::bitonic(2).unwrap();
        let c = Arc::new(EliminatingMpNetwork::spawn(
            &net,
            MpConfig::default(),
            EliminationConfig { slots: 1, spin: 2 },
        ));
        let threads = 5; // odd: at least one op per round goes solo
        let per_thread = 300;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..per_thread).map(|_| c.next_for(t)).collect::<Vec<u64>>()
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
    }

    #[cfg(feature = "obs")]
    #[test]
    fn probe_accounts_for_every_operation() {
        let net = constructions::bitonic(4).unwrap();
        let c = Arc::new(EliminatingMpNetwork::spawn(
            &net,
            MpConfig::default(),
            EliminationConfig::default(),
        ));
        let threads = 4;
        let per_thread = 250u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    let _ = c.next_for(t);
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
        let m = c.frontend_metrics().expect("obs build snapshots");
        assert_eq!(2 * m.elim_pairs + m.elim_solo, threads as u64 * per_thread);
    }
}
