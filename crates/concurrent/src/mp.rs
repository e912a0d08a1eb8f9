//! A message-passing counting network.
//!
//! The paper's timing model "is general enough to capture both message
//! passing and shared memory implementations". This module is the
//! message-passing side: every balancer (and every output counter) is
//! its own thread owning its state outright — no atomics, no locks —
//! and tokens are messages flowing along channels that realize the
//! network's wires. A client operation injects a token message carrying
//! a reply channel and blocks until the counter thread answers with the
//! assigned value.
//!
//! The per-hop cost (and therefore the effective `c1`/`c2` spread) is
//! whatever the OS scheduler makes of the channel sends, optionally
//! stretched by a configurable busy-spin per hop.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use cnet_topology::{Topology, WireEnd};

use crate::counter::Counter;

/// A token in flight: where to send the final value, and when the
/// client injected it (probe-layer clock; constant 0 with probes off).
///
/// A token carrying `extra` is an elimination *pair*: one message
/// standing for two client operations. The counter thread answers the
/// injecting client on `reply` and the matched partner on `extra` with
/// two consecutive values (shared-issue networks only).
#[derive(Debug)]
struct TokenMsg {
    reply: Sender<u64>,
    extra: Option<Sender<u64>>,
    sent_at: u64,
}

/// Shared value-issue state for networks spawned via
/// [`MpNetwork::spawn_shared_issue`]: a global interval allocator plus
/// per-counter arrival tallies.
///
/// A pair token absorbs two arrivals at one counter, so deriving values
/// from the counter's *local* arrival count (`index + width * arrivals`
/// like the plain mode) would leave gaps in the value space whenever
/// singles and pairs mix across counters. The global allocator keeps
/// values exactly `0..n`; the tallies preserve the quiescent
/// output-count sums (a pair makes them a 1-relaxed step — the
/// ordering cost the frontend bench measures).
#[derive(Debug)]
struct SharedIssue {
    issued: AtomicU64,
    tallies: Box<[AtomicU64]>,
}

thread_local! {
    /// Reply channels this thread has built (see
    /// [`reply_channels_created_by_this_thread`]).
    static REPLY_CHANNELS_CREATED: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
    /// One reply channel per client thread, reused for every operation
    /// (operations are synchronous, so it never holds more than one
    /// value).
    static REPLY: (Sender<u64>, Receiver<u64>) = {
        REPLY_CHANNELS_CREATED.with(|c| c.set(c.get() + 1));
        channel()
    };
}

/// How many reply channels the calling thread has ever created: 0
/// before its first [`MpNetwork`] operation, 1 after, never more.
///
/// Regression guard for the channel-reuse fast path — tests assert the
/// count stays at one while the operation count grows.
#[must_use]
pub fn reply_channels_created_by_this_thread() -> u64 {
    REPLY_CHANNELS_CREATED.with(std::cell::Cell::get)
}

/// Tuning for a [`MpNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpConfig {
    /// Busy-spin iterations each balancer performs before forwarding a
    /// token — stretches the per-hop latency floor.
    pub hop_spin: u64,
}

/// A counting network realized as a set of balancer and counter
/// threads connected by channels.
///
/// Dropping the network closes the entry channels; every thread drains
/// and exits, and the drop joins them all.
///
/// # Example
///
/// ```
/// use cnet_concurrent::counter::Counter;
/// use cnet_concurrent::mp::{MpConfig, MpNetwork};
/// use cnet_topology::constructions;
///
/// let net = constructions::bitonic(4)?;
/// let mp = MpNetwork::spawn(&net, MpConfig::default());
/// assert_eq!(mp.next(), 0);
/// assert_eq!(mp.next(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MpNetwork {
    entries: Vec<Sender<TokenMsg>>,
    next_input: AtomicUsize,
    threads: Vec<JoinHandle<()>>,
    /// `Some` for shared-issue networks (the elimination frontend's
    /// mode); `None` for the plain per-counter value scheme.
    shared: Option<Arc<SharedIssue>>,
    /// Shared with every balancer/counter thread; ZST recorders unless
    /// the `obs` feature is on.
    obs: Arc<crate::obs::NetObserver>,
}

impl MpNetwork {
    /// Spawns one thread per balancer and per counter of `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    #[must_use]
    pub fn spawn(topology: &Topology, config: MpConfig) -> Self {
        Self::spawn_inner(topology, config, None)
    }

    /// Spawns a network whose counter threads draw values from one
    /// shared interval allocator instead of their local arrival counts
    /// — the mode that makes elimination pair tokens
    /// ([`MpNetwork::count_pair_on`]) gap-free. Sequentially it counts
    /// exactly like [`MpNetwork::spawn`]; see `SharedIssue` for why
    /// pairs need it.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    #[must_use]
    pub fn spawn_shared_issue(topology: &Topology, config: MpConfig) -> Self {
        let shared = Arc::new(SharedIssue {
            issued: AtomicU64::new(0),
            tallies: (0..topology.output_width())
                .map(|_| AtomicU64::new(0))
                .collect(),
        });
        Self::spawn_inner(topology, config, Some(shared))
    }

    fn spawn_inner(
        topology: &Topology,
        config: MpConfig,
        shared: Option<Arc<SharedIssue>>,
    ) -> Self {
        let width = topology.output_width() as u64;
        let obs = Arc::new(crate::obs::NetObserver::new(topology.node_count()));
        let mut threads = Vec::new();

        // counter threads first: one channel each
        let counter_txs: Vec<Sender<TokenMsg>> = (0..topology.output_width())
            .map(|index| {
                let (tx, rx): (Sender<TokenMsg>, Receiver<TokenMsg>) = channel();
                let obs = Arc::clone(&obs);
                let shared = shared.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("cnet-counter-{index}"))
                        .spawn(move || {
                            let mut arrivals: u64 = 0;
                            while let Ok(msg) = rx.recv() {
                                let now = crate::obs::now();
                                match &shared {
                                    None => {
                                        // plain mode: tokens are never
                                        // pairs (count_pair_on rejects
                                        // them), values are local
                                        let value = index as u64 + width * arrivals;
                                        arrivals += 1;
                                        obs.record_op(msg.sent_at, now);
                                        // the client may have given
                                        // up; ignore
                                        let _ = msg.reply.send(value);
                                    }
                                    Some(shared) => {
                                        let weight = 1 + u64::from(msg.extra.is_some());
                                        shared.tallies[index].fetch_add(weight, Ordering::Relaxed);
                                        let base =
                                            shared.issued.fetch_add(weight, Ordering::AcqRel);
                                        obs.record_op(msg.sent_at, now);
                                        let _ = msg.reply.send(base);
                                        if let Some(extra) = msg.extra {
                                            obs.record_op(msg.sent_at, now);
                                            let _ = extra.send(base + 1);
                                        }
                                    }
                                }
                            }
                        })
                        .expect("spawn counter thread"),
                );
                tx
            })
            .collect();

        // balancer channels, deepest layer first so downstream senders
        // exist when a balancer thread is spawned
        let mut node_txs: Vec<Option<Sender<TokenMsg>>> = vec![None; topology.node_count()];
        let mut nodes: Vec<_> = topology.iter_nodes().collect();
        nodes.reverse();
        for id in nodes {
            let outs: Vec<Sender<TokenMsg>> = (0..topology.fan_out(id))
                .map(|port| match topology.output_wire(id, port) {
                    WireEnd::Counter { index } => counter_txs[index].clone(),
                    WireEnd::Node { node, .. } => node_txs[node.index()]
                        .as_ref()
                        .expect("deeper layers spawned first")
                        .clone(),
                })
                .collect();
            let (tx, rx): (Sender<TokenMsg>, Receiver<TokenMsg>) = channel();
            let hop_spin = config.hop_spin;
            let obs = Arc::clone(&obs);
            let node = id.index();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cnet-balancer-{node}"))
                    .spawn(move || {
                        let mut toggle: u64 = 0;
                        while let Ok(msg) = rx.recv() {
                            let t0 = crate::obs::now();
                            let out = (toggle % outs.len() as u64) as usize;
                            toggle += 1;
                            for _ in 0..hop_spin {
                                std::hint::spin_loop();
                            }
                            let hop = crate::obs::now() - t0;
                            obs.probe(node).record_toggle(hop);
                            obs.record_wire(hop);
                            // downstream closing mid-shutdown only loses
                            // tokens whose clients are gone too
                            let _ = outs[out].send(msg);
                        }
                    })
                    .expect("spawn balancer thread"),
            );
            node_txs[id.index()] = Some(tx);
        }

        let entries = (0..topology.input_width())
            .map(|x| {
                node_txs[topology.input(x).node.index()]
                    .as_ref()
                    .expect("entry node spawned")
                    .clone()
            })
            .collect();
        MpNetwork {
            entries,
            next_input: AtomicUsize::new(0),
            threads,
            shared,
            obs,
        }
    }

    /// Sends one token in on network input `x_input` and waits for its
    /// value.
    ///
    /// The reply channel is per client *thread*, created on the
    /// thread's first operation and reused for every one after — an
    /// operation is fully synchronous (send, then block on the reply),
    /// so the slot can never hold a message across operations.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range or the network has been torn
    /// down underneath the caller (impossible through the safe API).
    pub fn count_on(&self, input: usize) -> u64 {
        REPLY.with(|(reply_tx, reply_rx)| {
            self.entries[input]
                .send(TokenMsg {
                    reply: reply_tx.clone(),
                    extra: None,
                    sent_at: crate::obs::now(),
                })
                .expect("network threads alive while self exists");
            reply_rx.recv().expect("counter thread replies")
        })
    }

    /// Sends one *pair* token in on input `x_input`: a single message
    /// standing for this operation and a matched partner's. The caller
    /// gets the pair's first value back; `partner` receives the second
    /// (consecutive) value. This is the elimination frontend's
    /// primitive — two operations, one network traversal.
    ///
    /// Only valid on shared-issue networks
    /// ([`MpNetwork::spawn_shared_issue`]): the plain per-counter value
    /// scheme cannot absorb two arrivals per token without gapping.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range or this network was not
    /// spawned in shared-issue mode.
    pub fn count_pair_on(&self, input: usize, partner: Sender<u64>) -> u64 {
        assert!(
            self.shared.is_some(),
            "pair tokens need a shared-issue network"
        );
        REPLY.with(|(reply_tx, reply_rx)| {
            self.entries[input]
                .send(TokenMsg {
                    reply: reply_tx.clone(),
                    extra: Some(partner),
                    sent_at: crate::obs::now(),
                })
                .expect("network threads alive while self exists");
            reply_rx.recv().expect("counter thread replies")
        })
    }

    /// A sender for the calling thread's own reply channel — what an
    /// elimination waiter advertises so a matched partner's pair token
    /// can deliver its value.
    #[must_use]
    pub fn client_reply_sender() -> Sender<u64> {
        REPLY.with(|(reply_tx, _)| reply_tx.clone())
    }

    /// Blocks on the calling thread's own reply channel — how an
    /// elimination waiter collects the value a partner's pair token
    /// reserved for it. Only sound when the thread has advertised the
    /// matching [`MpNetwork::client_reply_sender`] and a partner is
    /// committed to answering it.
    ///
    /// # Panics
    ///
    /// Panics if every sender for this thread's reply channel is gone
    /// (impossible while the advertising handshake holds one).
    #[must_use]
    pub fn client_reply_recv() -> u64 {
        REPLY.with(|(_, reply_rx)| reply_rx.recv().expect("a committed partner replies"))
    }

    /// Per-counter arrival tallies for shared-issue networks; `None`
    /// in plain mode (where quiescent counts are implied by the values
    /// themselves: counter = value mod width). Meaningful at
    /// quiescence. A pair token counts as two arrivals at the counter
    /// it landed on.
    #[must_use]
    pub fn output_counts(&self) -> Option<Vec<u64>> {
        self.shared.as_ref().map(|s| {
            s.tallies
                .iter()
                .map(|t| t.load(Ordering::Acquire))
                .collect()
        })
    }

    /// The number of network inputs.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.entries.len()
    }

    /// The contention metrics recorded so far, or `None` when this
    /// build's probe layer is the disabled one (no `obs` feature).
    ///
    /// Meaningful once clients are quiescent (balancer threads may
    /// still be mid-forward otherwise). Latencies are in nanoseconds;
    /// here "toggle wait" is the balancer thread's per-token service
    /// time and "wire latency" the per-hop forwarding time.
    #[must_use]
    pub fn metrics_snapshot(&self, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.obs.snapshot(wait_cycles)
    }
}

impl Counter for MpNetwork {
    fn next(&self) -> u64 {
        let input = self.next_input.fetch_add(1, Ordering::Relaxed) % self.entries.len();
        self.count_on(input)
    }
}

impl Drop for MpNetwork {
    fn drop(&mut self) {
        // closing the entries cascades: balancers see disconnect once
        // every upstream sender (entries + earlier balancers) is gone
        self.entries.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;
    use std::sync::Arc;

    #[test]
    fn sequential_counting() {
        let net = constructions::bitonic(4).unwrap();
        let mp = MpNetwork::spawn(&net, MpConfig::default());
        for expect in 0..20 {
            assert_eq!(mp.next(), expect);
        }
    }

    #[test]
    fn tree_topology_works_too() {
        let net = constructions::counting_tree(4).unwrap();
        let mp = MpNetwork::spawn(&net, MpConfig::default());
        assert_eq!(mp.input_width(), 1);
        for expect in 0..12 {
            assert_eq!(mp.count_on(0), expect);
        }
    }

    #[test]
    fn concurrent_clients_count_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let mp = Arc::new(MpNetwork::spawn(&net, MpConfig::default()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mp = Arc::clone(&mp);
            handles.push(std::thread::spawn(move || {
                (0..250).map(|_| mp.next()).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn hop_spin_only_slows_things_down() {
        let net = constructions::bitonic(2).unwrap();
        let mp = MpNetwork::spawn(&net, MpConfig { hop_spin: 1000 });
        let values: Vec<u64> = (0..6).map(|_| mp.next()).collect();
        assert_eq!(values, (0..6).collect::<Vec<u64>>());
    }

    #[test]
    fn reply_channel_is_reused_across_operations() {
        // the per-op-allocation fix: ops ≫ channels created
        let net = constructions::bitonic(4).unwrap();
        let mp = MpNetwork::spawn(&net, MpConfig::default());
        let created = std::thread::spawn(move || {
            for _ in 0..400 {
                let _ = mp.next();
            }
            reply_channels_created_by_this_thread()
        })
        .join()
        .expect("client thread");
        assert_eq!(created, 1, "400 operations must share one reply channel");
    }

    #[test]
    fn shared_issue_counts_exactly_like_plain_sequentially() {
        let net = constructions::bitonic(4).unwrap();
        let mp = MpNetwork::spawn_shared_issue(&net, MpConfig::default());
        for expect in 0..20 {
            assert_eq!(mp.next(), expect);
        }
        let counts = mp.output_counts().expect("shared-issue mode tallies");
        assert_eq!(counts.iter().sum::<u64>(), 20);
        assert!(MpNetwork::spawn(&net, MpConfig::default())
            .output_counts()
            .is_none());
    }

    #[test]
    fn pair_tokens_reserve_consecutive_values_without_gaps() {
        let net = constructions::bitonic(4).unwrap();
        let mp = Arc::new(MpNetwork::spawn_shared_issue(&net, MpConfig::default()));
        // mix singles and pairs: the value space must stay exactly 0..n
        let mut values = Vec::new();
        for i in 0..6 {
            let (tx, rx) = channel();
            let base = mp.count_pair_on(i % 4, tx);
            values.push(base);
            values.push(rx.recv().expect("pair partner value"));
            assert_eq!(values[values.len() - 1], base + 1);
            values.push(mp.count_on((i + 1) % 4));
        }
        values.sort_unstable();
        assert_eq!(values, (0..18).collect::<Vec<u64>>());
        let counts = mp.output_counts().expect("tallies");
        assert_eq!(counts.iter().sum::<u64>(), 18);
    }

    #[test]
    #[should_panic(expected = "shared-issue")]
    fn pair_tokens_are_rejected_in_plain_mode() {
        let net = constructions::bitonic(2).unwrap();
        let mp = MpNetwork::spawn(&net, MpConfig::default());
        let (tx, _rx) = channel();
        let _ = mp.count_pair_on(0, tx);
    }

    #[test]
    fn drop_joins_all_threads() {
        let net = constructions::bitonic(4).unwrap();
        let mp = MpNetwork::spawn(&net, MpConfig::default());
        let _ = mp.next();
        drop(mp); // must not hang or leak
    }
}
