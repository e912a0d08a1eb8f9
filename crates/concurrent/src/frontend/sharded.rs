//! A sharded frontend: `S` narrow networks behind a cheap router,
//! racing one wide network at equal total width.
//!
//! Shard `s` hands out the residue class `s mod S`: a local value `l`
//! from shard `s` becomes the global value `s + S * l`. Each shard is
//! an ordinary compiled network (exact counting per shard), and the
//! residue classes are disjoint, so the frontend never duplicates a
//! value regardless of routing policy.
//!
//! Whether the value space is *gap-free* at quiescence depends on the
//! router:
//!
//! * [`RoutePolicy::RoundRobin`] — a global ticket spreads the first
//!   `n` operations over the shards with counts differing by at most
//!   one, exactly matching how the residue classes partition `0..n`;
//!   quiescent values are exactly `0..n`. This is the policy the
//!   engine backend and the differential tests use.
//! * [`RoutePolicy::ThreadAffinity`] and [`RoutePolicy::LoadAware`] —
//!   skew-friendly routers; still duplicate-free and sum-preserving,
//!   but an uneven shard load shows up as gaps at the top of the value
//!   space (a *documented* relaxation, reported by the shard-imbalance
//!   metric, not a counting bug within any shard).
//!
//! The step property holds per shard; globally the quiescent counts
//! are a step within each shard's residue class — sharding spends
//! cross-shard ordering to buy `S`-way traversal parallelism and a
//! shallower per-shard depth (`bitonic(w/S)` is `O(log^2 (w/S))` deep).

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

use cnet_topology::Topology;

use crate::counter::{Counter, StressCounter};
use crate::network::{BalancerKind, NetworkCounter};

/// How the frontend picks a shard for an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// A global ticket, `ticket % S` (the default; gap-free).
    #[default]
    RoundRobin,
    /// `thread % S`: no shared router state at all, at the price of
    /// load skew when thread counts don't divide evenly.
    ThreadAffinity,
    /// Route to the shard with the fewest in-flight operations
    /// (ties to the lowest index).
    LoadAware,
}

/// One shard: a narrow network plus its in-flight gauge.
#[derive(Debug)]
struct Shard {
    net: NetworkCounter,
    inflight: AtomicU64,
}

/// The sharded frontend over `S` equal-width networks.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[Shard]>,
    policy: RoutePolicy,
    ticket: AtomicUsize,
    probe: crate::obs::FrontendProbe,
}

impl ShardedCounter {
    /// Builds one shard per topology in `shards`, all with balancer
    /// `kind`. Use [`cnet_topology::Topology::shards`] to construct
    /// equal-width shard topologies in one call.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shard output widths differ
    /// (the residue-class value mapping needs interchangeable shards).
    #[must_use]
    pub fn with_kind(shards: &[Topology], kind: BalancerKind, policy: RoutePolicy) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        let width = shards[0].output_width();
        assert!(
            shards.iter().all(|t| t.output_width() == width),
            "shards must share one output width"
        );
        ShardedCounter {
            shards: shards
                .iter()
                .map(|t| Shard {
                    net: NetworkCounter::with_kind(t, kind),
                    inflight: AtomicU64::new(0),
                })
                .collect(),
            policy,
            ticket: AtomicUsize::new(0),
            probe: crate::obs::FrontendProbe::new(shards.len()),
        }
    }

    /// Builds the frontend with wait-free balancers and round-robin
    /// routing.
    #[must_use]
    pub fn new(shards: &[Topology]) -> Self {
        Self::with_kind(shards, BalancerKind::WaitFree, RoutePolicy::RoundRobin)
    }

    /// The number of shards `S`.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn route(&self, thread: usize) -> usize {
        match self.policy {
            RoutePolicy::RoundRobin => {
                self.ticket.fetch_add(1, Ordering::Relaxed) % self.shards.len()
            }
            RoutePolicy::ThreadAffinity => thread % self.shards.len(),
            RoutePolicy::LoadAware => {
                let mut best = 0usize;
                let mut best_load = u64::MAX;
                for (s, shard) in self.shards.iter().enumerate() {
                    let load = shard.inflight.load(Ordering::Relaxed);
                    if load < best_load {
                        best = s;
                        best_load = load;
                    }
                }
                best
            }
        }
    }

    /// Takes the next value, routed by policy, spinning
    /// `spin_per_node` iterations per hop inside the chosen shard.
    pub fn next_for(&self, thread: usize, spin_per_node: u64) -> u64 {
        let s = self.route(thread);
        self.probe.record_shard(s);
        let shard = &self.shards[s];
        shard.inflight.fetch_add(1, Ordering::Relaxed);
        let input = thread % shard.net.input_width();
        let local = shard.net.next_on_with_delay(input, spin_per_node);
        shard.inflight.fetch_sub(1, Ordering::Relaxed);
        s as u64 + self.shards.len() as u64 * local
    }

    /// Per-counter totals, shard-major: shard 0's counters first, then
    /// shard 1's, … Each shard's block is a step at quiescence; the
    /// concatenation sums to the number of values handed out.
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|s| s.net.output_counts())
            .collect()
    }

    /// Merged contention metrics are per-shard; expose shard `s`'s
    /// snapshot (`None` without the `obs` feature or out of range).
    #[must_use]
    pub fn shard_metrics(&self, s: usize, wait_cycles: u64) -> Option<cnet_obs::MetricsSnapshot> {
        self.shards.get(s)?.net.metrics_snapshot(wait_cycles)
    }

    /// Frontend telemetry: per-shard routing counts (`None` without
    /// the `obs` feature).
    #[must_use]
    pub fn frontend_metrics(&self) -> Option<cnet_obs::FrontendMetrics> {
        self.probe.snapshot()
    }
}

impl Counter for ShardedCounter {
    fn next(&self) -> u64 {
        let t = self.ticket.load(Ordering::Relaxed);
        self.next_for(t, 0)
    }
}

impl StressCounter for ShardedCounter {
    fn next_stressed(&self, thread: usize, spin_per_node: u64) -> u64 {
        self.next_for(thread, spin_per_node)
    }

    fn width(&self) -> usize {
        // value mod (S * shard_width) is unique per (shard, counter)
        // pair — the natural counter label for a stressed trace
        self.shards.len() * self.shards[0].net.width()
    }

    fn input_width(&self) -> usize {
        self.shards[0].net.input_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;
    use std::sync::Arc;

    fn four_shards() -> Vec<Topology> {
        (0..4).map(|_| constructions::bitonic(4).unwrap()).collect()
    }

    #[test]
    fn round_robin_counts_exactly_in_sequence() {
        let c = ShardedCounter::new(&four_shards());
        let mut values: Vec<u64> = (0..64).map(|_| c.next()).collect();
        values.sort_unstable();
        assert_eq!(values, (0..64).collect::<Vec<u64>>());
        let counts = c.output_counts();
        assert_eq!(counts.len(), 16);
        assert_eq!(counts.iter().sum::<u64>(), 64);
    }

    #[test]
    fn round_robin_is_gap_free_under_stress() {
        let c = Arc::new(ShardedCounter::new(&four_shards()));
        let threads = 8;
        let per_thread = 500;
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
    }

    #[test]
    fn affinity_and_load_aware_never_duplicate() {
        for policy in [RoutePolicy::ThreadAffinity, RoutePolicy::LoadAware] {
            let c = Arc::new(ShardedCounter::with_kind(
                &four_shards(),
                BalancerKind::WaitFree,
                policy,
            ));
            let threads = 6; // deliberately not a multiple of S
            let per_thread = 400;
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
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), n, "{policy:?} duplicated a value");
            // sum-preserving: every operation tallied in some shard
            let c = Arc::try_unwrap(c).expect("all clones joined");
            assert_eq!(c.output_counts().iter().sum::<u64>(), n as u64);
        }
    }

    #[test]
    fn shard_widths_must_match() {
        let shards = vec![
            constructions::bitonic(4).unwrap(),
            constructions::bitonic(2).unwrap(),
        ];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardedCounter::new(&shards)
        }));
        assert!(err.is_err());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn probe_records_every_route() {
        let c = ShardedCounter::new(&four_shards());
        for _ in 0..40 {
            let _ = c.next();
        }
        let m = c.frontend_metrics().expect("obs build snapshots");
        assert_eq!(m.shard_ops, vec![10, 10, 10, 10]);
        assert!((m.shard_imbalance() - 1.0).abs() < 1e-12);
    }
}
