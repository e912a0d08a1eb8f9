//! The recording probe layer: lock-free atomic recorders that
//! aggregate into [`MetricsSnapshot`]s.
//!
//! Everything here is real: [`now`] reads the monotonic clock,
//! [`BalancerProbe`] counts with relaxed atomics, [`NetObserver`]
//! rolls per-node probes up into a snapshot. The API is byte-for-byte
//! identical to [`crate::noop`] so a consumer crate selects the layer
//! with a single `cfg` on its import.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::hist::{bucket_of, LogHistogram, BUCKETS};
use crate::snapshot::{
    BalancerMetrics, FrontendMetrics, MetricsSnapshot, NetworkMetrics, METRICS_SCHEMA_VERSION,
};

/// Nanoseconds since the first call in this process. Monotonic, cheap
/// (one `Instant::now` plus a subtraction) and race-free: concurrent
/// first calls agree on the epoch via [`OnceLock`].
#[inline]
#[must_use]
pub fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// A log-bucketed histogram recordable from many threads at once.
///
/// All updates are `Relaxed`: the recorders tolerate torn cross-field
/// reads during a run because snapshots are only taken at quiescence
/// (after worker threads joined / the simulation ended).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram. `const` so probes can live in `static`s.
    #[must_use]
    pub const fn new() -> Self {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current contents into a plain [`LogHistogram`].
    #[must_use]
    pub fn snapshot(&self) -> LogHistogram {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        LogHistogram::from_parts(
            buckets,
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Per-balancer contention recorder. Lock-free; every method is a
/// handful of relaxed atomic adds.
#[derive(Debug, Default)]
pub struct BalancerProbe {
    visits: AtomicU64,
    toggles: AtomicU64,
    toggle_wait_total: AtomicU64,
    diffracted: AtomicU64,
    lock_wait_total: AtomicU64,
    lock_hold_total: AtomicU64,
    wait_hist: AtomicHistogram,
}

impl BalancerProbe {
    /// A fresh probe. `const` so it can back a `static` sink.
    #[must_use]
    pub const fn new() -> Self {
        BalancerProbe {
            visits: AtomicU64::new(0),
            toggles: AtomicU64::new(0),
            toggle_wait_total: AtomicU64::new(0),
            diffracted: AtomicU64::new(0),
            lock_wait_total: AtomicU64::new(0),
            lock_hold_total: AtomicU64::new(0),
            wait_hist: AtomicHistogram::new(),
        }
    }

    /// A process-wide probe that swallows records — for call sites
    /// that must pass *a* probe but have no observer attached.
    #[must_use]
    pub fn sink() -> &'static BalancerProbe {
        static SINK: BalancerProbe = BalancerProbe::new();
        &SINK
    }

    /// One token toggled after waiting `wait` cycles/nanoseconds.
    #[inline]
    pub fn record_toggle(&self, wait: u64) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        self.toggles.fetch_add(1, Ordering::Relaxed);
        self.toggle_wait_total.fetch_add(wait, Ordering::Relaxed);
        self.wait_hist.record(wait);
    }

    /// One token left through a prism diffraction after `wait`.
    #[inline]
    pub fn record_diffraction(&self, wait: u64) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        self.diffracted.fetch_add(1, Ordering::Relaxed);
        self.wait_hist.record(wait);
    }

    /// Lock acquisition at this node: queued `wait`, held `hold`.
    #[inline]
    pub fn record_lock(&self, wait: u64, hold: u64) {
        self.lock_wait_total.fetch_add(wait, Ordering::Relaxed);
        self.lock_hold_total.fetch_add(hold, Ordering::Relaxed);
    }

    /// Freezes this probe into a serializable row for node `node`.
    #[must_use]
    pub fn snapshot(&self, node: usize) -> BalancerMetrics {
        BalancerMetrics {
            node,
            visits: self.visits.load(Ordering::Relaxed),
            toggles: self.toggles.load(Ordering::Relaxed),
            toggle_wait_total: self.toggle_wait_total.load(Ordering::Relaxed),
            diffracted: self.diffracted.load(Ordering::Relaxed),
            lock_wait_total: self.lock_wait_total.load(Ordering::Relaxed),
            lock_hold_total: self.lock_hold_total.load(Ordering::Relaxed),
            wait_hist: self.wait_hist.snapshot(),
        }
    }
}

/// Telemetry recorder for an elastic frontend (combining, sharding).
/// Lock-free relaxed atomics like [`BalancerProbe`]; snapshots are
/// taken at quiescence.
#[derive(Debug)]
pub struct FrontendProbe {
    batch_hist: AtomicHistogram,
    solo: AtomicU64,
    shard_ops: Box<[AtomicU64]>,
}

impl FrontendProbe {
    /// A probe for a frontend routing over `shards` networks (0 for
    /// the non-sharded frontends).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        FrontendProbe {
            batch_hist: AtomicHistogram::new(),
            solo: AtomicU64::new(0),
            shard_ops: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// One combiner traversal served `k` requests.
    #[inline]
    pub fn record_batch(&self, k: u64) {
        self.batch_hist.record(k);
    }

    /// One operation bypassed combining and traversed alone.
    #[inline]
    pub fn record_solo(&self) {
        self.solo.fetch_add(1, Ordering::Relaxed);
    }

    /// One operation was routed to shard `s`.
    #[inline]
    pub fn record_shard(&self, s: usize) {
        self.shard_ops[s].fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the recorded telemetry. Always `Some` on this layer.
    #[must_use]
    pub fn snapshot(&self) -> Option<FrontendMetrics> {
        Some(FrontendMetrics {
            batch_hist: self.batch_hist.snapshot(),
            solo_ops: self.solo.load(Ordering::Relaxed),
            shard_ops: self
                .shard_ops
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        })
    }
}

/// Network-wide observer: one [`BalancerProbe`] per node plus
/// operation-level recorders. Lock-free and fixed-size: nothing here
/// grows with the number of operations.
///
/// It does not judge Definition 2.4. Its `[start, end]` is a host-time
/// bracket taken inside the counter, racing threads report in no
/// particular order, and the drivers compute the exact verdict on
/// their own logical-clock bracket anyway — they write it into the
/// snapshot ([`NetworkMetrics::set_violations`]).
#[derive(Debug)]
pub struct NetObserver {
    probes: Box<[BalancerProbe]>,
    ops: AtomicU64,
    op_hist: AtomicHistogram,
    wire_hist: AtomicHistogram,
}

impl NetObserver {
    /// An observer for a network with `nodes` balancers.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        NetObserver {
            probes: (0..nodes).map(|_| BalancerProbe::new()).collect(),
            ops: AtomicU64::new(0),
            op_hist: AtomicHistogram::new(),
            wire_hist: AtomicHistogram::new(),
        }
    }

    /// The probe for node `node`.
    #[inline]
    #[must_use]
    pub fn probe(&self, node: usize) -> &BalancerProbe {
        &self.probes[node]
    }

    /// One wire/hop traversal took `latency`.
    #[inline]
    pub fn record_wire(&self, latency: u64) {
        self.wire_hist.record(latency);
    }

    /// One operation ran `[start, end]`.
    #[inline]
    pub fn record_op(&self, start: u64, end: u64) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.op_hist.record(end - start);
    }

    /// Rolls everything up into a snapshot. `wait_cycles` is the
    /// workload's `W`, used for the live `(Tog + W)/Tog` ratio.
    /// Always `Some` on this layer (the no-op layer returns `None`).
    #[must_use]
    pub fn snapshot(&self, wait_cycles: u64) -> Option<MetricsSnapshot> {
        let balancers: Vec<BalancerMetrics> = self
            .probes
            .iter()
            .enumerate()
            .map(|(i, p)| p.snapshot(i))
            .collect();
        let toggle_wait_total: u64 = balancers.iter().map(|b| b.toggle_wait_total).sum();
        let toggles: u64 = balancers.iter().map(|b| b.toggles).sum();
        let node_wait_total: u64 = balancers.iter().map(|b| b.wait_hist.sum()).sum();
        let visits: u64 = balancers.iter().map(|b| b.visits).sum();
        let wire = self.wire_hist.snapshot();
        Some(MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            wait_cycles,
            network: NetworkMetrics {
                operations: self.ops.load(Ordering::Relaxed),
                c1_estimate: wire.min() as f64,
                c2_estimate: wire.max() as f64,
                avg_toggle_wait: cnet_timing::measure::avg_toggle_wait(
                    toggle_wait_total,
                    toggles,
                    node_wait_total,
                    visits,
                ),
                average_ratio: cnet_timing::measure::average_ratio(
                    toggle_wait_total,
                    toggles,
                    node_wait_total,
                    visits,
                    wait_cycles,
                ),
                wire_latency_hist: wire,
                op_latency_hist: self.op_hist.snapshot(),
                queue_depth_hist: LogHistogram::new(),
                nonlinearizable: 0,
                violation_magnitude_total: 0,
                violation_magnitude_max: 0,
                violation_magnitude_hist: LogHistogram::new(),
            },
            balancers,
            fabric: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let ah = AtomicHistogram::new();
        let mut ph = LogHistogram::new();
        for v in [0u64, 1, 5, 5, 300, 1 << 40] {
            ah.record(v);
            ph.record(v);
        }
        assert_eq!(ah.snapshot(), ph);
    }

    #[test]
    fn probe_accumulates_and_snapshots() {
        let p = BalancerProbe::new();
        p.record_toggle(10);
        p.record_toggle(30);
        p.record_diffraction(2);
        p.record_lock(8, 3);
        let m = p.snapshot(7);
        assert_eq!(m.node, 7);
        assert_eq!(m.visits, 3);
        assert_eq!(m.toggles, 2);
        assert_eq!(m.toggle_wait_total, 40);
        assert_eq!(m.diffracted, 1);
        assert_eq!(m.lock_wait_total, 8);
        assert_eq!(m.lock_hold_total, 3);
        assert_eq!(m.wait_hist.count(), 3);
        assert_eq!(m.wait_hist.sum(), 42);
    }

    #[test]
    fn observer_rolls_up_network_metrics() {
        let o = NetObserver::new(2);
        o.probe(0).record_toggle(10);
        o.probe(1).record_toggle(30);
        o.record_wire(12);
        o.record_wire(48);
        o.record_op(0, 50);
        o.record_op(60, 100);
        let snap = o.snapshot(1000).expect("live layer always snapshots");
        assert_eq!(snap.balancers.len(), 2);
        assert_eq!(snap.network.operations, 2);
        assert_eq!(snap.network.c1_estimate, 12.0);
        assert_eq!(snap.network.c2_estimate, 48.0);
        // Tog = 40/2 = 20 -> ratio (20 + 1000)/20 = 51
        assert!((snap.network.average_ratio - 51.0).abs() < 1e-12);
        assert_eq!(snap.network.op_latency_hist.sum(), 90);
        // the verdict is the driver's to write, never the probe's
        assert_eq!(snap.network.nonlinearizable, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing_at_quiescence() {
        use std::sync::Arc;
        let o = Arc::new(NetObserver::new(1));
        let threads = 4;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let o = Arc::clone(&o);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        o.probe(0).record_toggle(i % 17);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
        let snap = o.snapshot(0).unwrap();
        assert_eq!(snap.balancers[0].toggles, threads * per_thread);
        assert_eq!(snap.balancers[0].wait_hist.count(), threads * per_thread);
    }
}
