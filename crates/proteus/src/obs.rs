//! Simulator-side metric recording, compiled to nothing without the
//! `obs` feature.
//!
//! The event loop calls these hooks unconditionally; with `obs` off
//! [`SimObs`] is a zero-sized struct whose methods are empty
//! `#[inline]` bodies, so the fast path described in
//! [`crate::sim`] is unchanged. With `obs` on, the recorder gathers
//! per-node contention, event-queue depth (subsampled), per-wire and
//! per-operation latencies and the violation magnitudes the event
//! loop's Definition 2.4 grading hands it, and [`SimObs::finish`]
//! freezes it all into the [`cnet_obs::MetricsSnapshot`] carried by
//! [`cnet_engine::RunStats::metrics`].
//!
//! Recording never draws from the simulation RNG and never schedules
//! events, so enabling `obs` cannot change what is simulated: every
//! existing statistic stays bit-identical (the golden-trace tests
//! still pass under `--features obs`).

#[cfg(not(feature = "obs"))]
pub(crate) use disabled::SimObs;
#[cfg(feature = "obs")]
pub(crate) use enabled::SimObs;

#[cfg(feature = "obs")]
mod enabled {
    use cnet_obs::hist::bucket_of;
    use cnet_obs::snapshot::{
        BalancerMetrics, FabricTelemetry, LinkMetrics, MetricsSnapshot, NetworkMetrics,
    };
    use cnet_obs::{LogHistogram, BUCKETS, METRICS_SCHEMA_VERSION};
    use cnet_timing::measure;

    /// Per-node accumulator mirroring the run-wide counters. Kept to
    /// one cache line (56 bytes of fields) so a toggle touches this
    /// line plus one bucket-count line; the log-bucket counts live in
    /// the flat `wait_buckets` side array and both are widened into a
    /// [`LogHistogram`] per node only at freeze time. Embedding a
    /// 544-byte histogram here instead measurably slowed small cells:
    /// the recorder's working set (and its first-touch page faults)
    /// dominated the probe cost.
    #[derive(Debug, Clone)]
    struct NodeAcc {
        visits: u64,
        toggles: u64,
        toggle_wait_total: u64,
        diffracted: u64,
        wait_sum: u64,
        /// `u64::MAX` sentinel while empty (the
        /// [`LogHistogram::from_parts`] convention).
        wait_min: u64,
        wait_max: u64,
    }

    impl Default for NodeAcc {
        fn default() -> Self {
            NodeAcc {
                visits: 0,
                toggles: 0,
                toggle_wait_total: 0,
                diffracted: 0,
                wait_sum: 0,
                wait_min: u64::MAX,
                wait_max: 0,
            }
        }
    }

    /// Per-fabric-queue accumulator; the rows of the snapshot's
    /// optional `fabric` block. Grown lazily — only non-degenerate
    /// fabrics ever touch it, so degenerate runs allocate nothing.
    #[derive(Debug, Clone, Copy, Default)]
    struct QueueAcc {
        serviced: u64,
        max_depth: u64,
        drops: u64,
        nacks: u64,
    }

    /// How often the queue depth is sampled: every 64th push. Depth
    /// changes by one per event, so subsampling keeps the histogram
    /// shape while taking the recorder off the innermost loop — the
    /// event push is the only hook that fires more than once per hop.
    const DEPTH_SAMPLE_MASK: u64 = 63;

    /// Recycled recorder buffers, one set per worker thread. A worker
    /// runs many cells; reusing the allocations keeps first-touch page
    /// faults out of the timed region — clearing warm memory costs a
    /// memset, faulting fresh pages costs kernel round trips, and for
    /// small cells the difference is a measurable slice of the obs-on
    /// overhead.
    #[derive(Debug, Default)]
    struct Scratch {
        nodes: Vec<NodeAcc>,
        wait_buckets: Vec<u32>,
    }

    thread_local! {
        static SCRATCH: std::cell::Cell<Option<Scratch>> =
            const { std::cell::Cell::new(None) };
    }

    /// The live simulator recorder.
    #[derive(Debug)]
    pub(crate) struct SimObs {
        nodes: Vec<NodeAcc>,
        /// Flat `nodes × BUCKETS` wait-histogram counts. `u32` halves
        /// the recorder's working set; saturating increments mean a
        /// (physically implausible) 4-billion-sample bucket pins at
        /// `u32::MAX` instead of wrapping.
        wait_buckets: Vec<u32>,
        pushes: u64,
        queue_depth_hist: LogHistogram,
        wire_hist: LogHistogram,
        op_hist: LogHistogram,
        /// The non-zero Definition 2.4 magnitudes, as the event loop
        /// graded them.
        magnitude_hist: LogHistogram,
        /// Per-fabric-queue rows, indexed by fabric queue id; empty
        /// for degenerate-fabric runs.
        fabric: Vec<QueueAcc>,
    }

    impl SimObs {
        pub(crate) fn new(node_count: usize) -> Self {
            let mut s = SCRATCH.with(std::cell::Cell::take).unwrap_or_default();
            s.nodes.clear();
            s.nodes.resize(node_count, NodeAcc::default());
            s.wait_buckets.clear();
            s.wait_buckets.resize(node_count * BUCKETS, 0);
            SimObs {
                nodes: s.nodes,
                wait_buckets: s.wait_buckets,
                pushes: 0,
                queue_depth_hist: LogHistogram::new(),
                wire_hist: LogHistogram::new(),
                op_hist: LogHistogram::new(),
                magnitude_hist: LogHistogram::new(),
                fabric: Vec::new(),
            }
        }

        fn fabric_acc(&mut self, queue: usize) -> &mut QueueAcc {
            if queue >= self.fabric.len() {
                self.fabric.resize(queue + 1, QueueAcc::default());
            }
            &mut self.fabric[queue]
        }

        /// A token joined fabric queue `queue`; `depth` is the
        /// occupancy including it.
        #[inline]
        pub(crate) fn fabric_depth(&mut self, queue: usize, depth: u64) {
            let acc = self.fabric_acc(queue);
            acc.max_depth = acc.max_depth.max(depth);
        }

        /// Fabric queue `queue` finished serving one token.
        #[inline]
        pub(crate) fn fabric_served(&mut self, queue: usize) {
            self.fabric_acc(queue).serviced += 1;
        }

        /// A full `queue` silently dropped an arrival.
        #[inline]
        pub(crate) fn fabric_drop(&mut self, queue: usize) {
            self.fabric_acc(queue).drops += 1;
        }

        /// A full `queue` NACKed an arrival back to its sender.
        #[inline]
        pub(crate) fn fabric_nack(&mut self, queue: usize) {
            self.fabric_acc(queue).nacks += 1;
        }

        /// An event was pushed. Returns whether the caller should
        /// sample the queue depth (the first push and every 64th after
        /// it, so even tiny runs record at least one sample). The
        /// caller reads the depth straight off the event queue — both
        /// queue kinds track their length in O(1) — so the recorder
        /// keeps no depth counter of its own and event pops need no
        /// hook at all.
        #[inline]
        pub(crate) fn on_push(&mut self) -> bool {
            self.pushes += 1;
            self.pushes & DEPTH_SAMPLE_MASK == 1
        }

        /// Records one sampled queue depth (only called when
        /// [`Self::on_push`] returned `true`).
        #[inline]
        pub(crate) fn record_depth(&mut self, depth: u64) {
            self.queue_depth_hist.record(depth);
        }

        /// A token toggled `node` after waiting `wait` cycles.
        #[inline]
        pub(crate) fn toggle(&mut self, node: usize, wait: u64) {
            let acc = &mut self.nodes[node];
            acc.visits += 1;
            acc.toggles += 1;
            acc.toggle_wait_total += wait;
            acc.wait_sum += wait;
            acc.wait_min = acc.wait_min.min(wait);
            acc.wait_max = acc.wait_max.max(wait);
            let b = &mut self.wait_buckets[node * BUCKETS + bucket_of(wait)];
            *b = b.saturating_add(1);
        }

        /// A prism pair diffracted at `node`: the occupant waited
        /// `occupant_wait`, the arriver left immediately — mirroring
        /// how the run-wide counters attribute the pair. Two wait
        /// samples land in the node's histogram parts (`occupant_wait`
        /// and 0), folded into one update here.
        #[inline]
        pub(crate) fn diffraction(&mut self, node: usize, occupant_wait: u64) {
            let acc = &mut self.nodes[node];
            acc.visits += 2;
            acc.diffracted += 2;
            acc.wait_sum += occupant_wait;
            acc.wait_min = 0;
            acc.wait_max = acc.wait_max.max(occupant_wait);
            let base = node * BUCKETS;
            let b = &mut self.wait_buckets[base + bucket_of(occupant_wait)];
            *b = b.saturating_add(1);
            let z = &mut self.wait_buckets[base];
            *z = z.saturating_add(1);
        }

        /// One wire hop cost `latency` cycles door-to-door.
        #[inline]
        pub(crate) fn wire(&mut self, latency: u64) {
            self.wire_hist.record(latency);
        }

        /// One operation completed after `latency` cycles, `magnitude`
        /// positions out of order (0 when linearizable).
        #[inline]
        pub(crate) fn op(&mut self, latency: u64, magnitude: u64) {
            self.op_hist.record(latency);
            if magnitude > 0 {
                self.magnitude_hist.record(magnitude);
            }
        }

        /// Freezes the recorder. `toggle_cost` reconstructs lock hold
        /// times (every simulated critical section holds for exactly
        /// the configured cost).
        pub(crate) fn finish(self, wait_cycles: u64, toggle_cost: u64) -> Option<MetricsSnapshot> {
            let SimObs {
                nodes,
                wait_buckets,
                queue_depth_hist,
                wire_hist,
                op_hist,
                magnitude_hist,
                fabric,
                ..
            } = self;
            let fabric = if fabric.is_empty() {
                None
            } else {
                Some(FabricTelemetry {
                    links: fabric
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.serviced + a.max_depth + a.drops + a.nacks > 0)
                        .map(|(queue, a)| LinkMetrics {
                            queue,
                            serviced: a.serviced,
                            max_depth: a.max_depth,
                            drops: a.drops,
                            nacks: a.nacks,
                        })
                        .collect(),
                })
            };
            let balancers: Vec<BalancerMetrics> = nodes
                .iter()
                .enumerate()
                .map(|(node, acc)| {
                    let mut buckets = [0u64; BUCKETS];
                    for (dst, &src) in buckets
                        .iter_mut()
                        .zip(&wait_buckets[node * BUCKETS..(node + 1) * BUCKETS])
                    {
                        *dst = u64::from(src);
                    }
                    BalancerMetrics {
                        node,
                        visits: acc.visits,
                        toggles: acc.toggles,
                        toggle_wait_total: acc.toggle_wait_total,
                        diffracted: acc.diffracted,
                        // in the simulator, queueing at the balancer *is*
                        // the lock wait, and every hold lasts toggle_cost
                        lock_wait_total: acc.toggle_wait_total,
                        lock_hold_total: acc.toggles * toggle_cost,
                        // every visit recorded exactly one wait sample
                        wait_hist: LogHistogram::from_parts(
                            buckets,
                            acc.visits,
                            acc.wait_sum,
                            acc.wait_min,
                            acc.wait_max,
                        ),
                    }
                })
                .collect();
            SCRATCH.with(|slot| {
                slot.set(Some(Scratch {
                    nodes,
                    wait_buckets,
                }));
            });
            let toggle_wait_total: u64 = balancers.iter().map(|b| b.toggle_wait_total).sum();
            let toggles: u64 = balancers.iter().map(|b| b.toggles).sum();
            let node_wait_total: u64 = balancers.iter().map(|b| b.wait_hist.sum()).sum();
            let visits: u64 = balancers.iter().map(|b| b.visits).sum();
            Some(MetricsSnapshot {
                schema_version: METRICS_SCHEMA_VERSION,
                wait_cycles,
                network: NetworkMetrics {
                    operations: op_hist.count(),
                    c1_estimate: wire_hist.min() as f64,
                    c2_estimate: wire_hist.max() as f64,
                    avg_toggle_wait: measure::avg_toggle_wait(
                        toggle_wait_total,
                        toggles,
                        node_wait_total,
                        visits,
                    ),
                    average_ratio: measure::average_ratio(
                        toggle_wait_total,
                        toggles,
                        node_wait_total,
                        visits,
                        wait_cycles,
                    ),
                    wire_latency_hist: wire_hist,
                    op_latency_hist: op_hist,
                    queue_depth_hist,
                    nonlinearizable: magnitude_hist.count(),
                    violation_magnitude_total: magnitude_hist.sum(),
                    violation_magnitude_max: magnitude_hist.max(),
                    violation_magnitude_hist: magnitude_hist,
                },
                balancers,
                fabric,
            })
        }
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use cnet_obs::MetricsSnapshot;

    /// The disabled recorder: zero-sized, every hook an empty inline
    /// body.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct SimObs;

    impl SimObs {
        #[inline(always)]
        pub(crate) fn new(_nodes: usize) -> Self {
            SimObs
        }

        #[inline(always)]
        pub(crate) fn on_push(&mut self) -> bool {
            false
        }

        #[inline(always)]
        pub(crate) fn record_depth(&mut self, _depth: u64) {}

        #[inline(always)]
        pub(crate) fn toggle(&mut self, _node: usize, _wait: u64) {}

        #[inline(always)]
        pub(crate) fn diffraction(&mut self, _node: usize, _occupant_wait: u64) {}

        #[inline(always)]
        pub(crate) fn wire(&mut self, _latency: u64) {}

        #[inline(always)]
        pub(crate) fn fabric_depth(&mut self, _queue: usize, _depth: u64) {}

        #[inline(always)]
        pub(crate) fn fabric_served(&mut self, _queue: usize) {}

        #[inline(always)]
        pub(crate) fn fabric_drop(&mut self, _queue: usize) {}

        #[inline(always)]
        pub(crate) fn fabric_nack(&mut self, _queue: usize) {}

        #[inline(always)]
        pub(crate) fn op(&mut self, _latency: u64, _magnitude: u64) {}

        #[inline(always)]
        pub(crate) fn finish(
            self,
            _wait_cycles: u64,
            _toggle_cost: u64,
        ) -> Option<MetricsSnapshot> {
            None
        }
    }
}

#[cfg(all(test, not(feature = "obs")))]
mod tests {
    use super::SimObs;

    #[test]
    fn disabled_recorder_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<SimObs>(), 0);
        let mut o = SimObs::new(64);
        o.on_push();
        o.toggle(0, 5);
        o.op(1, 0);
        assert!(o.finish(100, 2).is_none());
    }
}
