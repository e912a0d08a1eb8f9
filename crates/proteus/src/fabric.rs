//! The queued interconnect of a simulated run: per-route queue paths,
//! lossy transmission, drop-tail / NACK admission and retransmission.
//!
//! Everything here is dormant on the degenerate fabric every paper
//! figure uses: [`QueuePlan::new`] then builds no queues, `depart()`
//! in the parent module takes the flat wire, and no `Fabric*` event is
//! ever scheduled. A child module of [`super`] so the handlers can
//! stay methods of its private `Runner`.

use cnet_topology::{Fabric, FabricShape, Topology};

use super::{Ev, Route, Runner, COUNTER_BIT};
use crate::queue::Queue;

/// The farthest a fabric queue or retry can push one schedule: a
/// silent-drop retransmission waits the detection timeout
/// (`backoff_cap`) plus the capped backoff. The fabric's term of the
/// bucket-wheel horizon.
pub(super) fn horizon(fabric: &Fabric) -> u64 {
    if fabric.is_degenerate() {
        0
    } else {
        fabric
            .link
            .service
            .saturating_add(fabric.switch.service)
            .saturating_add(fabric.retry.backoff_cap.saturating_mul(2))
    }
}

/// The fabric queues of a run and the path each route takes through
/// them.
pub(super) struct QueuePlan {
    /// Per-queue service cycles.
    pub(super) service: Vec<u64>,
    /// Per-queue drop-tail capacities, parallel to `service`.
    pub(super) capacity: Vec<u32>,
    /// Route `r` traverses `stage[stage_base[r]..stage_base[r + 1]]`.
    pub(super) stage: Vec<u32>,
    pub(super) stage_base: Vec<u32>,
}

impl QueuePlan {
    /// The degenerate fabric gets *no* queues (`stage_base` stays
    /// empty) — `depart()` branches on that and takes the exact legacy
    /// wire path, RNG draw for RNG draw. Non-degenerate fabrics give
    /// every route a queue path: the shared switch tier (per the
    /// shape), then the destination's link queue; a Mesh wire has only
    /// its own private queue.
    pub(super) fn new(topology: &Topology, fabric: &Fabric, routes: &[Route]) -> Self {
        let node_count = topology.node_count();
        let width = topology.output_width();
        let mut service: Vec<u64> = Vec::new();
        let mut capacity: Vec<u32> = Vec::new();
        let mut stage: Vec<u32> = Vec::new();
        let mut stage_base: Vec<u32> = Vec::new();
        if !fabric.is_degenerate() {
            stage_base.push(0);
            if fabric.shape == FabricShape::Mesh {
                for _ in 0..routes.len() {
                    let q = service.len() as u32;
                    service.push(fabric.link.service);
                    capacity.push(fabric.link.capacity);
                    stage.push(q);
                    stage_base.push(stage.len() as u32);
                }
            } else {
                // per-destination link queues: nodes first, counters
                // after
                let dest_count = node_count + width;
                for _ in 0..dest_count {
                    service.push(fabric.link.service);
                    capacity.push(fabric.link.capacity);
                }
                // the shared switch tier
                let first_switch = dest_count as u32;
                let depth = topology.depth();
                let mut node_stage = vec![0u32; node_count];
                if fabric.shape == FabricShape::PerStage {
                    for id in topology.iter_nodes() {
                        node_stage[id.index()] = topology.layer_of(id) as u32 - 1;
                    }
                }
                let switch_count = match fabric.shape {
                    FabricShape::OneBigSwitch => 1,
                    // one switch per network layer, plus the counter
                    // stage past the last layer
                    FabricShape::PerStage => depth + 1,
                    FabricShape::TwoTier { spines } => spines as usize,
                    FabricShape::Mesh => unreachable!("handled above"),
                };
                for _ in 0..switch_count {
                    service.push(fabric.switch.service);
                    capacity.push(fabric.switch.capacity);
                }
                for (r, route) in routes.iter().enumerate() {
                    let dest_q = if route.target & COUNTER_BIT == 0 {
                        route.target
                    } else {
                        node_count as u32 + (route.target & !COUNTER_BIT)
                    };
                    let switch_q = first_switch
                        + match fabric.shape {
                            FabricShape::OneBigSwitch => 0,
                            FabricShape::PerStage => {
                                if route.target & COUNTER_BIT == 0 {
                                    node_stage[route.target as usize]
                                } else {
                                    depth as u32
                                }
                            }
                            FabricShape::TwoTier { spines } => r as u32 % spines,
                            FabricShape::Mesh => unreachable!("handled above"),
                        };
                    stage.push(switch_q);
                    stage.push(dest_q);
                    stage_base.push(stage.len() as u32);
                }
            }
        }
        QueuePlan {
            service,
            capacity,
            stage,
            stage_base,
        }
    }
}

impl<Q: Queue<Ev>> Runner<'_, Q> {
    /// One transmission attempt of `proc`'s current hop: the loss
    /// draw, then per-attempt jitter and the propagation delay toward
    /// the hop's first fabric queue.
    pub(super) fn fabric_send(&mut self, now: u64, proc: u32) {
        let link = self.config.fabric.link;
        self.fabric_stats.attempts += 1;
        if link.loss_per_million > 0 && self.rng.below(1_000_000) < u64::from(link.loss_per_million)
        {
            self.fabric_stats.loss_drops += 1;
            if self.fail_hop(now, proc, false) {
                return;
            }
            // attempt budget exhausted: force the delivery through
        }
        let jitter = if link.jitter == 0 {
            0
        } else {
            self.rng.inclusive(link.jitter)
        };
        let cost = self.routes[self.procs[proc as usize].hop_route as usize].cost;
        self.push(now + jitter + cost, Ev::FabricArrive { proc });
    }

    /// Registers a failed attempt (a loss or a refused enqueue) on
    /// `proc`'s current hop and schedules the retransmission: capped
    /// exponential backoff, plus the `backoff_cap` detection timeout
    /// when the failure was silent (`nacked == false`). Returns
    /// `false` when the per-hop attempt budget is exhausted — the
    /// caller must then force the token through so no workload can
    /// livelock on an unlucky stream.
    fn fail_hop(&mut self, now: u64, proc: u32, nacked: bool) -> bool {
        let retry = self.config.fabric.retry;
        let p = &mut self.procs[proc as usize];
        p.attempts += 1;
        if p.attempts >= retry.max_attempts {
            self.fabric_stats.forced_deliveries += 1;
            return false;
        }
        let backoff = retry.backoff(p.attempts);
        let delay = if nacked {
            backoff
        } else {
            retry.backoff_cap.saturating_add(backoff)
        };
        self.push(now + delay, Ev::FabricSend { proc });
        true
    }

    /// The token reaches its current fabric queue stage: drop-tail /
    /// NACK check against the queue's capacity, then FIFO admission.
    pub(super) fn fabric_arrive(&mut self, now: u64, proc: u32) {
        let p = &self.procs[proc as usize];
        let base = self.fabric_stage_base[p.hop_route as usize] as usize;
        let q = self.fabric_stage[base + p.hop_stage as usize] as usize;
        let cap = self.fabric_capacity[q];
        if cap > 0 && self.fabric_locks.occupancy(q) >= cap {
            if self.config.fabric.backpressure {
                // NACK: the sender learns immediately and backs off
                self.fabric_stats.nack_retries += 1;
                self.obs.fabric_nack(q);
                if self.fail_hop(now, proc, true) {
                    return;
                }
            } else {
                // drop-tail: the token vanishes; the sender only
                // notices after a detection timeout
                self.fabric_stats.full_drops += 1;
                self.obs.fabric_drop(q);
                if self.fail_hop(now, proc, false) {
                    return;
                }
            }
            // budget exhausted: admit past the bound (and count it)
        }
        if self.fabric_locks.acquire(q, proc) {
            self.push(now + self.fabric_service[q], Ev::FabricServe { proc });
        }
        // otherwise queued FIFO; FabricServe is scheduled on release
        let depth = u64::from(self.fabric_locks.occupancy(q));
        self.fabric_stats.max_queue_depth = self.fabric_stats.max_queue_depth.max(depth);
        self.obs.fabric_depth(q, depth);
    }

    /// The queue head finishes service: hand the queue to the next
    /// waiter, then advance this token to the next stage or deliver it
    /// to its destination node/counter.
    pub(super) fn fabric_serve(&mut self, now: u64, proc: u32) {
        let route_idx = self.procs[proc as usize].hop_route as usize;
        let stage = self.procs[proc as usize].hop_stage as usize;
        let base = self.fabric_stage_base[route_idx] as usize;
        let stages = self.fabric_stage_base[route_idx + 1] as usize - base;
        let q = self.fabric_stage[base + stage] as usize;
        self.obs.fabric_served(q);
        if let Some(next) = self.fabric_locks.release(q) {
            self.push(now + self.fabric_service[q], Ev::FabricServe { proc: next });
        }
        if stage + 1 < stages {
            self.procs[proc as usize].hop_stage += 1;
            self.push(now, Ev::FabricArrive { proc });
            return;
        }
        // delivered: record the hop's true wire latency and hand the
        // token to its destination
        let route = self.routes[route_idx];
        self.obs.wire(now - self.procs[proc as usize].hop_depart);
        if route.target & COUNTER_BIT == 0 {
            self.push(
                now,
                Ev::ArriveNode {
                    proc,
                    node: route.target,
                },
            );
        } else {
            self.push(
                now,
                Ev::ArriveCounter {
                    proc,
                    counter: route.target & !COUNTER_BIT,
                },
            );
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use cnet_topology::{constructions, FabricShape, LinkSpec, RetryPolicy, SwitchSpec};

    use crate::{ArrivalProcess, RunStats, SimConfig, Simulator, Workload};

    fn wl(processors: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(processors, 0, 0)
        }
    }

    /// A queued fabric: finite per-queue service and capacity, a
    /// configurable loss rate, one shape per test.
    pub(in crate::sim) fn fabric(
        shape: FabricShape,
        loss_per_million: u32,
        backpressure: bool,
    ) -> crate::Fabric {
        crate::Fabric {
            shape,
            link: LinkSpec {
                delay: 20,
                jitter: 40,
                service: 8,
                capacity: 4,
                loss_per_million,
            },
            switch: SwitchSpec {
                service: 4,
                capacity: 8,
            },
            backpressure,
            retry: RetryPolicy {
                backoff_base: 16,
                backoff_cap: 256,
                max_attempts: 16,
            },
        }
    }

    fn run_shape(shape: FabricShape, loss: u32, backpressure: bool, ops: usize) -> RunStats {
        let net = constructions::bitonic(8).unwrap();
        let config = SimConfig {
            fabric: fabric(shape, loss, backpressure),
            ..SimConfig::queue_lock(0xFAB)
        };
        Simulator::new(&net, config).run(&wl(16, ops))
    }

    fn assert_counts_exactly(stats: &RunStats, ops: usize) {
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..ops as u64).collect::<Vec<u64>>());
        assert!(stats.output_counts.is_step(), "{}", stats.output_counts);
    }

    #[test]
    fn every_shape_counts_exactly() {
        for shape in [
            FabricShape::OneBigSwitch,
            FabricShape::PerStage,
            FabricShape::TwoTier { spines: 3 },
            FabricShape::Mesh,
        ] {
            let stats = run_shape(shape, 0, false, 400);
            assert_counts_exactly(&stats, 400);
            assert!(
                stats.fabric.attempts >= 400,
                "{shape:?}: attempts {}",
                stats.fabric.attempts
            );
        }
    }

    #[test]
    fn degenerate_fabric_records_no_fabric_stats() {
        let net = constructions::bitonic(8).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(0xFAB)).run(&wl(16, 200));
        assert_eq!(stats.fabric, crate::FabricStats::default());
        assert!(stats.summary(0).fabric.is_none());
    }

    #[test]
    fn loss_is_counted_and_no_token_vanishes() {
        // 5% loss: drops must be observed, yet every op still
        // completes with a unique value — retransmission never loses
        // or duplicates a token
        let stats = run_shape(FabricShape::OneBigSwitch, 50_000, false, 400);
        assert!(stats.fabric.loss_drops > 0, "{:?}", stats.fabric);
        assert!(
            stats.fabric.attempts > 400,
            "losses must force extra attempts: {:?}",
            stats.fabric
        );
        assert_counts_exactly(&stats, 400);
    }

    #[test]
    fn backpressure_nacks_instead_of_dropping() {
        let open = Workload {
            arrival: ArrivalProcess::Open { mean_gap: 1 },
            ..wl(64, 600)
        };
        let net = constructions::bitonic(8).unwrap();
        let tight = |backpressure| crate::Fabric {
            link: LinkSpec {
                capacity: 1,
                service: 60,
                ..fabric(FabricShape::OneBigSwitch, 0, backpressure).link
            },
            ..fabric(FabricShape::OneBigSwitch, 0, backpressure)
        };
        let nacked = Simulator::new(
            &net,
            SimConfig {
                fabric: tight(true),
                ..SimConfig::queue_lock(0xFAB)
            },
        )
        .run(&open);
        assert!(nacked.fabric.nack_retries > 0, "{:?}", nacked.fabric);
        assert_eq!(nacked.fabric.full_drops, 0, "{:?}", nacked.fabric);
        assert_counts_exactly(&nacked, 600);

        let dropped = Simulator::new(
            &net,
            SimConfig {
                fabric: tight(false),
                ..SimConfig::queue_lock(0xFAB)
            },
        )
        .run(&open);
        assert!(dropped.fabric.full_drops > 0, "{:?}", dropped.fabric);
        assert_eq!(dropped.fabric.nack_retries, 0, "{:?}", dropped.fabric);
        assert_counts_exactly(&dropped, 600);
    }

    #[test]
    fn refusal_accounting_balances() {
        // every refused attempt is either retried later or forced
        // through once the budget runs out; the counters must agree
        let stats = run_shape(FabricShape::PerStage, 20_000, false, 500);
        let refused = stats.fabric.loss_drops + stats.fabric.full_drops;
        assert_eq!(stats.fabric.refusals(), refused);
        assert!(stats.fabric.forced_deliveries <= refused);
        assert_eq!(
            stats.fabric.retries(),
            refused - stats.fabric.forced_deliveries
        );
        assert_counts_exactly(&stats, 500);
    }

    #[test]
    fn fabric_runs_are_reproducible() {
        let a = run_shape(FabricShape::TwoTier { spines: 2 }, 10_000, true, 300);
        let b = run_shape(FabricShape::TwoTier { spines: 2 }, 10_000, true, 300);
        assert_eq!(a.operations, b.operations);
        assert_eq!(a.fabric, b.fabric);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn queue_depth_telemetry_sees_contention() {
        let stats = run_shape(FabricShape::OneBigSwitch, 0, false, 400);
        assert!(
            stats.fabric.max_queue_depth > 1,
            "16 procs through one switch must queue: {:?}",
            stats.fabric
        );
    }

    #[test]
    fn exhausted_attempts_force_delivery() {
        // certain loss with a budget of 2 attempts: every token is
        // forced through on its second try, none are lost
        let net = constructions::bitonic(4).unwrap();
        let config = SimConfig {
            fabric: crate::Fabric {
                retry: RetryPolicy {
                    backoff_base: 8,
                    backoff_cap: 32,
                    max_attempts: 2,
                },
                ..fabric(FabricShape::OneBigSwitch, 1_000_000, false)
            },
            ..SimConfig::queue_lock(0xFAB)
        };
        let stats = Simulator::new(&net, config).run(&wl(8, 100));
        assert!(stats.fabric.forced_deliveries > 0, "{:?}", stats.fabric);
        assert_counts_exactly(&stats, 100);
    }
}
