//! The queued interconnect of a simulated run: the one shared switch
//! and the per-destination link queues, lossy transmission, drop-tail
//! / NACK admission and retransmission.
//!
//! Everything here is dormant on the degenerate fabric every paper
//! figure uses: [`QueuePlan::new`] then builds no queues, `depart()`
//! in the parent module takes the flat wire, and no `Fabric*` event is
//! ever scheduled. A child module of [`super`] so the handlers can
//! stay methods of its private `Runner`.

use cnet_topology::{Fabric, Topology};

use super::{Ev, Runner, COUNTER_BIT};
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

/// The fabric queues of a run. Every hop takes the same path: the
/// shared switch, then its destination's link queue.
pub(super) struct QueuePlan {
    /// Per-queue service cycles.
    pub(super) service: Vec<u64>,
    /// Per-queue drop-tail capacities, parallel to `service`.
    pub(super) capacity: Vec<u32>,
}

impl QueuePlan {
    /// The degenerate fabric gets *no* queues — `depart()` branches on
    /// that and takes the exact legacy wire path, RNG draw for RNG
    /// draw. Otherwise queue ids are the destinations' link queues,
    /// nodes first and counters after, then the switch last.
    pub(super) fn new(topology: &Topology, fabric: &Fabric) -> Self {
        if fabric.is_degenerate() {
            return QueuePlan {
                service: Vec::new(),
                capacity: Vec::new(),
            };
        }
        let links = topology.node_count() + topology.output_width();
        let mut service = vec![fabric.link.service; links];
        let mut capacity = vec![fabric.link.capacity; links];
        service.push(fabric.switch.service);
        capacity.push(fabric.switch.capacity);
        QueuePlan { service, capacity }
    }
}

impl<Q: Queue<Ev>> Runner<'_, Q> {
    /// One transmission attempt of `proc`'s current hop: the loss
    /// draw, then per-attempt jitter and the propagation delay toward
    /// the hop's first fabric queue.
    pub(super) fn fabric_send(&mut self, now: u64, proc: u32) {
        let link = self.config.fabric.link;
        self.sim.fabric.attempts += 1;
        if link.loss_per_million > 0 && self.rng.below(1_000_000) < u64::from(link.loss_per_million)
        {
            self.sim.fabric.loss_drops += 1;
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
        self.push(now + jitter + link.delay, Ev::FabricArrive { proc });
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
            self.sim.fabric.forced_deliveries += 1;
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
        let q = self.hop_queue(proc);
        let cap = self.fabric_capacity[q];
        if cap > 0 && self.fabric_locks.occupancy(q) >= cap {
            if self.config.fabric.backpressure {
                // NACK: the sender learns immediately and backs off
                self.sim.fabric.nack_retries += 1;
                self.obs.fabric_nack(q);
                if self.fail_hop(now, proc, true) {
                    return;
                }
            } else {
                // drop-tail: the token vanishes; the sender only
                // notices after a detection timeout
                self.sim.fabric.full_drops += 1;
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
        self.sim.fabric.max_queue_depth = self.sim.fabric.max_queue_depth.max(depth);
        self.obs.fabric_depth(q, depth);
    }

    /// The queue head finishes service: hand the queue to the next
    /// waiter, then advance this token to the next stage or deliver it
    /// to its destination node/counter.
    pub(super) fn fabric_serve(&mut self, now: u64, proc: u32) {
        let q = self.hop_queue(proc);
        self.obs.fabric_served(q);
        if let Some(next) = self.fabric_locks.release(q) {
            self.push(now + self.fabric_service[q], Ev::FabricServe { proc: next });
        }
        let p = &mut self.procs[proc as usize];
        if !p.at_link {
            // through the switch: on to the destination's link queue
            p.at_link = true;
            self.push(now, Ev::FabricArrive { proc });
            return;
        }
        // delivered: record the hop's true wire latency and hand the
        // token to its destination
        let target = self.routes[p.hop_route as usize];
        self.obs.wire(now - p.hop_depart);
        if target & COUNTER_BIT == 0 {
            self.push(now, Ev::ArriveNode { proc, node: target });
        } else {
            self.push(
                now,
                Ev::ArriveCounter {
                    proc,
                    counter: target & !COUNTER_BIT,
                },
            );
        }
    }

    /// The fabric queue `proc`'s hop is in: the switch (the last
    /// queue) until it has been served there, then the destination's
    /// link queue. Counters' link queues follow the nodes', as their
    /// locks do in the balancer `LockBank`, so both share
    /// `counter_lock_base`.
    fn hop_queue(&self, proc: u32) -> usize {
        let p = &self.procs[proc as usize];
        if !p.at_link {
            return self.fabric_service.len() - 1;
        }
        let target = self.routes[p.hop_route as usize];
        if target & COUNTER_BIT == 0 {
            target as usize
        } else {
            self.counter_lock_base + (target & !COUNTER_BIT) as usize
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use cnet_topology::{constructions, LinkSpec, RetryPolicy, SwitchSpec};

    use crate::{SimConfig, Simulator};
    use cnet_engine::{ArrivalProcess, FabricStats, RunStats, Workload};

    fn wl(processors: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(processors, 0, 0)
        }
    }

    /// A queued fabric: finite per-queue service and capacity and a
    /// configurable loss rate.
    pub(in crate::sim) fn fabric(loss_per_million: u32, backpressure: bool) -> crate::Fabric {
        crate::Fabric {
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

    fn run_queued(loss: u32, backpressure: bool, ops: usize) -> RunStats {
        let net = constructions::bitonic(8).unwrap();
        let config = SimConfig {
            fabric: fabric(loss, backpressure),
            ..SimConfig::queue_lock(0xFAB)
        };
        Simulator::new(&net, config).run(&wl(16, ops))
    }

    fn fabric_of(stats: &RunStats) -> FabricStats {
        stats
            .sim
            .expect("a simulated run keeps its counters")
            .fabric
    }

    fn assert_counts_exactly(stats: &RunStats, ops: usize) {
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..ops as u64).collect::<Vec<u64>>());
        assert!(stats.output_counts.is_step(), "{}", stats.output_counts);
    }

    #[test]
    fn degenerate_fabric_records_no_fabric_stats() {
        let net = constructions::bitonic(8).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(0xFAB)).run(&wl(16, 200));
        assert_eq!(fabric_of(&stats), FabricStats::default());
        assert!(stats.summary(0).fabric.is_none());
    }

    #[test]
    fn loss_is_counted_and_no_token_vanishes() {
        // 5% loss: drops must be observed, yet every op still
        // completes with a unique value — retransmission never loses
        // or duplicates a token
        let stats = run_queued(50_000, false, 400);
        let f = fabric_of(&stats);
        assert!(f.loss_drops > 0, "{f:?}");
        assert!(f.attempts > 400, "losses must force extra attempts: {f:?}");
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
                ..fabric(0, backpressure).link
            },
            ..fabric(0, backpressure)
        };
        let nacked = Simulator::new(
            &net,
            SimConfig {
                fabric: tight(true),
                ..SimConfig::queue_lock(0xFAB)
            },
        )
        .run(&open);
        let f = fabric_of(&nacked);
        assert!(f.nack_retries > 0, "{f:?}");
        assert_eq!(f.full_drops, 0, "{f:?}");
        assert_counts_exactly(&nacked, 600);

        let dropped = Simulator::new(
            &net,
            SimConfig {
                fabric: tight(false),
                ..SimConfig::queue_lock(0xFAB)
            },
        )
        .run(&open);
        let f = fabric_of(&dropped);
        assert!(f.full_drops > 0, "{f:?}");
        assert_eq!(f.nack_retries, 0, "{f:?}");
        assert_counts_exactly(&dropped, 600);
    }

    #[test]
    fn refusal_accounting_balances() {
        // every refused attempt is either retried later or forced
        // through once the budget runs out; the counters must agree
        let stats = run_queued(20_000, false, 500);
        let f = fabric_of(&stats);
        let refused = f.loss_drops + f.full_drops;
        assert_eq!(f.refusals(), refused);
        assert!(f.forced_deliveries <= refused);
        assert_eq!(f.retries(), refused - f.forced_deliveries);
        assert_counts_exactly(&stats, 500);
    }

    #[test]
    fn fabric_runs_are_reproducible() {
        let a = run_queued(10_000, true, 300);
        let b = run_queued(10_000, true, 300);
        assert_eq!(a.operations, b.operations);
        assert_eq!(fabric_of(&a), fabric_of(&b));
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn queue_depth_telemetry_sees_contention() {
        let stats = run_queued(0, false, 400);
        let f = fabric_of(&stats);
        assert!(
            f.max_queue_depth > 1,
            "16 procs through one switch must queue: {f:?}"
        );
        assert!(f.attempts >= 400, "{f:?}");
        assert_counts_exactly(&stats, 400);
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
                ..fabric(1_000_000, false)
            },
            ..SimConfig::queue_lock(0xFAB)
        };
        let stats = Simulator::new(&net, config).run(&wl(8, 100));
        let f = fabric_of(&stats);
        assert!(f.forced_deliveries > 0, "{f:?}");
        assert_counts_exactly(&stats, 100);
    }
}
