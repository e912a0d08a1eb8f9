//! The discrete-event simulation engine.
//!
//! # Hot-loop layout
//!
//! The per-event handlers touch only flat, pre-sized vectors:
//!
//! * toggles in one dense `Vec<Toggle>` (8 bytes per node: the output
//!   the next token takes and the fan-out it wraps at — no division);
//! * every FIFO lock (balancers *and* counters) in one [`LockBank`]
//!   threaded through a single per-processor `next` array — no
//!   per-lock heap buffers;
//! * wiring flattened into a routing table of `(target, fixed cost)`
//!   entries, where the fixed cost folds the link cost and the mesh
//!   hop distance computed once at construction — the topology graph
//!   is never consulted while events are in flight; a processor's
//!   injected `WaitMode::Fixed` wait is likewise worked out once per
//!   run;
//! * events packed to `u32` fields so queue entries stay small;
//! * one event queue for every run ([`crate::queue`]), which sorts
//!   only what arrives unsorted: `ToggleDone` is always pushed
//!   `toggle_cost` cycles ahead and `PrismTimeout` always `spin_window`
//!   ahead, so [`Runner::request_lock`], the lock hand-off in
//!   [`Runner::toggle_done`] and the prism miss in
//!   [`Runner::arrive_node`] push through a FIFO lane each; which
//!   events ride a lane is decided here, by event kind, and nowhere
//!   else. Every other event goes through the bucket wheel, except
//!   two that skip the queue when it can be shown they are the next
//!   pop: the closed loop's `StartOp` one cycle after a completion
//!   ([`Runner::counter_done`]) and a start's `ArriveNode` at its entry
//!   node in the same cycle ([`Runner::start_op`]). When the queue's
//!   `next_time()` is strictly later than the event's time, nothing
//!   pending can pop first, so the handler runs at once
//!   ([`Runner::takes_next_pop`]) — decided by that comparison alone;
//! * Definition 2.4 is graded without a table: a processor records its
//!   *witness* (the largest value among completions that ended before
//!   it started, from `cnet_timing`'s `StartWitness`) when
//!   its operation starts, and the completion grades
//!   `witness - value`, 0 if negative.
//!
//! The queued-fabric handlers, dormant on the degenerate fabric every
//! paper figure uses, live in the child module `fabric`.
//!
//! None of this changes what is simulated: event order, RNG draw
//! order, and therefore every statistic are bit-identical to the
//! straightforward implementation (the golden-trace tests pin this).

use cnet_engine::{Arrivals, ProcessMap, RunStats, SimCounters, SimRng, WaitMode, Workload};
use cnet_timing::linearizability::StartWitness;
use cnet_timing::Operation;
use cnet_topology::{OutputCounts, Topology, WireEnd};

use crate::config::{Placement, SimConfig};
use crate::node::{LockBank, Prism};
use crate::obs::SimObs;
use crate::queue::{EventQueue, Queue};

// src/fabric.rs, a child of this module: the handlers there are
// methods of the private `Runner`
#[path = "fabric.rs"]
mod fabric;
use fabric::QueuePlan;

/// The events a simulated processor can experience.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Begin the next counting operation (or retire if the quota is
    /// reached).
    StartOp { proc: u32 },
    /// Arrive at a balancer node.
    ArriveNode { proc: u32, node: u32 },
    /// Finish the balancer critical section: toggle, route, release.
    ToggleDone { proc: u32, node: u32 },
    /// A prism slot occupancy timed out without a collision.
    PrismTimeout {
        proc: u32,
        node: u32,
        slot: u32,
        stamp: u32,
    },
    /// (Re)transmit the current hop onto the fabric: loss draw,
    /// jitter draw, propagation (non-degenerate fabrics only).
    FabricSend { proc: u32 },
    /// Arrive at the current fabric queue stage of the hop.
    FabricArrive { proc: u32 },
    /// The fabric queue finishes serving this token at its stage.
    FabricServe { proc: u32 },
    /// Arrive at an output counter (and queue if it is busy).
    ArriveCounter { proc: u32, counter: u32 },
    /// The counter finishes serving this processor's fetch-and-inc.
    CounterDone { proc: u32, counter: u32 },
}

/// Per-processor simulation state.
#[derive(Debug, Clone)]
struct Proc {
    /// The wait injected after each node under `WaitMode::Fixed`: `W`
    /// for a delayed processor, 0 for the others.
    fixed_wait: u64,
    input: u32,
    /// Entry node behind this processor's network input.
    entry: u32,
    op_start: u64,
    /// Arrival time at the node currently being visited (for `Tog`).
    arrive_time: u64,
    /// Route index of the hop currently in the fabric (non-degenerate
    /// fabrics only).
    hop_route: u32,
    /// Which stage of the hop's queue path the token is in.
    hop_stage: u32,
    /// Failed transmission attempts on the current hop.
    attempts: u32,
    /// When the current hop left its node, for wire-latency telemetry.
    hop_depart: u64,
    /// The Definition 2.4 witness of the operation in flight: the
    /// largest value among completions that ended before it started.
    witness: u64,
}

/// High bit of a route target: set when the target is a counter.
const COUNTER_BIT: u32 = 1 << 31;

/// The queue lane of [`Ev::ToggleDone`]: always `toggle_cost` cycles
/// ahead of the event that schedules it.
const TOGGLE_LANE: usize = 0;

/// The queue lane of [`Ev::PrismTimeout`]: always `spin_window` cycles
/// ahead.
const PRISM_LANE: usize = 1;

#[cfg(test)]
thread_local! {
    /// Events [`Runner::takes_next_pop`] handed straight to their
    /// handler on this thread.
    static HANDED_OFF: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A balancer's toggle: the `t`-th token through it leaves on output
/// `t mod fan_out`, kept as the output the next token takes.
#[derive(Debug, Clone, Copy)]
struct Toggle {
    next: u32,
    fan_out: u32,
}

impl Toggle {
    /// Routes one token: its output port.
    #[inline]
    fn route(&mut self) -> usize {
        let out = self.next;
        self.next += 1;
        if self.next == self.fan_out {
            self.next = 0;
        }
        out as usize
    }
}

/// One precomputed wire: where output `out` of a node leads and what
/// the traversal costs before jitter and injected waits.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// Destination node index, or counter index with [`COUNTER_BIT`]
    /// set.
    target: u32,
    /// The link delay plus the mesh hop cost between the two homes.
    cost: u64,
}

/// The deterministic discrete-event simulator.
///
/// See the [crate documentation](crate) for the machine model. A
/// `Simulator` is cheap to construct; all mutable state lives inside
/// [`Simulator::run`], so one simulator can run many workloads.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    topology: &'a Topology,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the given network and machine model.
    #[must_use]
    pub fn new(topology: &'a Topology, config: SimConfig) -> Self {
        Simulator { topology, config }
    }

    /// The simulated network.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// Runs the workload to completion and returns the measurements.
    ///
    /// Processors start staggered by one cycle each (ids `0..n` start
    /// at times `0..n`) and immediately begin a new operation whenever
    /// the previous one completes, until `workload.total_ops`
    /// operations have *started*; every started operation completes.
    ///
    /// Every run, whatever its processor count, arrival process or
    /// fabric, goes through the one production event queue (the
    /// crate-private `queue` module).
    #[must_use]
    pub fn run(&self, workload: &Workload) -> RunStats {
        let (mut stats, recorder) = self.run_instrumented(workload);
        stats.metrics = recorder.finish();
        stats
    }

    /// Like [`Simulator::run`], but hands the metric recorder back
    /// unfrozen so the caller can keep snapshot assembly out of its
    /// own timing window: the returned [`RunStats`] has `metrics:
    /// None`, and [`MetricsRecorder::finish`] builds the snapshot.
    /// [`crate::SimBackend`] times its window around this call —
    /// recording stays inside the measurement, export does not,
    /// mirroring how report serialization is already outside the
    /// per-cell wall-clock.
    #[must_use]
    pub(crate) fn run_instrumented(&self, workload: &Workload) -> (RunStats, MetricsRecorder) {
        let (stats, obs) =
            Runner::<EventQueue<Ev>>::new(self.topology, self.config, workload).run();
        (
            stats,
            MetricsRecorder {
                obs,
                wait_cycles: workload.wait_cycles,
                toggle_cost: self.config.toggle_cost,
            },
        )
    }
}

/// A run's unfrozen metric recorder (see [`Simulator::run_instrumented`]).
/// Without the `obs` feature this holds the zero-sized inert recorder
/// and [`MetricsRecorder::finish`] returns `None`.
#[derive(Debug)]
pub(crate) struct MetricsRecorder {
    obs: SimObs,
    wait_cycles: u64,
    toggle_cost: u64,
}

impl MetricsRecorder {
    /// Freezes the recorder into the run's metrics snapshot.
    #[must_use]
    pub(crate) fn finish(self) -> Option<cnet_obs::MetricsSnapshot> {
        self.obs.finish(self.wait_cycles, self.toggle_cost)
    }
}

struct Runner<'a, Q> {
    config: SimConfig,
    workload: &'a Workload,
    queue: Q,
    /// Dense per-node toggle state, indexed by `NodeId::index`.
    toggles: Vec<Toggle>,
    /// Per-node prisms (empty vector when the config has none).
    prisms: Vec<Option<Prism>>,
    /// Locks `0..node_count` guard toggles; locks
    /// `node_count..node_count + output_width` guard counters.
    locks: LockBank,
    /// First counter lock in `locks`.
    counter_lock_base: usize,
    counters: Vec<u64>,
    output_width: u64,
    procs: Vec<Proc>,
    rng: SimRng,
    /// The arrival instants not yet scheduled under an open-loop
    /// arrival process, else empty: the engine's schedule, the one
    /// every backend replays for a `(seed, workload)` pair, drawn as
    /// tokens start. It draws from a stream of its own, so the main
    /// stream (prism slots, jitter, random waits) is the same whether
    /// or not arrivals are scheduled.
    arrivals: Arrivals<'a>,
    /// Every completion so far, as far as Definition 2.4 needs it:
    /// pops are time-ordered, so a start reads its exact witness here.
    completions: StartWitness,
    nonlinearizable: usize,
    stamp: u32,
    started_ops: usize,
    operations: Vec<Operation>,
    completed_by: Vec<u32>,
    /// Toggles, prism pairs, lock queues and the fabric's refusals.
    sim: SimCounters,
    node_visits: u64,
    node_wait_total: u64,
    sim_time: u64,
    /// Flat routing table: output `out` of node `i` is
    /// `routes[route_base[i] + out]`.
    routes: Vec<Route>,
    route_base: Vec<u32>,
    /// Fabric queue FIFO state; an empty bank on the degenerate
    /// fabric, whose wires never queue.
    fabric_locks: LockBank,
    /// Per-fabric-queue service cycles / drop-tail capacities,
    /// parallel to `fabric_locks`.
    fabric_service: Vec<u64>,
    fabric_capacity: Vec<u32>,
    /// Per-route queue paths: route `r` traverses
    /// `fabric_stage[fabric_stage_base[r]..fabric_stage_base[r + 1]]`.
    /// Empty on the degenerate fabric — the flag `depart()` branches
    /// on.
    fabric_stage: Vec<u32>,
    fabric_stage_base: Vec<u32>,
    /// Metric recorder — zero-sized and inert without the `obs`
    /// feature, so the hot loop keeps its layout and speed.
    obs: SimObs,
}

fn mesh_cell(index: usize, side: usize) -> (i64, i64) {
    ((index % side) as i64, ((index / side) % side) as i64)
}

/// Extra wire cost from mesh distance between two homes.
fn hop_cost(placement: Placement, from: (i64, i64), to: (i64, i64)) -> u64 {
    match placement {
        Placement::Uniform => 0,
        Placement::Mesh { per_hop, .. } => {
            let d = (from.0 - to.0).unsigned_abs() + (from.1 - to.1).unsigned_abs();
            per_hop * d
        }
    }
}

/// The farthest ahead of "now" any single schedule can land, from the
/// run's configuration — the bucket-wheel horizon. Saturating: an
/// astronomically large parameter simply overflows into the queue's
/// heap fallback.
fn schedule_horizon(config: &SimConfig, workload: &Workload, arrivals: &Arrivals<'_>) -> u64 {
    let mesh_max = match config.placement {
        Placement::Uniform => 0,
        Placement::Mesh { side, per_hop } => per_hop.saturating_mul(2 * (side.max(1) as u64 - 1)),
    };
    let prism_max = config
        .prism
        .map_or(0, |p| p.spin_window.saturating_add(p.pair_cost));
    let step = [
        config.fabric.link.delay,
        config.fabric.link.jitter,
        config.toggle_cost,
        config.counter_cost,
        workload.wait_cycles,
        prism_max,
        mesh_max,
        arrivals.max_gap(),
        fabric::horizon(&config.fabric),
        1,
    ]
    .iter()
    .fold(0u64, |acc, &x| acc.saturating_add(x));
    // processors cover the initial start stagger at times 0..n
    step.max(workload.processors as u64)
}

impl<'a, Q: Queue<Ev>> Runner<'a, Q> {
    fn new(topology: &'a Topology, config: SimConfig, workload: &'a Workload) -> Self {
        let node_count = topology.node_count();
        let width = topology.output_width();

        // mesh homes (identity cost under uniform placement)
        let node_home = |i: usize| match config.placement {
            Placement::Uniform => (0, 0),
            Placement::Mesh { side, .. } => mesh_cell(i, side.max(1)),
        };
        let counter_home = |c: usize| match config.placement {
            Placement::Uniform => (0, 0),
            Placement::Mesh { side, .. } => mesh_cell(c + node_count, side.max(1)),
        };

        // flatten the wiring into the routing table
        let mut route_base = vec![0u32; node_count + 1];
        for id in topology.iter_nodes() {
            route_base[id.index() + 1] = topology.fan_out(id) as u32;
        }
        for i in 0..node_count {
            route_base[i + 1] += route_base[i];
        }
        let mut routes = vec![Route { target: 0, cost: 0 }; route_base[node_count] as usize];
        for id in topology.iter_nodes() {
            let from = node_home(id.index());
            for out in 0..topology.fan_out(id) {
                let (target, to) = match topology.output_wire(id, out) {
                    WireEnd::Node { node, .. } => (node.index() as u32, node_home(node.index())),
                    WireEnd::Counter { index } => (index as u32 | COUNTER_BIT, counter_home(index)),
                };
                routes[route_base[id.index()] as usize + out] = Route {
                    target,
                    cost: config.fabric.link.delay + hop_cost(config.placement, from, to),
                };
            }
        }

        let mut prisms: Vec<Option<Prism>> = Vec::new();
        if let Some(p) = config.prism {
            prisms.resize(node_count, None);
            for id in topology.iter_nodes() {
                // prisms only make sense on binary balancers
                if topology.fan_out(id) == 2 {
                    prisms[id.index()] = Some(Prism::new(p.slots_at_layer(topology.layer_of(id))));
                }
            }
        }

        let plan = QueuePlan::new(topology, &config.fabric, &routes);

        let arrivals = Arrivals::new(workload, config.seed);

        // Closed loop: one slot per re-injecting processor, as always.
        // Open loop: every arriving token is its own slot (several from
        // the same logical client can be in flight at once); token `i`
        // borrows processor `i mod n`'s injected wait and input wire.
        let token_slots = if workload.processors == 0 {
            0
        } else if workload.is_open_loop() {
            workload.total_ops
        } else {
            workload.processors
        };
        assert!(
            u32::try_from(token_slots).is_ok(),
            "too many tokens for the event encoding"
        );
        let procs = (0..token_slots)
            .map(|slot| {
                let client = if workload.is_open_loop() {
                    slot % workload.processors
                } else {
                    slot
                };
                let input = client % topology.input_width();
                Proc {
                    fixed_wait: if workload.is_delayed(client) {
                        workload.wait_cycles
                    } else {
                        0
                    },
                    input: input as u32,
                    entry: topology.input(input).node.index() as u32,
                    op_start: 0,
                    arrive_time: 0,
                    hop_route: 0,
                    hop_stage: 0,
                    attempts: 0,
                    hop_depart: 0,
                    witness: 0,
                }
            })
            .collect();

        Runner {
            config,
            workload,
            queue: Q::with_horizon(schedule_horizon(&config, workload, &arrivals), token_slots),
            toggles: route_base
                .windows(2)
                .map(|outs| Toggle {
                    next: 0,
                    fan_out: (outs[1] - outs[0]).max(1),
                })
                .collect(),
            prisms,
            locks: LockBank::new(node_count + width, token_slots),
            counter_lock_base: node_count,
            counters: vec![0; width],
            output_width: width as u64,
            procs,
            rng: SimRng::seed_from_u64(config.seed),
            arrivals,
            completions: StartWitness::default(),
            nonlinearizable: 0,
            stamp: 0,
            started_ops: 0,
            operations: Vec::with_capacity(workload.total_ops),
            completed_by: Vec::with_capacity(workload.total_ops),
            sim: SimCounters::default(),
            node_visits: 0,
            node_wait_total: 0,
            sim_time: 0,
            routes,
            route_base,
            fabric_locks: LockBank::new(plan.service.len(), token_slots),
            fabric_service: plan.service,
            fabric_capacity: plan.capacity,
            fabric_stage: plan.stage,
            fabric_stage_base: plan.stage_base,
            obs: SimObs::new(node_count),
        }
    }

    #[inline]
    fn push(&mut self, time: u64, ev: Ev) {
        self.queue.push(time, ev);
        self.sample_depth();
    }

    /// [`Runner::push`] for an event kind whose delay is a constant of
    /// the run (see [`Queue::push_lane`]).
    #[inline]
    fn push_lane(&mut self, lane: usize, time: u64, ev: Ev) {
        self.queue.push_lane(lane, time, ev);
        self.sample_depth();
    }

    /// Whether an event this handler would schedule at `time` is by
    /// construction the queue's next pop — nothing pending is due at or
    /// before `time`. The caller then runs the event's handler at once
    /// instead of pushing it, and this accounts for the push and pop it
    /// replaces: `sim_time` moves as the pop would move it, and the
    /// depth sampler sees a push at the depth it would have had. The
    /// event takes no sequence number, which moves no pop: no pending
    /// event can tie with it.
    #[inline]
    fn takes_next_pop(&mut self, time: u64) -> bool {
        if self.queue.next_time() <= time {
            return false;
        }
        self.sim_time = time;
        if self.obs.on_push() {
            self.obs.record_depth(self.queue.len() as u64 + 1);
        }
        #[cfg(test)]
        HANDED_OFF.with(|n| n.set(n.get() + 1));
        true
    }

    /// Feeds the queue-depth histogram after a push.
    #[inline]
    fn sample_depth(&mut self) {
        if self.obs.on_push() {
            self.obs.record_depth(self.queue.len() as u64);
        }
    }

    fn run(mut self) -> (RunStats, SimObs) {
        if self.workload.is_open_loop() {
            // arrivals chain lazily: each StartOp schedules the next
            if !self.procs.is_empty() {
                if let Some(at) = self.arrivals.next() {
                    self.push(at, Ev::StartOp { proc: 0 });
                }
            }
        } else {
            for p in 0..self.workload.processors {
                self.push(p as u64, Ev::StartOp { proc: p as u32 });
            }
        }
        while let Some((time, ev)) = self.queue.pop() {
            // pops are globally time-ordered, so the last popped time
            // is the maximum
            self.sim_time = time;
            self.handle(time, ev);
        }
        let stats = RunStats {
            operations: self.operations,
            completed_by: ProcessMap::per_op(self.completed_by),
            nonlinearizable: self.nonlinearizable,
            output_counts: self.counters.iter().copied().collect::<OutputCounts>(),
            sim_time: self.sim_time,
            node_visits: self.node_visits,
            node_wait_total: self.node_wait_total,
            sim: Some(self.sim),
            metrics: None,
        };
        (stats, self.obs)
    }

    #[inline]
    fn handle(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::StartOp { proc } => self.start_op(now, proc),
            Ev::ArriveNode { proc, node } => self.arrive_node(now, proc, node),
            Ev::ToggleDone { proc, node } => self.toggle_done(now, proc, node),
            Ev::PrismTimeout {
                proc,
                node,
                slot,
                stamp,
            } => self.prism_timeout(now, proc, node, slot, stamp),
            Ev::FabricSend { proc } => self.fabric_send(now, proc),
            Ev::FabricArrive { proc } => self.fabric_arrive(now, proc),
            Ev::FabricServe { proc } => self.fabric_serve(now, proc),
            Ev::ArriveCounter { proc, counter } => self.arrive_counter(now, proc, counter),
            Ev::CounterDone { proc, counter } => self.counter_done(now, proc, counter),
        }
    }

    fn start_op(&mut self, now: u64, proc: u32) {
        // open loop: schedule the next token's arrival before serving
        // this one (a closed loop has no arrivals)
        if let Some(at) = self.arrivals.next() {
            self.push(at, Ev::StartOp { proc: proc + 1 });
        }
        if self.started_ops >= self.workload.total_ops {
            return; // quota reached: this processor retires
        }
        self.started_ops += 1;
        let p = &mut self.procs[proc as usize];
        p.op_start = now;
        p.witness = self.completions.witness(now);
        let entry = p.entry;
        if self.takes_next_pop(now) {
            self.arrive_node(now, proc, entry);
        } else {
            self.push(now, Ev::ArriveNode { proc, node: entry });
        }
    }

    fn arrive_node(&mut self, now: u64, proc: u32, node: u32) {
        self.procs[proc as usize].arrive_time = now;
        // prism front-end first, if this node has one
        if !self.prisms.is_empty() {
            if let Some(slots) = self.prisms[node as usize].as_ref().map(Prism::slot_count) {
                let slot = self.rng.below(slots as u64) as usize;
                self.stamp = self.stamp.wrapping_add(1);
                let stamp = self.stamp;
                let collision = self.prisms[node as usize]
                    .as_mut()
                    .expect("checked")
                    .visit(slot, proc, stamp);
                match collision {
                    Some(occupant) => {
                        // Diffraction: the waiting processor takes
                        // output 0, the arriving one output 1; the
                        // toggle is untouched. The pair leaves after
                        // `pair_cost`.
                        let pair_cost = self.config.prism.expect("prism configured").pair_cost;
                        let occupant_wait = now - self.procs[occupant.proc as usize].arrive_time;
                        self.sim.diffraction_pairs += 1;
                        self.node_visits += 2;
                        self.node_wait_total += occupant_wait;
                        self.obs.diffraction(node as usize, occupant_wait);
                        // the arriver itself waits only pair_cost
                        let depart = now + pair_cost;
                        self.depart(depart, occupant.proc, node, 0);
                        self.depart(depart, proc, node, 1);
                    }
                    None => {
                        let window = self.config.prism.expect("prism configured").spin_window;
                        self.push_lane(
                            PRISM_LANE,
                            now + window,
                            Ev::PrismTimeout {
                                proc,
                                node,
                                slot: slot as u32,
                                stamp,
                            },
                        );
                    }
                }
                return;
            }
        }
        self.request_lock(now, proc, node);
    }

    fn prism_timeout(&mut self, now: u64, proc: u32, node: u32, slot: u32, stamp: u32) {
        let still_waiting = self.prisms[node as usize]
            .as_mut()
            .expect("timeout only scheduled for prism nodes")
            .timeout(slot as usize, stamp);
        if still_waiting {
            // fall through to the toggle lock
            self.request_lock(now, proc, node);
        }
    }

    #[inline]
    fn request_lock(&mut self, now: u64, proc: u32, node: u32) {
        if self.locks.acquire(node as usize, proc) {
            self.push_lane(
                TOGGLE_LANE,
                now + self.config.toggle_cost,
                Ev::ToggleDone { proc, node },
            );
        } else {
            let depth = u64::from(self.locks.queue_len(node as usize));
            self.sim.max_lock_queue = self.sim.max_lock_queue.max(depth);
        }
        // otherwise the processor spins in the FIFO queue; ToggleDone
        // for it will be scheduled by the releasing holder
    }

    fn toggle_done(&mut self, now: u64, proc: u32, node: u32) {
        let wait = now - self.procs[proc as usize].arrive_time;
        self.sim.toggle_count += 1;
        self.sim.toggle_wait_total += wait;
        self.node_visits += 1;
        self.node_wait_total += wait;
        self.obs.toggle(node as usize, wait);
        let out = self.toggles[node as usize].route();
        if let Some(next_holder) = self.locks.release(node as usize) {
            self.push_lane(
                TOGGLE_LANE,
                now + self.config.toggle_cost,
                Ev::ToggleDone {
                    proc: next_holder,
                    node,
                },
            );
        }
        self.depart(now, proc, node, out);
    }

    /// Sends a processor down output `out` of `node` at time `t`:
    /// schedules its arrival at the next node or counter after the wire
    /// latency plus any injected delay ("waits W cycles after
    /// traversing a node in the net"). Forced inline into its three
    /// call sites, the hop of every operation: measured faster than the
    /// `#[inline]` hint (EXPERIMENTS.md, "Simulator handlers, second
    /// pass").
    #[inline(always)]
    fn depart(&mut self, t: u64, proc: u32, node: u32, out: usize) {
        let wait = match self.workload.wait_mode {
            WaitMode::Fixed => self.procs[proc as usize].fixed_wait,
            WaitMode::UniformRandom => {
                if self.workload.wait_cycles == 0 {
                    0
                } else {
                    self.rng.inclusive(self.workload.wait_cycles)
                }
            }
        };
        let route_idx = self.route_base[node as usize] as usize + out;
        if self.fabric_stage_base.is_empty() {
            // degenerate fabric: the legacy flat wire, draw for draw —
            // the golden-trace suite pins this path bit-identically
            let jitter = if self.config.fabric.link.jitter == 0 {
                0
            } else {
                self.rng.inclusive(self.config.fabric.link.jitter)
            };
            let route = self.routes[route_idx];
            self.obs.wire(jitter + wait + route.cost);
            let arrival = t + jitter + wait + route.cost;
            if route.target & COUNTER_BIT == 0 {
                self.push(
                    arrival,
                    Ev::ArriveNode {
                        proc,
                        node: route.target,
                    },
                );
            } else {
                self.push(
                    arrival,
                    Ev::ArriveCounter {
                        proc,
                        counter: route.target & !COUNTER_BIT,
                    },
                );
            }
            return;
        }
        // fabric path: the injected wait W is spent at the node before
        // the first transmission attempt; jitter is re-drawn per
        // attempt inside `fabric_send`
        let p = &mut self.procs[proc as usize];
        p.hop_route = route_idx as u32;
        p.hop_stage = 0;
        p.attempts = 0;
        p.hop_depart = t;
        self.push(t + wait, Ev::FabricSend { proc });
    }

    fn arrive_counter(&mut self, now: u64, proc: u32, counter: u32) {
        if self.config.counter_cost == 0 {
            self.counter_done(now, proc, counter);
            return;
        }
        if self
            .locks
            .acquire(self.counter_lock_base + counter as usize, proc)
        {
            self.push(
                now + self.config.counter_cost,
                Ev::CounterDone { proc, counter },
            );
        }
        // otherwise queued; CounterDone is scheduled on release
    }

    fn counter_done(&mut self, now: u64, proc: u32, counter: u32) {
        if self.config.counter_cost > 0 {
            if let Some(next) = self
                .locks
                .release(self.counter_lock_base + counter as usize)
            {
                self.push(
                    now + self.config.counter_cost,
                    Ev::CounterDone {
                        proc: next,
                        counter,
                    },
                );
            }
        }
        let value = u64::from(counter) + self.output_width * self.counters[counter as usize];
        self.counters[counter as usize] += 1;
        let token = self.operations.len();
        // under an open-loop arrival the slot id is the token index;
        // attribute the completion to the logical client behind it
        let client = if self.workload.is_open_loop() {
            u32::try_from(proc as usize % self.workload.processors)
                .expect("a client id is at most its slot id")
        } else {
            proc
        };
        self.completed_by.push(client);
        let p = &self.procs[proc as usize];
        let op = Operation {
            token,
            input: p.input,
            start: p.op_start,
            end: now,
            counter,
            value,
        };
        let magnitude = p.witness.saturating_sub(value);
        self.operations.push(op);
        self.completions.record(now, value);
        self.nonlinearizable += usize::from(magnitude > 0);
        self.obs.op(now - op.start, magnitude);
        // closed loop only: the next operation begins strictly after
        // this one's response, so a processor's successive operations
        // are ordered under Definition 2.4's strict precedence. Open
        // loops decouple arrival from completion — StartOp chaining
        // already drives the schedule.
        if !self.workload.is_open_loop() {
            if self.takes_next_pop(now + 1) {
                self.start_op(now + 1, proc);
            } else {
                self.push(now + 1, Ev::StartOp { proc });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    fn small_workload(processors: usize, delayed: u32, wait: u64, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(processors, delayed, wait)
        }
    }

    #[test]
    fn program_order_at_most_linearizability_on_real_runs() {
        let net = constructions::counting_tree(16).unwrap();
        let wl = Workload {
            total_ops: 1500,
            ..Workload::paper(32, 50, 10_000)
        };
        let stats = Simulator::new(&net, SimConfig::diffracting(29)).run(&wl);
        assert!(stats.program_order_violations() <= stats.nonlinearizable_count());
    }

    #[test]
    fn completes_exactly_total_ops() {
        let net = constructions::bitonic(4).unwrap();
        let sim = Simulator::new(&net, SimConfig::queue_lock(1));
        let stats = sim.run(&small_workload(8, 0, 0, 200));
        assert_eq!(stats.operations.len(), 200);
        assert_eq!(stats.output_counts.total(), 200);
    }

    #[test]
    fn quiescent_counts_form_a_step() {
        for seed in 0..3 {
            let net = constructions::bitonic(8).unwrap();
            let sim = Simulator::new(&net, SimConfig::queue_lock(seed));
            let stats = sim.run(&small_workload(16, 50, 500, 300));
            assert!(stats.output_counts.is_step(), "{}", stats.output_counts);
        }
    }

    #[test]
    fn values_are_a_permutation_of_zero_to_n() {
        let net = constructions::bitonic(4).unwrap();
        let sim = Simulator::new(&net, SimConfig::queue_lock(7));
        let stats = sim.run(&small_workload(8, 25, 100, 150));
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..150).collect::<Vec<u64>>());
    }

    #[test]
    fn no_injected_delay_is_linearizable() {
        // The paper: "We also tested … W=0 and no non-linearizable
        // operations were detected."
        let net = constructions::bitonic(8).unwrap();
        let sim = Simulator::new(&net, SimConfig::queue_lock(3));
        let stats = sim.run(&small_workload(32, 50, 0, 500));
        assert_eq!(stats.nonlinearizable_count(), 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let net = constructions::bitonic(8).unwrap();
        let w = small_workload(16, 25, 1000, 400);
        let a = Simulator::new(&net, SimConfig::queue_lock(5)).run(&w);
        let b = Simulator::new(&net, SimConfig::queue_lock(5)).run(&w);
        assert_eq!(a.operations, b.operations);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn diffracting_tree_counts_correctly() {
        let net = constructions::counting_tree(8).unwrap();
        let sim = Simulator::new(&net, SimConfig::diffracting(11));
        let stats = sim.run(&small_workload(16, 0, 0, 300));
        assert_eq!(stats.operations.len(), 300);
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..300).collect::<Vec<u64>>());
        assert!(stats.output_counts.is_step());
        assert!(
            stats.sim.unwrap().diffraction_pairs > 0,
            "prisms should see collisions at n=16"
        );
    }

    #[test]
    fn diffracting_tree_without_delays_is_linearizable() {
        let net = constructions::counting_tree(16).unwrap();
        let sim = Simulator::new(&net, SimConfig::diffracting(13));
        let stats = sim.run(&small_workload(32, 0, 0, 500));
        assert_eq!(stats.nonlinearizable_count(), 0);
    }

    #[test]
    fn large_delays_cause_violations_on_trees() {
        // High W with many delayed processors pushes (Tog+W)/Tog far
        // above 2, where the paper observed violations.
        let net = constructions::counting_tree(16).unwrap();
        let sim = Simulator::new(&net, SimConfig::diffracting(17));
        let stats = sim.run(&small_workload(64, 50, 10_000, 2000));
        assert!(
            stats.average_ratio(10_000) > 2.0,
            "ratio {}",
            stats.average_ratio(10_000)
        );
        assert!(
            stats.nonlinearizable_count() > 0,
            "expected violations at ratio {:.1}",
            stats.average_ratio(10_000)
        );
    }

    #[test]
    fn toggle_wait_grows_with_contention() {
        let net = constructions::bitonic(4).unwrap();
        let lo = Simulator::new(&net, SimConfig::queue_lock(1)).run(&small_workload(2, 0, 0, 200));
        let hi = Simulator::new(&net, SimConfig::queue_lock(1)).run(&small_workload(64, 0, 0, 200));
        assert!(
            hi.avg_toggle_wait() > lo.avg_toggle_wait(),
            "hi {} vs lo {}",
            hi.avg_toggle_wait(),
            lo.avg_toggle_wait()
        );
    }

    #[test]
    fn uniform_random_waits_stay_linearizable() {
        // The paper: "Another scenario in which every token waits a
        // random number of cycles between 0 and W was also simulated
        // and was observed to be completely linearizable."
        let net = constructions::bitonic(8).unwrap();
        let w = Workload {
            total_ops: 800,
            wait_mode: WaitMode::UniformRandom,
            ..Workload::paper(32, 0, 1000)
        };
        let stats = Simulator::new(&net, SimConfig::queue_lock(23)).run(&w);
        assert_eq!(stats.operations.len(), 800);
        // random symmetric jitter: violations should be absent or rare
        assert!(
            stats.nonlinearizable_ratio() < 0.01,
            "ratio {}",
            stats.nonlinearizable_ratio()
        );
    }

    #[test]
    fn single_processor_is_sequential() {
        let net = constructions::bitonic(4).unwrap();
        let stats =
            Simulator::new(&net, SimConfig::queue_lock(0)).run(&small_workload(1, 0, 0, 50));
        for (i, op) in stats.operations.iter().enumerate() {
            assert_eq!(op.value, i as u64, "sequential ops count in order");
        }
        assert_eq!(stats.nonlinearizable_count(), 0);
    }
}

#[cfg(test)]
mod counter_cost_tests {
    use super::*;
    use cnet_topology::constructions;

    fn wl(processors: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(processors, 0, 0)
        }
    }

    #[test]
    fn counter_cost_preserves_counting() {
        let net = constructions::bitonic(4).unwrap();
        let config = SimConfig {
            counter_cost: 50,
            ..SimConfig::queue_lock(3)
        };
        let stats = Simulator::new(&net, config).run(&wl(16, 400));
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..400).collect::<Vec<u64>>());
        assert!(stats.output_counts.is_step());
    }

    #[test]
    fn central_counter_serializes() {
        // a serial line is the centralized-counter model: with a counter
        // cost, total time is at least ops * counter_cost
        let net = constructions::serial_line(1);
        let config = SimConfig {
            counter_cost: 100,
            ..SimConfig::queue_lock(1)
        };
        let stats = Simulator::new(&net, config).run(&wl(8, 100));
        assert!(stats.sim_time >= 100 * 100, "sim time {}", stats.sim_time);
        // …and it is linearizable: one counter, FIFO service
        assert_eq!(stats.nonlinearizable_count(), 0);
    }

    #[test]
    fn wide_network_beats_central_counter_under_contention() {
        let cost = 100;
        let central = constructions::serial_line(1);
        let central_stats = Simulator::new(
            &central,
            SimConfig {
                counter_cost: cost,
                ..SimConfig::queue_lock(1)
            },
        )
        .run(&wl(64, 1000));
        let net = constructions::bitonic(16).unwrap();
        let net_stats = Simulator::new(
            &net,
            SimConfig {
                counter_cost: cost,
                ..SimConfig::queue_lock(1)
            },
        )
        .run(&wl(64, 1000));
        assert!(
            net_stats.throughput() > central_stats.throughput(),
            "network {} vs central {}",
            net_stats.throughput(),
            central_stats.throughput()
        );
    }
}

#[cfg(test)]
mod mesh_tests {
    use super::*;
    use cnet_topology::constructions;

    fn wl(processors: usize, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            ..Workload::paper(processors, 0, 0)
        }
    }

    #[test]
    fn mesh_placement_counts_exactly() {
        let net = constructions::bitonic(8).unwrap();
        let config = SimConfig {
            placement: Placement::Mesh {
                side: 4,
                per_hop: 15,
            },
            ..SimConfig::queue_lock(5)
        };
        let stats = Simulator::new(&net, config).run(&wl(16, 400));
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..400).collect::<Vec<u64>>());
        assert!(stats.output_counts.is_step());
    }

    #[test]
    fn mesh_distance_raises_latency() {
        let net = constructions::bitonic(16).unwrap();
        let flat = Simulator::new(&net, SimConfig::queue_lock(5)).run(&wl(8, 300));
        let meshed = Simulator::new(
            &net,
            SimConfig {
                placement: Placement::Mesh {
                    side: 8,
                    per_hop: 40,
                },
                ..SimConfig::queue_lock(5)
            },
        )
        .run(&wl(8, 300));
        assert!(
            meshed.mean_latency() > flat.mean_latency(),
            "mesh {} vs flat {}",
            meshed.mean_latency(),
            flat.mean_latency()
        );
    }

    #[test]
    fn mesh_skew_widens_c2_c1_and_can_violate() {
        // mesh distances make some paths structurally slower than
        // others, an organic (non-injected) source of c2/c1 spread
        let net = constructions::counting_tree(32).unwrap();
        let config = SimConfig {
            placement: Placement::Mesh {
                side: 3,
                per_hop: 600,
            },
            ..SimConfig::diffracting(7)
        };
        let stats = Simulator::new(&net, config).run(&wl(32, 3000));
        // counting still exact
        assert_eq!(stats.operations.len(), 3000);
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..3000).collect::<Vec<u64>>());
        // the ratio is whatever it is; the run must simply be well-formed
        assert!(stats.sim_time > 0);
    }
}

#[cfg(test)]
mod degenerate_workload_tests {
    use super::*;
    use cnet_topology::constructions;

    #[test]
    fn zero_ops_completes_immediately() {
        let net = constructions::bitonic(4).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(1)).run(&Workload {
            total_ops: 0,
            ..Workload::paper(4, 50, 100)
        });
        assert!(stats.operations.is_empty());
        assert_eq!(stats.nonlinearizable_count(), 0);
        assert!(stats.output_counts.is_step());
    }

    #[test]
    fn zero_processors_complete_nothing() {
        let net = constructions::bitonic(4).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(1)).run(&Workload {
            total_ops: 100,
            ..Workload::paper(0, 0, 0)
        });
        assert!(stats.operations.is_empty());
    }

    #[test]
    fn more_processors_than_ops_is_fine() {
        let net = constructions::bitonic(4).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(1)).run(&Workload {
            total_ops: 10,
            ..Workload::paper(64, 50, 10)
        });
        assert_eq!(stats.operations.len(), 10);
    }
}

#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use cnet_engine::ArrivalProcess;
    use cnet_topology::constructions;

    fn open_wl(processors: usize, ops: usize, mean_gap: u64) -> Workload {
        Workload {
            total_ops: ops,
            arrival: ArrivalProcess::Open { mean_gap },
            ..Workload::paper(processors, 0, 0)
        }
    }

    #[test]
    fn open_loop_counts_exactly() {
        let net = constructions::bitonic(4).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(9)).run(&open_wl(8, 300, 50));
        assert_eq!(stats.operations.len(), 300);
        let mut values: Vec<u64> = stats.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..300).collect::<Vec<u64>>());
        assert!(stats.output_counts.is_step(), "{}", stats.output_counts);
    }

    #[test]
    fn open_loop_is_reproducible() {
        let net = constructions::bitonic(8).unwrap();
        let w = open_wl(16, 400, 120);
        let a = Simulator::new(&net, SimConfig::queue_lock(5)).run(&w);
        let b = Simulator::new(&net, SimConfig::queue_lock(5)).run(&w);
        assert_eq!(a.operations, b.operations);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn open_loop_attributes_completions_to_clients() {
        let net = constructions::bitonic(4).unwrap();
        let w = open_wl(6, 120, 10);
        let stats = Simulator::new(&net, SimConfig::queue_lock(2)).run(&w);
        assert_eq!(stats.completed_by.len(), 120);
        assert!(stats.completed_by.iter().all(|c| c < 6));
    }

    #[test]
    fn sparse_open_arrivals_behave_sequentially() {
        // gaps far larger than an op's span: every token completes
        // before the next arrives, so the history is linearizable
        let net = constructions::bitonic(4).unwrap();
        let cfg = SimConfig {
            fabric: crate::Fabric::degenerate(20, 0),
            ..SimConfig::queue_lock(3)
        };
        let w = Workload {
            total_ops: 100,
            arrival: ArrivalProcess::Bursty {
                burst: 1,
                gap: 1_000_000,
            },
            ..Workload::paper(4, 0, 0)
        };
        let stats = Simulator::new(&net, cfg).run(&w);
        assert_eq!(stats.operations.len(), 100);
        assert_eq!(stats.nonlinearizable_count(), 0);
    }

    #[test]
    fn bursty_arrivals_land_back_to_back() {
        let net = constructions::bitonic(4).unwrap();
        let w = Workload {
            total_ops: 64,
            arrival: ArrivalProcess::Bursty {
                burst: 8,
                gap: 50_000,
            },
            ..Workload::paper(8, 0, 0)
        };
        let stats = Simulator::new(&net, SimConfig::queue_lock(4)).run(&w);
        assert_eq!(stats.operations.len(), 64);
        // tokens of one burst overlap in flight; bursts are disjoint:
        // sim time must span at least the 7 inter-burst gaps
        assert!(stats.sim_time >= 7 * 50_000, "sim time {}", stats.sim_time);
    }

    #[test]
    fn open_loop_zero_gap_is_a_thundering_herd() {
        let net = constructions::bitonic(8).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(6)).run(&open_wl(4, 200, 0));
        assert_eq!(stats.operations.len(), 200);
        assert!(stats.output_counts.is_step());
    }

    #[test]
    fn open_loop_zero_processors_completes_nothing() {
        let net = constructions::bitonic(4).unwrap();
        let stats = Simulator::new(&net, SimConfig::queue_lock(1)).run(&Workload {
            total_ops: 50,
            arrival: ArrivalProcess::Open { mean_gap: 10 },
            ..Workload::paper(0, 0, 0)
        });
        assert!(stats.operations.is_empty());
    }

    #[test]
    fn closed_loop_field_matches_legacy_behaviour() {
        // the arrival field's Closed default must not perturb the
        // existing closed-loop stream: same seed, same trace as a
        // workload built before the field existed would produce
        let net = constructions::bitonic(8).unwrap();
        let w = Workload::paper(16, 25, 1000);
        let w = Workload {
            total_ops: 300,
            ..w
        };
        assert_eq!(w.arrival, ArrivalProcess::Closed);
        let a = Simulator::new(&net, SimConfig::queue_lock(5)).run(&w);
        assert_eq!(a.operations.len(), 300);
    }
}

#[cfg(test)]
mod queue_differential_tests {
    use super::*;
    use crate::queue::HeapQueue;
    use cnet_engine::ArrivalProcess;
    use cnet_timing::linearizability::count_nonlinearizable;
    use cnet_topology::{constructions, FabricShape, LinkSpec};

    /// The fabric suite's queued fabric, losing 2 % of its
    /// transmissions and NACKing a two-deep link queue: retries and
    /// backoff run in every such case.
    fn lossy_nack_fabric() -> crate::Fabric {
        let lossy = super::fabric::tests::fabric(FabricShape::PerStage, 20_000, true);
        crate::Fabric {
            link: LinkSpec {
                capacity: 2,
                ..lossy.link
            },
            ..lossy
        }
    }

    /// The simulator as it ran before the same-instant hand-off: a
    /// queue whose `next_time` always reports an event pending now, so
    /// [`Runner::takes_next_pop`] never fires and every event goes
    /// through the queue.
    struct Unfused<Q>(Q);

    impl<Q: Queue<Ev>> Queue<Ev> for Unfused<Q> {
        fn with_horizon(horizon: u64, pending_hint: usize) -> Self {
            Unfused(Q::with_horizon(horizon, pending_hint))
        }

        fn push(&mut self, time: u64, ev: Ev) {
            self.0.push(time, ev);
        }

        fn push_lane(&mut self, lane: usize, time: u64, ev: Ev) {
            self.0.push_lane(lane, time, ev);
        }

        fn pop(&mut self) -> Option<(u64, Ev)> {
            self.0.pop()
        }

        fn next_time(&self) -> u64 {
            0
        }

        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// The run's statistics and its frozen metrics (`None` without the
    /// `obs` feature).
    fn simulate<Q: Queue<Ev>>(
        net: &Topology,
        config: SimConfig,
        workload: &Workload,
    ) -> (RunStats, Option<cnet_obs::MetricsSnapshot>) {
        let (stats, obs) = Runner::<Q>::new(net, config, workload).run();
        (stats, obs.finish(workload.wait_cycles, config.toggle_cost))
    }

    /// The production simulator is the plain one over the
    /// `(time, push-order)` heap: over random networks, machine models,
    /// arrival processes and wait modes, a run over [`EventQueue`] with
    /// the same-instant hand-off and one over the heap oracle without it
    /// handle the same events in the same order, so they draw the RNG
    /// in the same order and agree on every statistic — the metrics
    /// snapshot included, under `--features obs`.
    #[test]
    fn production_queue_and_heap_oracle_simulate_identically() {
        let mut rng = SimRng::seed_from_u64(0xD1FF);
        let (mut pairs, mut retries) = (0, 0);
        HANDED_OFF.with(|n| n.set(0));
        for case in 0..240 {
            let width = [4, 8, 16][rng.below(3) as usize];
            let net = if rng.below(2) == 0 {
                constructions::bitonic(width).unwrap()
            } else {
                constructions::counting_tree(width).unwrap()
            };
            let seed = rng.below(1 << 40);
            let config = match rng.below(3) {
                0 => SimConfig::queue_lock(seed),
                1 => SimConfig::diffracting(seed),
                _ => SimConfig {
                    fabric: lossy_nack_fabric(),
                    ..SimConfig::queue_lock(seed)
                },
            };
            let processors = 1 + rng.below(40) as usize;
            let wait = [0, 100, 1000, 30_000][rng.below(4) as usize];
            let workload = Workload {
                total_ops: 50 + rng.below(250) as usize,
                wait_mode: if rng.below(2) == 0 {
                    WaitMode::Fixed
                } else {
                    WaitMode::UniformRandom
                },
                arrival: match rng.below(3) {
                    0 => ArrivalProcess::Closed,
                    1 => ArrivalProcess::Open {
                        mean_gap: rng.below(300),
                    },
                    _ => ArrivalProcess::Bursty {
                        burst: 1 + rng.below(8) as u32,
                        gap: rng.below(40_000),
                    },
                },
                ..Workload::paper(processors, rng.below(101) as u32, wait)
            };
            let handed_off = HANDED_OFF.with(std::cell::Cell::get);
            let (oracle, oracle_metrics) =
                simulate::<Unfused<HeapQueue<Ev>>>(&net, config, &workload);
            let what = format!("case {case}: {config:?} {workload:?}");
            assert_eq!(HANDED_OFF.with(std::cell::Cell::get), handed_off, "{what}");
            let (stats, metrics) = simulate::<EventQueue<Ev>>(&net, config, &workload);
            assert_eq!(stats.operations.len(), workload.total_ops, "{what}");
            assert_eq!(stats.operations, oracle.operations, "{what}");
            assert_eq!(stats.completed_by, oracle.completed_by, "{what}");
            assert_eq!(stats.sim_time, oracle.sim_time, "{what}");
            assert_eq!(stats.sim, oracle.sim, "{what}");
            assert_eq!(metrics, oracle_metrics, "{what}");
            // the streamed verdict is the whole-trace one
            assert_eq!(
                stats.nonlinearizable,
                count_nonlinearizable(&stats.operations),
                "{what}"
            );
            pairs += stats.sim.unwrap().diffraction_pairs;
            retries += stats.sim.unwrap().fabric.retries();
        }
        // both lanes, the hand-off and the fabric's retry path were
        // exercised
        let handed_off = HANDED_OFF.with(std::cell::Cell::get);
        assert!(
            pairs > 0 && retries > 0 && handed_off > 0,
            "{pairs} pairs, {retries} retries, {handed_off} hand-offs"
        );
    }
}

#[cfg(test)]
mod trace_arrival_tests {
    use super::*;
    use cnet_engine::ArrivalProcess;
    use cnet_topology::constructions;

    fn trace_workload(path: &std::path::Path, ops: usize) -> Workload {
        Workload {
            total_ops: ops,
            arrival: ArrivalProcess::Trace {
                path: path.to_str().unwrap().to_string(),
            },
            ..Workload::paper(4, 0, 0)
        }
    }

    fn write_trace(name: &str, content: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("cnet-sim-trace-{name}-{}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn trace_arrivals_count_exactly_and_reproducibly() {
        let path = write_trace("basic", "0\n100\n100\n350\n400\n");
        let net = constructions::bitonic(4).unwrap();
        let w = trace_workload(&path, 60);
        let a = Simulator::new(&net, SimConfig::queue_lock(8)).run(&w);
        let b = Simulator::new(&net, SimConfig::queue_lock(8)).run(&w);
        assert_eq!(a.operations.len(), 60);
        let mut values: Vec<u64> = a.operations.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..60).collect::<Vec<u64>>());
        assert!(a.output_counts.is_step());
        assert_eq!(a.operations, b.operations);
    }

    #[test]
    fn sparse_trace_gaps_pace_the_run() {
        // gaps of 100k cycles dominate every op span: sim time must
        // cover the replayed schedule's cycled extent
        let path = write_trace("sparse", "0\n100000\n200000\n");
        let net = constructions::bitonic(4).unwrap();
        let w = trace_workload(&path, 10);
        let stats = Simulator::new(&net, SimConfig::queue_lock(3)).run(&w);
        assert_eq!(stats.operations.len(), 10);
        // 9 inter-arrival gaps of 100_000 each
        assert!(stats.sim_time >= 900_000, "sim time {}", stats.sim_time);
        assert_eq!(stats.nonlinearizable_count(), 0);
    }

    #[test]
    #[should_panic(expected = "validated")]
    fn running_an_unvalidated_bad_trace_panics() {
        let net = constructions::bitonic(4).unwrap();
        let w = trace_workload(std::path::Path::new("/nonexistent/cnet-trace"), 10);
        let _ = Simulator::new(&net, SimConfig::queue_lock(1)).run(&w);
    }
}
