//! Counting networks and the PODC '96 "practically linearizable" study.
//!
//! This facade crate re-exports the workspace's subsystems:
//!
//! * [`topology`] — the balancing-network model and the constructions
//!   (bitonic, periodic, counting/diffracting tree, linearizing prefix).
//! * [`timing`] — timing schedules, the `c2/c1` linearizability measure,
//!   the timed executor, history variables, the linearizability
//!   checker, and ([`timing::adversary`]) the deterministic worst-case
//!   schedules exhibiting the paper's non-linearizable executions
//!   (Sections 1 and 4).
//! * [`proteus`] — a discrete-event shared-memory multiprocessor
//!   simulator reproducing the Section 5 study.
//! * [`concurrent`] — native-atomics counting networks usable as real
//!   shared counters from many threads.
//! * [`engine`] — the unified execution layer: one `Backend` trait over
//!   the simulator and the shared-memory counters, driven by one
//!   `Workload` vocabulary (closed-loop, open-loop, bursty) into one
//!   `RunOutcome` shape.
//!
//! # Quickstart
//!
//! ```
//! use counting_networks::topology::constructions;
//! use counting_networks::timing::{executor::TimedExecutor, LinkTiming};
//!
//! // A width-8 bitonic counting network…
//! let net = constructions::bitonic(8)?;
//! // …with wire delays between 3 and 6 time units (c2 <= 2·c1, so the
//! // network is linearizable by Corollary 3.9).
//! let timing = LinkTiming::new(3, 6)?;
//! assert!(timing.guarantees_linearizability());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cnet_concurrent as concurrent;
pub use cnet_engine as engine;
pub use cnet_proteus as proteus;
pub use cnet_timing as timing;
pub use cnet_topology as topology;
