//! A deterministic discrete-event shared-memory multiprocessor
//! simulator — the substrate for reproducing the paper's Section 5
//! study.
//!
//! The paper ran its benchmark on Proteus, a simulator of the MIT
//! Alewife distributed-shared-memory machine. This crate substitutes a
//! purpose-built discrete-event simulator that models exactly the
//! features the study depends on:
//!
//! * `n` **processors** repeatedly traversing a counting network, each
//!   operation being one token;
//! * **balancers as critical sections** protected by a FIFO queue lock
//!   (the behavioural core of the MCS lock used in the paper);
//! * optional **prism (diffraction) arrays** in front of tree balancers
//!   — pairs of processors that collide in a prism slot *diffract* (one
//!   goes to each output) without touching the toggle, as in Shavit and
//!   Zemach's diffracting trees;
//! * **wire latencies** between nodes (shared-memory access cost);
//! * the benchmark's **delay injection**: a fraction `F` of the
//!   processors waits `W` cycles after traversing each node, skewing
//!   the effective `c2/c1` ratio.
//!
//! Measurements mirror the paper's: the fraction of non-linearizable
//! operations (Definition 2.4, via the `cnet-timing` checker) and the
//! average ratio `c2/c1 = (Tog + W)/Tog`, where `Tog` is the average
//! time a token waits before toggling a balancer (Figure 7).
//!
//! Everything is seeded and event-ordering is deterministic, so every
//! run is exactly reproducible.
//!
//! The simulator is one backend of `cnet-engine`: it runs the engine's
//! [`Workload`](cnet_engine::Workload) and returns the engine's
//! [`RunStats`](cnet_engine::RunStats), with its balancer and fabric
//! counters in [`RunStats::sim`](cnet_engine::RunStats::sim).
//! [`SimBackend`] puts it behind the engine's
//! [`Backend`](cnet_engine::Backend) trait.
//!
//! # Example
//!
//! ```
//! use cnet_engine::{WaitMode, Workload};
//! use cnet_proteus::{SimConfig, Simulator};
//! use cnet_topology::constructions;
//!
//! let net = constructions::bitonic(8)?;
//! let workload = Workload {
//!     total_ops: 500,
//!     wait_mode: WaitMode::Fixed,
//!     ..Workload::paper(16, 50, 1000)
//! };
//! let stats = Simulator::new(&net, SimConfig::queue_lock(1)).run(&workload);
//! assert_eq!(stats.operations.len(), 500);
//! println!("non-linearizable ratio: {}", stats.nonlinearizable_ratio());
//! println!("avg c2/c1: {:.2}", stats.average_ratio(1000));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod config;
mod node;
mod obs;
mod queue;
mod sim;

pub use backend::SimBackend;
// the engine's PRNG under the name the repository benchmark imports
pub use cnet_engine::SimRng;
pub use config::{PrismConfig, SimConfig};
// the fabric vocabulary SimConfig embeds, re-exported so simulator
// users need not name cnet-topology for wire-model configuration
pub use cnet_topology::{Fabric, FabricError, LinkSpec, RetryPolicy, SwitchSpec};
pub use sim::Simulator;
