//! Balancing-network model and counting-network constructions.
//!
//! This crate provides the *structural* half of the PODC '96 paper
//! "Counting Networks are Practically Linearizable": a graph model of
//! balancing networks (acyclically wired multi-input/multi-output
//! *balancers* feeding atomic output counters), validation of the
//! *uniformity* property the paper's analysis relies on, and the classic
//! network constructions the paper studies:
//!
//! * [`constructions::bitonic`] — the bitonic counting network of
//!   Aspnes, Herlihy, and Shavit,
//! * [`constructions::periodic`] — their periodic counting network,
//! * [`constructions::counting_tree`] — the counting-tree shape used by
//!   diffracting trees (Shavit and Zemach),
//! * [`constructions::linearizing_prefix`] — the depth-`h(k-2)` input
//!   padding of Corollary 3.12 that makes any uniform counting network
//!   linearizable when `c2 < k·c1`,
//! * [`constructions::single_balancer`] — the width-2 network of the
//!   paper's introductory example.
//!
//! A [`Topology`] is built with a [`TopologyBuilder`] and is immutable
//! once validated. Token routing state lives outside the topology in a
//! [`router::SequentialRouter`], so one topology can back many
//! executions (sequential, timed, simulated, or native-threaded).
//!
//! # Example
//!
//! ```
//! use cnet_topology::{constructions, router::SequentialRouter};
//!
//! let net = constructions::bitonic(8)?;
//! assert_eq!(net.input_width(), 8);
//! assert_eq!(net.output_width(), 8);
//! // depth of Bitonic[w] is log w (log w + 1) / 2 layers
//! assert_eq!(net.depth(), 6);
//!
//! // Route 100 tokens round-robin and check the step property.
//! let mut router = SequentialRouter::new(&net);
//! for i in 0..100 {
//!     router.route(i % 8)?;
//! }
//! assert!(router.output_counts().is_step());
//! # Ok::<(), cnet_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balancer;
pub mod constructions;
pub mod fabric;
pub mod io;
pub mod random;
pub mod router;
pub mod step;
pub mod topology;
pub mod verify;

mod error;

pub use balancer::BalancerState;
pub use error::TopologyError;
pub use fabric::{Fabric, FabricError, LinkSpec, RetryPolicy, SwitchSpec};
pub use step::OutputCounts;
pub use topology::{NodeId, PortRef, Topology, TopologyBuilder, WireEnd};
