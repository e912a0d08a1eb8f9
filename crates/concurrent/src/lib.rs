//! Native-atomics counting networks: real shared counters for real
//! threads.
//!
//! The other crates in this workspace *model* counting networks; this
//! one *is* one. Any validated [`cnet_topology::Topology`] can be
//! instantiated as a shared counter usable from any number of threads:
//!
//! * [`NetworkCounter`] — a counting network (bitonic, periodic,
//!   padded, …) as a concurrent counter, compiled at construction into
//!   the cache-line-aligned arena of [`compiled`], the only native
//!   traversal (the pre-refactor one is the differential oracle of the
//!   engine's tests); every wait-free balancer is one atomic toggle;
//! * [`network::BalancerKind::Diffracting`] over
//!   `constructions::counting_tree` — the Shavit–Zemach diffracting
//!   tree: nodes fronted by prism arrays of [`tree::Exchanger`]s that
//!   halve per layer, colliding pairs diffract without touching the
//!   toggle;
//! * [`counter::FetchAddCounter`] and [`counter::LockCounter`] — the
//!   centralized baselines every counting-network paper compares
//!   against;
//! * [`lock::TicketLock`] and [`lock::LockBalancer`] — a FIFO queue
//!   lock (the safe-Rust behavioural equivalent of the paper's MCS
//!   lock) and a balancer protected by one, mirroring the paper's
//!   lock-based balancer implementation;
//! * [`frontend`] — elastic frontends over the above: flat-combining
//!   batch traversals and sharded routing over narrow networks — fewer
//!   traversals per fetch-and-increment, at a measured ordering cost.
//!
//! Every counter here implements [`counter::StressCounter`], which is
//! what `cnet_engine` drives: its client threads bracket each operation
//! with two ticks of a global logical clock and grade the trace with
//! Definition 2.4, the paper's measurement on real threads.
//!
//! # Example
//!
//! ```
//! use cnet_concurrent::{Counter, NetworkCounter};
//! use cnet_topology::constructions;
//! use std::sync::Arc;
//!
//! let net = constructions::bitonic(4)?;
//! let counter = Arc::new(NetworkCounter::new(&net));
//! let mut handles = Vec::new();
//! for _ in 0..4 {
//!     let c = Arc::clone(&counter);
//!     handles.push(std::thread::spawn(move || {
//!         (0..100).map(|_| c.next()).collect::<Vec<u64>>()
//!     }));
//! }
//! let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
//! all.sort_unstable();
//! // every value in 0..400 was handed out exactly once
//! assert_eq!(all, (0..400).collect::<Vec<u64>>());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// The probe layer this build records through: `cnet_obs::live` with
/// the `obs` feature, the zero-sized `cnet_obs::noop` shims without.
/// Counters call probes unconditionally through this alias; disabled
/// probes are ZSTs with empty inline methods, so the hot paths carry
/// no observability cost (pinned by the size tests in `network`).
#[cfg(feature = "obs")]
pub use cnet_obs::live as obs;
/// The probe layer this build records through: `cnet_obs::live` with
/// the `obs` feature, the zero-sized `cnet_obs::noop` shims without.
/// Counters call probes unconditionally through this alias; disabled
/// probes are ZSTs with empty inline methods, so the hot paths carry
/// no observability cost (pinned by the size tests in `network`).
#[cfg(not(feature = "obs"))]
pub use cnet_obs::noop as obs;

pub mod compiled;
pub mod counter;
pub mod frontend;
pub mod lock;
pub mod network;
pub(crate) mod prng;
pub mod sync;
pub mod testcfg;
pub mod tree;

pub use compiled::NetworkCounter;
pub use counter::{Counter, StressCounter};
pub use frontend::{CombiningConfig, CombiningCounter, RoutePolicy, ShardedCounter};
