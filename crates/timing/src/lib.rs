//! Timing schedules, the `c2/c1` linearizability measure, and execution
//! analysis for counting networks.
//!
//! This crate implements the analytical half of the PODC '96 paper
//! "Counting Networks are Practically Linearizable":
//!
//! * [`LinkTiming`] — the paper's local measure: `c1` is the minimum
//!   and `c2` the maximum time a token spends traversing a wire between
//!   balancers (balancer transitions are instantaneous).
//! * [`schedule::TimingSchedule`] — the triple `⟨K, L, Q⟩` of
//!   Definition 2.2: token ids, entry inputs, and per-layer pass times.
//! * [`executor::TimedExecutor`] — replays a schedule over a
//!   [`cnet_topology::Topology`], producing an [`execution::Execution`]
//!   with one transition event per `⟨token, node⟩` pair and one
//!   [`execution::Operation`] per token.
//! * [`linearizability`] — the checker for Definition 2.4: counts,
//!   grades and exhibits *non-linearizable* operations, i.e. operations
//!   preceded in real time by an operation that returned a higher
//!   value, over a whole trace or a stream of completions.
//! * [`knowledge`] — the history variables `H_T`, `H_D` ("implicit
//!   knowledge") of Section 2, with validators for Lemmas 3.1–3.3.
//! * [`measure`] — the closed-form bounds of Section 3: the
//!   finish-start separation of Theorem 3.6, the start-start separation
//!   of Lemma 3.7, the padding parameter of Corollary 3.12, and the
//!   Figure 7 ratio `(Tog + W)/Tog`.
//! * [`random`] — seeded random schedule generators used by the
//!   property tests and benchmarks.
//! * [`threshold`] — empirical sweeps locating the largest
//!   finish-to-start gap at which a network still violates, against
//!   Theorem 3.6's bound.
//! * [`adversary`] — the deterministic worst-case executions of
//!   Sections 1 and 4 as replayable scenarios, and the exhaustive
//!   extremal-schedule search.
//! * [`io`] — CSV round-tripping for schedules and operation traces.
//! * [`render`] — text and SVG execution timelines with violations
//!   highlighted.
//! * [`interleave`] — exhaustive small-scope enumeration of *all*
//!   interleavings: counting holds everywhere, linearizability does
//!   not.
//! * [`program_order`] — the per-process (sequential-consistency
//!   style) restriction of the violation count.
//! * [`windows`] — violation density over time.
//!
//! # Example: a linearizable regime and a violating one
//!
//! ```
//! use cnet_timing::{executor::TimedExecutor, random, LinkTiming};
//! use cnet_topology::constructions;
//!
//! let net = constructions::bitonic(4)?;
//!
//! // c2 <= 2 c1: Corollary 3.9 guarantees linearizability.
//! let calm = LinkTiming::new(5, 10)?;
//! assert!(calm.guarantees_linearizability());
//! let schedule = random::uniform_schedule(&net, calm, 200, 7, 42)?;
//! let exec = TimedExecutor::new(&net).run(&schedule)?;
//! assert_eq!(exec.nonlinearizable_count(), 0);
//!
//! // c2 > 2 c1: no guarantee (violations become *possible*).
//! let skewed = LinkTiming::new(5, 50)?;
//! assert!(!skewed.guarantees_linearizability());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod execution;
pub mod executor;
pub mod interleave;
pub mod io;
pub mod knowledge;
pub mod linearizability;
pub mod measure;
pub mod program_order;
pub mod random;
pub mod render;
pub mod schedule;
pub mod threshold;
pub mod windows;

mod error;
mod link;

pub use error::TimingError;
pub use execution::{Event, Execution, Operation, Place};
pub use link::{LinkTiming, Time};
pub use schedule::TimingSchedule;
