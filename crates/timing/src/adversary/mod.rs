//! Deterministic worst-case schedules exhibiting the paper's
//! non-linearizable executions (Sections 1 and 4).
//!
//! Each function in this module builds a complete [`Scenario`]: a
//! network, an admissible [`LinkTiming`](crate::LinkTiming), and a
//! concrete [`TimingSchedule`](crate::TimingSchedule) whose execution is
//! guaranteed to contain non-linearizable operations (Definition 2.4).
//! The scenarios are:
//!
//! * [`intro_example`] — the Section 1 example on the width-2 network:
//!   a delayed token lets a later token return a smaller value.
//! * [`tree_attack`] — Theorem 4.1: counting (diffracting) trees are
//!   not linearizable once `c2 > 2·c1`: a slow token and a wave of
//!   `2^h - 1` fast tokens produce a violation.
//! * [`tree_attack_with_gap`] — the same attack with a configurable gap
//!   between the fast witness token's exit and the wave's entry; the
//!   largest violating gap approaches Theorem 3.6's separation
//!   `h·c2 - 2·h·c1`, demonstrating that the bound is tight. Its
//!   schedule is the one [`crate::threshold`] sweeps.
//! * [`bitonic_attack`] — Theorem 4.3: bitonic networks are not
//!   linearizable once `c2 > 2·c1`, via the Lemma 4.2 token placement.
//! * [`wave_attack`] — Theorem 4.4: once
//!   `c2 > ((3 + log w)/2)·c1`, a three-wave schedule makes an entire
//!   wave of operations non-linearizable.
//! * [`search_violations`] — automated attack search over the extremal
//!   schedule box; rediscovers the attacks above and doubles as a
//!   bounded verifier of Corollary 3.9.
//!
//! A constructor asked for timing too tame to violate refuses with
//! [`TimingError::RatioTooSmall`](crate::TimingError::RatioTooSmall).
//!
//! # Example
//!
//! ```
//! use cnet_timing::adversary::tree_attack;
//! use cnet_timing::LinkTiming;
//!
//! // ratio 3 > 2: violations are possible on a tree of width 8
//! let timing = LinkTiming::new(10, 30)?;
//! let scenario = tree_attack(8, timing)?;
//! let exec = scenario.execute()?;
//! assert!(exec.nonlinearizable_count() >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod scenario;

pub mod bitonic;
pub mod intro;
pub mod search;
pub mod tree;
pub mod wave;

pub use bitonic::bitonic_attack;
pub use intro::intro_example;
pub use scenario::Scenario;
pub use search::{search_violations, SearchConfig, SearchOutcome};
pub use tree::{tree_attack, tree_attack_with_gap};
pub use wave::wave_attack;
