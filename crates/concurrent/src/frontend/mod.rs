//! Elastic counter frontends: request-level restructuring in front of
//! the networks.
//!
//! Every prior performance lever in this workspace made a *hop*
//! cheaper; the frontends here make there be *fewer traversals per
//! fetch-and-increment*. Both implement the existing counter
//! contract (and [`crate::counter::StressCounter`]), so they slot into
//! the engine's backends unchanged:
//!
//! * [`combining::CombiningCounter`] — flat combining over a compiled
//!   network: arriving threads CAS into a publication list, a combiner
//!   claims up to `k` pending requests, performs ONE traversal with a
//!   width-`k` interval reservation (a single `fetch_add(k)` at the
//!   output counter), and fans the values back through per-request
//!   mailboxes;
//! * [`sharded::ShardedCounter`] — an array of narrow networks behind
//!   a cheap router (round-robin, thread-affinity, or load-aware),
//!   racing one wide network at equal total width; values interleave
//!   by residue class so shards never collide.
//!
//! Each frontend trades a quantifiable amount of ordering for
//! throughput (batching makes the quiescent counts a `(k-1)`-relaxed
//! step, sharding relaxes the step to per-shard granularity) while the
//! *counting property* — every value handed out exactly once, no gaps
//! at quiescence — is preserved exactly. The differential tests pin
//! that; the frontend bench measures the ordering spent via the
//! Def-2.4 sweep and the exhaustive oracle.

pub mod combining;
pub mod sharded;

pub use combining::{CombiningConfig, CombiningCounter};
pub use sharded::{RoutePolicy, ShardedCounter};
