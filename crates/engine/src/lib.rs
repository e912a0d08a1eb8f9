//! The unified execution engine: one vocabulary for driving tokens
//! through a counting network, whatever the substrate.
//!
//! The paper's central claim — linearizability is governed by the
//! local wire-timing ratio `c2/c1`, not by network depth — is testable
//! here because the *same* token stream can be pushed through
//! different execution substrates and the timestamped histories
//! compared. The engine gives every substrate (the `cnet-proteus`
//! event loop, client threads, cooperative clients) one run loop, one
//! timestamping discipline and one metrics handoff, behind four
//! names:
//!
//! * [`Backend`] — something that can execute a [`Workload`] against a
//!   counting network and produce a [`RunOutcome`]. Three
//!   implementations ship: [`SimBackend`] (the deterministic
//!   discrete-event simulator), [`ShmBackend`] (one real thread per
//!   client) and [`AsyncBackend`] (a cooperative executor multiplexing
//!   millions of logical clients onto a small worker pool — the only
//!   substrate where "clients" can mean `10^6`). The two native
//!   executors drive any [`CounterSpec`]: the compiled network or the
//!   combining and sharded frontends over it.
//! * [`BackendSpec`] — "which counter, driven how" as one parseable
//!   value (`shm`, `shm-batch:8`, `async-shard`, …): the registry behind
//!   `cnet run --backend` and the native benches, and the only place a
//!   flavor is named.
//! * [`Workload`] — re-exported from `cnet-proteus`, now carrying an
//!   [`ArrivalProcess`]: the paper's closed loop, or open-loop /
//!   bursty arrivals on a deterministic seeded schedule.
//! * [`RunOutcome`] — the backend name, a full [`RunStats`]
//!   (timestamped operation trace, per-counter totals, contention
//!   counters, optional [`cnet_obs::MetricsSnapshot`]), and the
//!   host wall-clock. Consumed uniformly by
//!   `timing::linearizability`, `timing::program_order` and the
//!   harness's `RunRecord`.
//!
//! # Timestamp domains
//!
//! The simulator stamps operations in *simulated cycles* and is
//! bit-for-bit deterministic. The native backends stamp operations
//! with a global logical clock (one atomic `fetch_add` tick on each
//! side of an operation, the paper's measurement on real threads), so
//! "completely precedes" has a sound witness but actual interleaving
//! is the OS scheduler's. [`run_counter`] runs the same client threads
//! over a counter the caller built. Cross-domain
//! numbers are comparable in *shape* (ratios, violation counts), not
//! in units.
//!
//! # Example
//!
//! ```
//! use cnet_engine::{Backend, ShmBackend, SimBackend, Workload};
//! use cnet_proteus::SimConfig;
//! use cnet_topology::constructions;
//!
//! let net = constructions::bitonic(4)?;
//! let workload = Workload { total_ops: 200, ..Workload::paper(4, 0, 0) };
//!
//! // the same workload, two substrates
//! let sim = SimBackend::new(&net, SimConfig::queue_lock(7)).run(&workload);
//! let shm = ShmBackend::network(&net, Default::default(), 7).run(&workload);
//! for outcome in [&sim, &shm] {
//!     assert_eq!(outcome.stats.operations.len(), 200);
//!     assert!(outcome.counts_exactly());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod async_exec;
mod counter;
mod driver;
mod outcome;
mod schedule;
mod service;
mod shm;
mod sim;
mod spec;

pub use cnet_concurrent::frontend::{CombiningConfig, RoutePolicy};
pub use cnet_concurrent::network::BalancerKind;
pub use cnet_proteus::{ArrivalProcess, RunStats, SimConfig, WaitMode, Workload, WorkloadError};

pub use async_exec::{AsyncBackend, AsyncConfig};
pub use counter::CounterSpec;
pub use outcome::RunOutcome;
pub use schedule::arrival_schedule;
pub use service::{Bracket, ServiceDriver};
pub use shm::{run_counter, ShmBackend};
pub use sim::SimBackend;
pub use spec::{BackendSpec, SpecError};

/// Whether this build of the engine records through the live probe
/// layer (the `obs` feature — which Cargo unifies on for every crate of
/// an invocation that also builds `cnet-cli`). A live probe reads the
/// host clock several times per balancer, which is more than a native
/// operation costs, so host-time measurements refuse to run when this
/// is `true`.
pub const PROBES_LIVE: bool = cfg!(feature = "obs");

/// An execution substrate: builds (or owns) a counter over a topology
/// and can run a [`Workload`] against it.
///
/// Implementations are stateless across runs — each [`Backend::run`]
/// drives a fresh counter, so outcomes never leak state between
/// workloads. The trait is object-safe; heterogeneous backend lists
/// (`Vec<Box<dyn Backend>>`) are how the CLI's `cnet run` compares
/// substrates in one invocation.
pub trait Backend {
    /// Short identifier recorded in the outcome (and, downstream, in
    /// the harness `RunRecord`): the family string of
    /// [`BackendSpec::name`].
    fn name(&self) -> &'static str;

    /// Executes the workload to completion and returns the unified
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate workload ([`Workload::validate`]); use
    /// [`Backend::try_run`] for the fallible path.
    fn run(&self, workload: &Workload) -> RunOutcome;

    /// Validates the workload, then executes it — the fallible
    /// counterpart of [`Backend::run`] for callers (the CLI, the
    /// benches) that surface [`WorkloadError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`WorkloadError`] naming the degenerate field,
    /// without starting the run.
    fn try_run(&self, workload: &Workload) -> Result<RunOutcome, WorkloadError> {
        workload.validate()?;
        Ok(self.run(workload))
    }
}
