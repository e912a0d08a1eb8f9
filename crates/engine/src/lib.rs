//! The unified execution engine: one vocabulary for driving tokens
//! through a counting network, whatever the substrate.
//!
//! The paper's central claim — linearizability is governed by the
//! local wire-timing ratio `c2/c1`, not by network depth — is testable
//! here because the *same* token stream can be pushed through
//! different execution substrates and the timestamped histories
//! compared. Definitions 2.2 and 2.4 judge any timed execution, so the
//! engine owns the vocabulary of a run, and every substrate is a
//! backend of it:
//!
//! * [`Workload`] — what to run: `n` clients, the delayed fraction `F`
//!   and its wait `W`, the operation count, and an [`ArrivalProcess`]
//!   (the paper's closed loop, or open-loop / bursty / trace-replayed
//!   arrivals on a deterministic seeded schedule drawn from
//!   [`SimRng`]).
//! * [`Backend`] — something that can execute a [`CheckedWorkload`]
//!   against a counting network and produce a [`RunOutcome`]. A
//!   workload is checked once ([`Workload::check`]), which also reads
//!   a trace workload's file; no backend validates or reads it again.
//!   Two implementations ship here: [`ShmBackend`] (one real thread per
//!   client) and [`AsyncBackend`] (a cooperative executor
//!   multiplexing millions of logical clients onto a small worker
//!   pool — the only substrate where "clients" can mean `10^6`). The
//!   first drives any [`CounterSpec`]: the compiled network or the
//!   combining and sharded frontends over it. The second admits one
//!   operation at a time, so it drives the compiled network only. The
//!   discrete-event simulator is `cnet-proteus`'s `SimBackend`, and
//!   `cnet-harness`'s `BackendSpec` names every family as one
//!   parseable value.
//! * [`RunOutcome`] — the backend name, a full [`RunStats`]
//!   (timestamped operation trace, per-counter totals, the `Tog`
//!   fallback counters, the simulator's own [`SimCounters`] when it
//!   produced the run, optional [`cnet_obs::MetricsSnapshot`]), and
//!   the host wall-clock. Consumed uniformly by
//!   `timing::linearizability`, `timing::program_order` and
//!   [`RunRecord`], the serializable record every report, dump and
//!   committed artifact is made of.
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
//! use cnet_engine::{AsyncBackend, AsyncConfig, Backend, BalancerKind, ShmBackend, Workload};
//! use cnet_topology::constructions;
//!
//! let net = constructions::bitonic(4)?;
//! let workload = Workload { total_ops: 200, ..Workload::paper(4, 0, 0) };
//! let kind = BalancerKind::WaitFree;
//!
//! // the same workload, two substrates
//! let threads = ShmBackend::network(&net, kind, 7).run(&workload);
//! let pooled = AsyncBackend::new(&net, kind, AsyncConfig::default(), 7).run(&workload);
//! for outcome in [&threads, &pooled] {
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
mod record;
mod rng;
mod schedule;
mod service;
mod shm;
mod stats;
mod workload;

pub use cnet_concurrent::frontend::{CombiningConfig, RoutePolicy};
pub use cnet_concurrent::network::BalancerKind;

pub use async_exec::{AsyncBackend, AsyncConfig};
pub use counter::{CounterSpec, SpecError};
pub use outcome::RunOutcome;
pub use record::{RunRecord, SchemaVersion, SCHEMA_VERSION};
pub use rng::SimRng;
pub use schedule::{arrival_schedule, closed_loop_schedule, Arrivals};
pub use service::{Bracket, ServiceDriver};
pub use shm::{run_counter, ShmBackend};
pub use stats::{FabricStats, ProcessMap, RunStats, SimCounters, StatsSummary};
pub use workload::{ArrivalProcess, CheckedWorkload, WaitMode, Workload, WorkloadError};

/// Whether this build of the engine records through the live probe
/// layer (the `obs` feature — which Cargo unifies on for every crate of
/// an invocation that also builds `cnet-cli`). A live probe reads the
/// host clock several times per balancer, which is more than a native
/// operation costs, so host-time measurements refuse to run when this
/// is `true`.
pub const PROBES_LIVE: bool = cfg!(feature = "obs");

/// An execution substrate: builds (or owns) a counter over a topology
/// and can run a [`CheckedWorkload`] against it.
///
/// Implementations are stateless across runs — each run drives a
/// fresh counter, so outcomes never leak state between workloads. The
/// trait is object-safe; heterogeneous backend lists
/// (`Vec<Box<dyn Backend>>`) are how the CLI's `cnet run` compares
/// substrates in one invocation, checking the workload once and
/// handing the checked value to each.
pub trait Backend {
    /// Short identifier recorded in the outcome (and, downstream, in
    /// its [`RunRecord`]): the backend's family, `sim` for the
    /// simulator, [`AsyncBackend::NAME`] for the cooperative executor,
    /// [`CounterSpec::family`] for a native counter on client threads.
    fn name(&self) -> &'static str;

    /// Executes the checked workload to completion and returns the
    /// unified outcome.
    fn run_checked(&self, workload: &CheckedWorkload) -> RunOutcome;

    /// Checks the workload ([`Workload::check`]), then executes it.
    ///
    /// # Panics
    ///
    /// Panics with the [`WorkloadError`]'s text on a degenerate
    /// workload; use [`Backend::try_run`] for the fallible path.
    fn run(&self, workload: &Workload) -> RunOutcome {
        self.try_run(workload)
            .unwrap_or_else(|e| panic!("invalid workload: {e}"))
    }

    /// Checks the workload, then executes it — the fallible
    /// counterpart of [`Backend::run`] for callers (the CLI, the
    /// benches) that surface [`WorkloadError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`WorkloadError`] naming the degenerate field,
    /// without starting the run.
    fn try_run(&self, workload: &Workload) -> Result<RunOutcome, WorkloadError> {
        Ok(self.run_checked(&workload.check()?))
    }
}
