//! A packaged adversarial scenario: network, timing, and schedule.

use cnet_topology::Topology;

use crate::executor::TimedExecutor;
use crate::{Execution, LinkTiming, TimingError, TimingSchedule};

/// A complete adversarial construction ready to execute.
///
/// The schedule is always admissible for the scenario's [`LinkTiming`]
/// (every link delay lies in `[c1, c2]`); executing it yields at least
/// [`Scenario::min_violations`] non-linearizable operations.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short name for reports ("theorem-4.1" etc.).
    pub name: &'static str,
    /// The attacked network.
    pub topology: Topology,
    /// The link-timing bounds the schedule honours.
    pub timing: LinkTiming,
    /// The adversarial schedule itself.
    pub schedule: TimingSchedule,
    /// A lower bound on the number of non-linearizable operations the
    /// execution will contain.
    pub min_violations: usize,
}

impl Scenario {
    /// Runs the scenario's schedule on its network.
    ///
    /// # Errors
    ///
    /// Propagates executor errors; none occur for scenarios built by
    /// this module.
    pub fn execute(&self) -> Result<Execution, TimingError> {
        TimedExecutor::new(&self.topology).run(&self.schedule)
    }

    /// Validates that the schedule respects the scenario's own timing
    /// bounds — every adversarial delay lies within `[c1, c2]`.
    ///
    /// # Errors
    ///
    /// Returns the first inadmissible delay; none exist for scenarios
    /// built by this module.
    pub fn validate(&self) -> Result<(), TimingError> {
        self.schedule.validate(&self.topology, Some(self.timing))
    }
}
