//! Automated attack search: exhaustively explore extremal schedules.
//!
//! The hand-built Section 4 scenarios pick each token's entry time and
//! pace adversarially. This module automates that choice: every token
//! independently gets an entry time from a small candidate set and an
//! extremal pace (every link at `c1`, or every link at `c2` — the
//! corners of the admissible delay polytope), and every combination is
//! executed. The search
//!
//! * rediscovers the paper's attacks (the Section 1 example falls out
//!   of a 3-token search on the width-2 network),
//! * and doubles as a bounded *verifier*: with `c2 <= 2·c1` it finds
//!   nothing, on any network — Corollary 3.9 checked over the whole
//!   extremal-schedule box.

use cnet_topology::Topology;

use crate::executor::TimedExecutor;
use crate::{LinkTiming, Time, TimingError, TimingSchedule};

/// Parameters of a [`search_violations`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Number of tokens (token `i` enters on input `i mod v`).
    pub tokens: usize,
    /// Candidate entry times each token chooses from.
    pub entry_candidates: Vec<Time>,
    /// Stop after this many assignments.
    pub budget: u64,
}

impl SearchConfig {
    /// A sensible default candidate set for a depth-`h` network:
    /// `{0, 1, h·c1 + 1, 2·h·c1 + 2}` — "at the start", "just behind",
    /// "right after a fast traversal", "after two".
    #[must_use]
    pub fn for_network(topology: &Topology, timing: LinkTiming, tokens: usize) -> Self {
        let h = topology.depth() as Time;
        SearchConfig {
            tokens,
            entry_candidates: vec![0, 1, h * timing.c1() + 1, 2 * h * timing.c1() + 2],
            budget: 5_000_000,
        }
    }
}

/// The result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Assignments executed.
    pub assignments: u64,
    /// Assignments whose execution contained at least one violation.
    pub violating: u64,
    /// A witness schedule for the first violating assignment found.
    pub witness: Option<TimingSchedule>,
    /// Whether the budget cut the search short.
    pub truncated: bool,
}

impl SearchOutcome {
    /// Whether any violating schedule exists in the searched box.
    #[must_use]
    pub fn found(&self) -> bool {
        self.witness.is_some()
    }
}

/// Exhaustively executes every extremal schedule in the box
/// `(entry ∈ candidates) × (pace ∈ {c1, c2})` per token and reports the
/// violating ones.
///
/// # Errors
///
/// Returns [`TimingError::EmptySchedule`] for an empty configuration.
pub fn search_violations(
    topology: &Topology,
    timing: LinkTiming,
    config: &SearchConfig,
) -> Result<SearchOutcome, TimingError> {
    if config.tokens == 0 || config.entry_candidates.is_empty() {
        return Err(TimingError::EmptySchedule);
    }
    let h = topology.depth();
    let v = topology.input_width();
    let executor = TimedExecutor::new(topology);
    let choices = (config.entry_candidates.len() * 2) as u64;

    let mut outcome = SearchOutcome {
        assignments: 0,
        violating: 0,
        witness: None,
        truncated: false,
    };
    // mixed-radix counter over per-token (entry, pace) choices
    let mut digits = vec![0u64; config.tokens];
    loop {
        if outcome.assignments >= config.budget {
            outcome.truncated = true;
            return Ok(outcome);
        }
        outcome.assignments += 1;

        let mut schedule = TimingSchedule::new(h);
        for (i, &d) in digits.iter().enumerate() {
            let entry = config.entry_candidates[(d / 2) as usize];
            let pace = if d % 2 == 0 { timing.c1() } else { timing.c2() };
            schedule.push_delays(i % v, entry, &vec![pace; h])?;
        }
        let exec = executor.run(&schedule)?;
        if exec.nonlinearizable_count() > 0 {
            outcome.violating += 1;
            if outcome.witness.is_none() {
                outcome.witness = Some(schedule);
            }
        }

        // increment the mixed-radix counter
        let mut i = 0;
        loop {
            if i == digits.len() {
                return Ok(outcome);
            }
            digits[i] += 1;
            if digits[i] < choices {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::constructions;

    #[test]
    fn rediscovers_the_intro_example() {
        let net = constructions::single_balancer();
        let timing = LinkTiming::new(2, 8).unwrap();
        let config = SearchConfig::for_network(&net, timing, 3);
        let out = search_violations(&net, timing, &config).unwrap();
        assert!(out.found(), "the Section 1 example is in the box");
        assert!(!out.truncated);
        // the witness really violates
        let exec = TimedExecutor::new(&net).run(&out.witness.unwrap()).unwrap();
        assert!(exec.nonlinearizable_count() > 0);
    }

    #[test]
    fn rediscovers_a_tree_attack() {
        let net = constructions::counting_tree(4).unwrap();
        let timing = LinkTiming::new(10, 30).unwrap();
        let config = SearchConfig::for_network(&net, timing, 5);
        let out = search_violations(&net, timing, &config).unwrap();
        assert!(out.found(), "a 5-token tree attack exists at ratio 3");
    }

    /// Bounded verification of Corollary 3.9: with `c2 = 2 c1` the
    /// whole extremal box is violation-free.
    #[test]
    fn finds_nothing_in_the_guaranteed_regime() {
        let timing = LinkTiming::new(10, 20).unwrap();
        for net in [
            constructions::single_balancer(),
            constructions::counting_tree(4).unwrap(),
            constructions::bitonic(4).unwrap(),
        ] {
            let config = SearchConfig::for_network(&net, timing, 4);
            let out = search_violations(&net, timing, &config).unwrap();
            assert!(!out.found(), "Corollary 3.9 violated on {net:?}");
            assert_eq!(out.violating, 0);
        }
    }

    #[test]
    fn budget_truncates() {
        let net = constructions::single_balancer();
        let timing = LinkTiming::new(2, 8).unwrap();
        let mut config = SearchConfig::for_network(&net, timing, 3);
        config.budget = 7;
        let out = search_violations(&net, timing, &config).unwrap();
        assert!(out.truncated);
        assert_eq!(out.assignments, 7);
    }

    #[test]
    fn empty_configs_rejected() {
        let net = constructions::single_balancer();
        let timing = LinkTiming::new(1, 3).unwrap();
        let bad = SearchConfig {
            tokens: 0,
            entry_candidates: vec![0],
            budget: 10,
        };
        assert!(search_violations(&net, timing, &bad).is_err());
        let bad = SearchConfig {
            tokens: 2,
            entry_candidates: vec![],
            budget: 10,
        };
        assert!(search_violations(&net, timing, &bad).is_err());
    }
}
