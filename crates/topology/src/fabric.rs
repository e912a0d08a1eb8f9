//! The interconnect-fabric description.
//!
//! The simulator's original machine model priced every wire as one
//! latency draw (a fixed link cost plus uniform jitter). A [`Fabric`] replaces
//! that flat wire with a small description of the interconnect between
//! balancers:
//!
//! * a [`LinkSpec`] — propagation delay plus a finite drop-tail egress
//!   queue with a configurable service rate and random loss;
//! * a [`SwitchSpec`] — the one shared switch every wire lands on,
//!   which multiplexes all links through one egress queue before each
//!   token enters its destination's link queue;
//! * a [`RetryPolicy`] — what a sender does when the fabric refuses a
//!   token: capped exponential backoff, either after an immediate NACK
//!   (backpressure) or after a detection timeout (silent drop).
//!
//! This crate holds only the *description* and its validation; the
//! dynamics (queue occupancy, loss draws, retry scheduling) live in
//! the simulator, which interprets the description against its event
//! queue. The legacy wire is the *degenerate* fabric — unbounded
//! zero-service queues, zero loss — and the simulator is
//! required (and golden-trace tested) to reproduce the pre-fabric
//! event stream exactly in that case.

use std::error::Error;
use std::fmt;

use serde::impl_serde_struct;

/// One wire's timing and queueing model.
///
/// Tokens traversing a link first pay `delay` (plus a uniform draw in
/// `[0, jitter]` per transmission attempt), then enter the egress
/// queue of the destination, which serves one token per `service`
/// cycles and holds at most `capacity` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Propagation cycles per traversal.
    pub delay: u64,
    /// Uniform random extra cycles per transmission attempt;
    /// retransmissions re-draw it.
    pub jitter: u64,
    /// Cycles the destination egress queue spends serving one token.
    /// `0` is an infinitely fast port: tokens pass straight through.
    pub service: u64,
    /// Drop-tail queue slots at the destination egress (holder
    /// included); `0` means unbounded.
    pub capacity: u32,
    /// Random loss per transmission attempt, in tokens per million.
    pub loss_per_million: u32,
}

impl_serde_struct!(LinkSpec {
    delay,
    jitter,
    service,
    capacity,
    loss_per_million,
});

/// The shared egress queue of a switch stage.
///
/// Switches multiplex many links through one queue, so their service
/// rate and capacity are what turn independent wires into a shared
/// bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Cycles the switch egress spends serving one token.
    pub service: u64,
    /// Drop-tail slots in the switch egress queue (holder included);
    /// `0` means unbounded.
    pub capacity: u32,
}

impl_serde_struct!(SwitchSpec { service, capacity });

/// What a sender does when the fabric refuses a token (a lost
/// transmission or a full queue).
///
/// Attempt `k` (1-based) retries after `min(backoff_base << (k-1),
/// backoff_cap)` cycles; without backpressure a full-queue drop is
/// only *detected* after an additional `backoff_cap` timeout. After
/// `max_attempts` failures the token is force-delivered (and counted)
/// so no workload can livelock on an unlucky loss stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retry delay, in cycles.
    pub backoff_base: u64,
    /// Upper bound on the exponential backoff, in cycles.
    pub backoff_cap: u64,
    /// Failed attempts per hop before the token is force-delivered.
    pub max_attempts: u32,
}

impl_serde_struct!(RetryPolicy {
    backoff_base,
    backoff_cap,
    max_attempts,
});

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff_base: 64,
            backoff_cap: 2048,
            max_attempts: 16,
        }
    }
}

impl RetryPolicy {
    /// The capped exponential backoff before retry attempt `attempt`
    /// (1-based). Saturating, so absurd parameters cannot overflow.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        let raw = if self.backoff_base == 0 {
            0
        } else if shift > self.backoff_base.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base << shift
        };
        raw.min(self.backoff_cap)
    }
}

/// The full interconnect description: every wire goes through one
/// shared switch, then its destination's link queue, under one retry
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fabric {
    /// Per-destination link model (every wire shares it).
    pub link: LinkSpec,
    /// The shared switch every wire lands on.
    pub switch: SwitchSpec,
    /// `true`: a full queue NACKs and the sender retries after capped
    /// exponential backoff. `false`: a full queue silently drops and
    /// the sender retransmits only after a `backoff_cap` detection
    /// timeout on top of the backoff.
    pub backpressure: bool,
    /// Loss/congestion retry behaviour.
    pub retry: RetryPolicy,
}

impl_serde_struct!(Fabric {
    link,
    switch,
    backpressure,
    retry,
});

impl Default for Fabric {
    fn default() -> Self {
        Fabric::degenerate(0, 0)
    }
}

impl Fabric {
    /// The degenerate fabric equivalent to the legacy flat wire:
    /// unbounded zero-service queues, zero loss. The simulator
    /// reproduces the pre-fabric event stream exactly for this fabric.
    #[must_use]
    pub fn degenerate(delay: u64, jitter: u64) -> Self {
        Fabric {
            link: LinkSpec {
                delay,
                jitter,
                service: 0,
                capacity: 0,
                loss_per_million: 0,
            },
            switch: SwitchSpec {
                service: 0,
                capacity: 0,
            },
            backpressure: false,
            retry: RetryPolicy::default(),
        }
    }

    /// Whether this fabric is behaviourally the legacy flat wire: no
    /// queueing, no loss, nothing for the retry policy to do. The
    /// simulator takes the exact pre-fabric code path (same RNG draw
    /// order, same events) when this holds.
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.link.service == 0
            && self.link.capacity == 0
            && self.link.loss_per_million == 0
            && self.switch.service == 0
            && self.switch.capacity == 0
    }

    /// Checks the description for parameters with no defined dynamics.
    ///
    /// # Errors
    ///
    /// Returns the [`FabricError`] naming the degenerate field.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.link.loss_per_million > 1_000_000 {
            return Err(FabricError::LossOutOfRange {
                loss_per_million: self.link.loss_per_million,
            });
        }
        if self.link.capacity > 0 && self.link.service == 0 {
            return Err(FabricError::BoundedZeroService { stage: "link" });
        }
        if self.switch.capacity > 0 && self.switch.service == 0 {
            return Err(FabricError::BoundedZeroService { stage: "switch" });
        }
        if self.retry.max_attempts == 0 {
            return Err(FabricError::ZeroAttempts);
        }
        if self.retry.backoff_cap < self.retry.backoff_base {
            return Err(FabricError::BackoffCapBelowBase {
                base: self.retry.backoff_base,
                cap: self.retry.backoff_cap,
            });
        }
        Ok(())
    }
}

/// A fabric description with no defined dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// `loss_per_million` exceeds one million: more than every token
    /// lost.
    LossOutOfRange {
        /// The offending rate.
        loss_per_million: u32,
    },
    /// A queue with finite capacity but zero service time: it can
    /// never be observed full, so the bound is a lie.
    BoundedZeroService {
        /// Which spec carried the bound (`"link"` or `"switch"`).
        stage: &'static str,
    },
    /// `max_attempts == 0`: a token that may never transmit.
    ZeroAttempts,
    /// `backoff_cap < backoff_base`: the first retry already exceeds
    /// the cap.
    BackoffCapBelowBase {
        /// The configured base.
        base: u64,
        /// The configured cap.
        cap: u64,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::LossOutOfRange { loss_per_million } => write!(
                f,
                "link loss_per_million must be <= 1_000_000, got {loss_per_million}"
            ),
            FabricError::BoundedZeroService { stage } => write!(
                f,
                "{stage} capacity is bounded but its service time is 0 \
                 (an infinitely fast queue can never fill)"
            ),
            FabricError::ZeroAttempts => {
                write!(f, "retry max_attempts must be >= 1")
            }
            FabricError::BackoffCapBelowBase { base, cap } => write!(
                f,
                "retry backoff_cap ({cap}) must be >= backoff_base ({base})"
            ),
        }
    }
}

impl Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn degenerate_fabric_is_degenerate() {
        let f = Fabric::degenerate(20, 200);
        assert!(f.is_degenerate());
        assert!(f.validate().is_ok());
        assert_eq!(f.link.delay, 20);
        assert_eq!(f.link.jitter, 200);
    }

    #[test]
    fn any_queueing_parameter_leaves_the_degenerate_case() {
        let base = Fabric::degenerate(20, 200);
        for f in [
            Fabric {
                link: LinkSpec {
                    loss_per_million: 1,
                    ..base.link
                },
                ..base
            },
            Fabric {
                link: LinkSpec {
                    service: 1,
                    ..base.link
                },
                ..base
            },
            Fabric {
                switch: SwitchSpec {
                    service: 5,
                    capacity: 0,
                },
                ..base
            },
        ] {
            assert!(!f.is_degenerate(), "{f:?}");
        }
    }

    #[test]
    fn validation_rejects_undefined_dynamics() {
        let base = Fabric::degenerate(0, 0);
        let bad_loss = Fabric {
            link: LinkSpec {
                loss_per_million: 1_000_001,
                ..base.link
            },
            ..base
        };
        assert!(matches!(
            bad_loss.validate(),
            Err(FabricError::LossOutOfRange { .. })
        ));
        let bad_bound = Fabric {
            link: LinkSpec {
                capacity: 4,
                service: 0,
                ..base.link
            },
            ..base
        };
        assert!(matches!(
            bad_bound.validate(),
            Err(FabricError::BoundedZeroService { stage: "link" })
        ));
        let bad_retry = Fabric {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..base
        };
        assert_eq!(bad_retry.validate(), Err(FabricError::ZeroAttempts));
        let bad_cap = Fabric {
            retry: RetryPolicy {
                backoff_base: 100,
                backoff_cap: 10,
                max_attempts: 3,
            },
            ..base
        };
        assert!(matches!(
            bad_cap.validate(),
            Err(FabricError::BackoffCapBelowBase { .. })
        ));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy {
            backoff_base: 10,
            backoff_cap: 100,
            max_attempts: 8,
        };
        assert_eq!(r.backoff(1), 10);
        assert_eq!(r.backoff(2), 20);
        assert_eq!(r.backoff(3), 40);
        assert_eq!(r.backoff(4), 80);
        assert_eq!(r.backoff(5), 100);
        assert_eq!(r.backoff(200), 100);
        // saturation, not overflow, on absurd parameters
        let huge = RetryPolicy {
            backoff_base: u64::MAX / 2,
            backoff_cap: u64::MAX,
            max_attempts: u32::MAX,
        };
        assert_eq!(huge.backoff(u32::MAX), u64::MAX);
    }

    #[test]
    fn fabric_serde_round_trip() {
        let f = Fabric {
            link: LinkSpec {
                delay: 20,
                jitter: 200,
                service: 8,
                capacity: 16,
                loss_per_million: 10_000,
            },
            switch: SwitchSpec {
                service: 4,
                capacity: 64,
            },
            backpressure: true,
            retry: RetryPolicy::default(),
        };
        let text = serde::json::to_string(&f.to_value());
        let back = Fabric::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, f);
    }
}
