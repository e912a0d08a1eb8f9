use std::error::Error;
use std::fmt;

use cnet_topology::TopologyError;

use crate::link::Time;

/// Errors raised while building or executing timing schedules, and
/// while constructing the [`adversary`](crate::adversary) scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingError {
    /// `c1` must satisfy `1 <= c1 <= c2`.
    InvalidLinkTiming {
        /// Provided lower bound.
        c1: Time,
        /// Provided upper bound.
        c2: Time,
    },
    /// A token schedule's number of pass times does not match the
    /// network depth (`h + 1` times are required: layers `1..=h` plus
    /// the counter arrival).
    DepthMismatch {
        /// Offending token id.
        token: usize,
        /// Number of times supplied.
        got: usize,
        /// Number of times required (`depth + 1`).
        expected: usize,
    },
    /// A token's entry input is out of range for the network.
    InputOutOfRange {
        /// Offending token id.
        token: usize,
        /// The requested input.
        input: usize,
        /// The network's input width.
        width: usize,
    },
    /// A token's pass times are not strictly increasing.
    NonMonotonicTimes {
        /// Offending token id.
        token: usize,
        /// Index of the first non-increasing step (0-based link index).
        link: usize,
    },
    /// A link traversal time falls outside `[c1, c2]`.
    DelayOutOfBounds {
        /// Offending token id.
        token: usize,
        /// 0-based link index along the token's path.
        link: usize,
        /// The offending delay.
        delay: Time,
        /// Allowed minimum.
        c1: Time,
        /// Allowed maximum.
        c2: Time,
    },
    /// A schedule file's row carries a token id other than its row
    /// index (a swapped, repeated or skipped id).
    TokenIdMismatch {
        /// The 0-based data row.
        row: usize,
        /// The id the row carries.
        id: u64,
    },
    /// The schedule contains no tokens.
    EmptySchedule,
    /// The requested `c2/c1` ratio is too small for an adversarial
    /// construction to produce a violation (discrete time needs a
    /// little slack over the paper's strict inequality).
    RatioTooSmall {
        /// A human-readable form of the required condition.
        required: String,
        /// The provided `c1`.
        c1: Time,
        /// The provided `c2`.
        c2: Time,
    },
    /// The requested gap exceeds the largest gap for which the tree
    /// attack still violates.
    GapTooLarge {
        /// The requested gap.
        gap: Time,
        /// The largest violating gap for these parameters.
        max: Time,
    },
    /// An underlying network construction failed (bad width).
    Topology(TopologyError),
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::InvalidLinkTiming { c1, c2 } => {
                write!(
                    f,
                    "invalid link timing: need 1 <= c1 <= c2, got c1={c1}, c2={c2}"
                )
            }
            TimingError::DepthMismatch {
                token,
                got,
                expected,
            } => write!(
                f,
                "token {token} has {got} pass times but the network requires {expected}"
            ),
            TimingError::InputOutOfRange {
                token,
                input,
                width,
            } => write!(
                f,
                "token {token} enters on input {input} but the network has {width} inputs"
            ),
            TimingError::NonMonotonicTimes { token, link } => write!(
                f,
                "token {token} has non-increasing pass times at link {link}"
            ),
            TimingError::DelayOutOfBounds {
                token,
                link,
                delay,
                c1,
                c2,
            } => write!(
                f,
                "token {token} traverses link {link} in {delay} time units, outside [{c1}, {c2}]"
            ),
            TimingError::TokenIdMismatch { row, id } => {
                write!(
                    f,
                    "row {row} carries token id {id}; ids must be 0, 1, 2, ... in order"
                )
            }
            TimingError::EmptySchedule => write!(f, "schedule contains no tokens"),
            TimingError::RatioTooSmall { required, c1, c2 } => write!(
                f,
                "timing c1={c1}, c2={c2} too tame for this attack; need {required}"
            ),
            TimingError::GapTooLarge { gap, max } => {
                write!(f, "gap {gap} exceeds the largest violating gap {max}")
            }
            TimingError::Topology(e) => write!(f, "topology: {e}"),
        }
    }
}

impl Error for TimingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TimingError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for TimingError {
    fn from(e: TopologyError) -> Self {
        TimingError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TimingError::InvalidLinkTiming { c1: 5, c2: 3 };
        assert!(e.to_string().contains("c1=5"));
        let e = TimingError::EmptySchedule;
        assert_eq!(e.to_string(), "schedule contains no tokens");
        assert!(e.source().is_none());

        let e = TimingError::RatioTooSmall {
            required: "c2 > 2·c1 + 2".into(),
            c1: 5,
            c2: 10,
        };
        assert_eq!(
            e.to_string(),
            "timing c1=5, c2=10 too tame for this attack; need c2 > 2·c1 + 2"
        );
        assert!(e.source().is_none());
        let e = TimingError::TokenIdMismatch { row: 1, id: 0 };
        assert_eq!(
            e.to_string(),
            "row 1 carries token id 0; ids must be 0, 1, 2, ... in order"
        );
        let e = TimingError::GapTooLarge { gap: 30, max: 29 };
        assert_eq!(e.to_string(), "gap 30 exceeds the largest violating gap 29");

        let e: TimingError = TopologyError::WidthNotPowerOfTwo { width: 3 }.into();
        assert_eq!(
            e.to_string(),
            "topology: width 3 is not a power of two >= 2"
        );
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimingError>();
    }
}
