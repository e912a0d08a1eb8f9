//! The workload every backend runs: how many clients, which of them
//! are delayed and by how much, how many operations, and how they
//! arrive.

use std::fmt;

use serde::{impl_serde_struct, impl_serde_unit_enum, Deserialize, Error, Serialize, Value};

/// How injected delays are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// The benchmark of Figures 5–7: each *delayed* processor waits
    /// exactly `W` cycles after traversing each node; the others never
    /// wait.
    Fixed,
    /// The paper's control scenario: *every* processor waits a uniform
    /// random number of cycles in `[0, W]` after each node.
    UniformRandom,
}

impl_serde_unit_enum!(WaitMode {
    Fixed,
    UniformRandom
});

/// How operations arrive at the network.
///
/// The paper's Section 5 benchmark is purely closed-loop: each
/// processor starts its next operation the cycle after the previous one
/// responds, so offered load is capped by `n`. The open-loop variants
/// decouple arrival from completion — tokens are injected on a
/// deterministic seeded schedule regardless of how many are still in
/// flight — which is what a production counting service sees.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ArrivalProcess {
    /// Each of the `n` processors re-injects immediately after its
    /// previous operation completes (the Figure 5–7 benchmark).
    #[default]
    Closed,
    /// Tokens arrive one at a time with seeded uniform-random gaps in
    /// `[0, 2·mean_gap]` cycles (mean `mean_gap`), independent of
    /// completions. Token `i` behaves like processor `i mod n` for the
    /// delayed-fraction and input-wire assignment.
    Open {
        /// Mean cycles between consecutive arrivals.
        mean_gap: u64,
    },
    /// Tokens arrive in back-to-back groups of `burst`, with `gap`
    /// cycles between the last token of one burst and the first of the
    /// next — the adversarial "thundering herd" shape.
    Bursty {
        /// Tokens per burst (at least 1; 0 is treated as 1).
        burst: u32,
        /// Cycles between consecutive bursts.
        gap: u64,
    },
    /// Inter-arrival gaps replayed from a recorded trace file, so a
    /// captured production schedule can be driven through any backend.
    ///
    /// The file holds absolute arrival instants (cycles), one per
    /// line; blank lines and `#` comments are skipped. The successive
    /// differences become the gap sequence, cycled when `total_ops`
    /// outruns the recording. Every backend sees the identical
    /// schedule: the file is read once, deterministically, with no RNG
    /// involved.
    Trace {
        /// Path to the trace file, resolved at run time.
        path: String,
    },
}

/// A workload that cannot be meaningfully executed.
///
/// Every backend rejects these at the top of its run instead of
/// quietly degrading: an open-loop process with a zero mean gap is a
/// closed-loop burst wearing an open-loop label (every token "arrives"
/// at instant 0), and a zero-size burst has no defined schedule at
/// all. Both used to fall through to degenerate schedules that
/// *looked* like measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// `ArrivalProcess::Open { mean_gap: 0 }`: the offered load is
    /// infinite and the seeded gap stream is all zeros.
    ZeroMeanGap,
    /// `ArrivalProcess::Bursty { burst: 0, .. }`: a burst of zero
    /// tokens never schedules anything.
    ZeroBurst,
    /// `ArrivalProcess::Trace`: the file yields fewer than two
    /// arrival instants, so no inter-arrival gap is derivable.
    EmptyTrace,
    /// `ArrivalProcess::Trace`: an instant is smaller than its
    /// predecessor — arrival times must be non-decreasing.
    UnsortedTrace,
    /// `ArrivalProcess::Trace`: the file cannot be read, or a line is
    /// not an unsigned integer instant.
    UnreadableTrace,
    /// `delayed_percent > 100`: `F` is a share of the processors; a
    /// larger value runs as 100% and records a number that was not
    /// measured.
    DelayedPercentOver100,
    /// `processors == 0` with `total_ops > 0`: no client would run an
    /// operation, so a run would report an empty history as a clean
    /// one.
    NoClients,
    /// The last of `total_ops` arrivals can fall past `u64::MAX / 2`
    /// cycles (or nanoseconds): the schedule's running sum would wrap,
    /// or a native client would wait centuries for its instant. The
    /// other half of the range is headroom for the run's own
    /// latencies on top of the last arrival.
    ArrivalOverflow,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ZeroMeanGap => write!(
                f,
                "ArrivalProcess::Open requires mean_gap >= 1 \
                 (a zero gap is a closed-loop burst, not an open loop)"
            ),
            WorkloadError::ZeroBurst => write!(
                f,
                "ArrivalProcess::Bursty requires burst >= 1 \
                 (a zero-token burst schedules nothing)"
            ),
            WorkloadError::EmptyTrace => write!(
                f,
                "ArrivalProcess::Trace requires at least two arrival \
                 instants (no inter-arrival gap is derivable)"
            ),
            WorkloadError::UnsortedTrace => write!(
                f,
                "ArrivalProcess::Trace requires non-decreasing arrival \
                 instants"
            ),
            WorkloadError::UnreadableTrace => write!(
                f,
                "ArrivalProcess::Trace file is unreadable or holds a \
                 line that is not an unsigned integer instant"
            ),
            WorkloadError::DelayedPercentOver100 => write!(
                f,
                "delayed_percent (F) is a percentage of the processors and \
                 must be at most 100"
            ),
            WorkloadError::NoClients => write!(
                f,
                "processors (n) must be at least 1 when total_ops > 0 \
                 (no client would run an operation)"
            ),
            WorkloadError::ArrivalOverflow => write!(
                f,
                "the arrival schedule can run past u64::MAX / 2 before its \
                 last operation (the instants would overflow)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl ArrivalProcess {
    /// The latest instant at which the last of `total_ops` arrivals
    /// can fall, from the instant-0 first one: every gap of an open
    /// loop at its `2·mean_gap` maximum, one `gap` per completed burst,
    /// or the recorded gaps cycled over the run. `None` when that sum
    /// overflows `u64`.
    ///
    /// # Errors
    ///
    /// The [`WorkloadError`] naming a degenerate parameter: a zero mean
    /// gap or burst, or a trace file [`Self::load_trace`] refuses.
    fn last_arrival(&self, total_ops: usize) -> Result<Option<u64>, WorkloadError> {
        let gaps = total_ops.saturating_sub(1) as u64;
        Ok(match self {
            ArrivalProcess::Open { mean_gap: 0 } => return Err(WorkloadError::ZeroMeanGap),
            ArrivalProcess::Bursty { burst: 0, .. } => return Err(WorkloadError::ZeroBurst),
            ArrivalProcess::Closed => Some(0),
            ArrivalProcess::Open { mean_gap } => gaps
                .checked_mul(*mean_gap)
                .and_then(|sum| sum.checked_mul(2)),
            ArrivalProcess::Bursty { burst, gap } => gap.checked_mul(gaps / u64::from(*burst)),
            ArrivalProcess::Trace { path } => {
                let trace = Self::load_trace(path)?;
                let len = trace.len() as u64;
                // a recording's gaps sum to its last instant minus its
                // first, so neither sum below can overflow
                let cycle: u64 = trace.iter().sum();
                let rest: u64 = trace[..(gaps % len) as usize].iter().sum();
                cycle
                    .checked_mul(gaps / len)
                    .and_then(|sum| sum.checked_add(rest))
            }
        })
    }

    /// Reads a trace file into its inter-arrival gap sequence.
    ///
    /// Validation and the backends both come through here, so a
    /// workload that passed [`Workload::validate`] replays the exact
    /// gaps validation saw (absent a file race, which the backends
    /// surface as the same error).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UnreadableTrace`] on IO or parse failure,
    /// [`WorkloadError::UnsortedTrace`] on a decreasing instant, and
    /// [`WorkloadError::EmptyTrace`] when fewer than two instants
    /// remain after stripping comments and blank lines.
    pub fn load_trace(path: &str) -> Result<Vec<u64>, WorkloadError> {
        let text = std::fs::read_to_string(path).map_err(|_| WorkloadError::UnreadableTrace)?;
        let mut instants: Vec<u64> = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let t: u64 = line.parse().map_err(|_| WorkloadError::UnreadableTrace)?;
            if instants.last().is_some_and(|&prev| t < prev) {
                return Err(WorkloadError::UnsortedTrace);
            }
            instants.push(t);
        }
        if instants.len() < 2 {
            return Err(WorkloadError::EmptyTrace);
        }
        Ok(instants.windows(2).map(|w| w[1] - w[0]).collect())
    }
}

// `ArrivalProcess` has struct variants, so serde is hand-written like
// `Placement`'s: `"Closed"`, `{"Open": {"mean_gap": …}}`, or
// `{"Bursty": {"burst": …, "gap": …}}`.
impl Serialize for ArrivalProcess {
    fn to_value(&self) -> Value {
        match self {
            ArrivalProcess::Closed => Value::Str("Closed".to_string()),
            ArrivalProcess::Open { mean_gap } => Value::Object(vec![(
                "Open".to_string(),
                Value::Object(vec![("mean_gap".to_string(), mean_gap.to_value())]),
            )]),
            ArrivalProcess::Bursty { burst, gap } => Value::Object(vec![(
                "Bursty".to_string(),
                Value::Object(vec![
                    ("burst".to_string(), burst.to_value()),
                    ("gap".to_string(), gap.to_value()),
                ]),
            )]),
            ArrivalProcess::Trace { path } => Value::Object(vec![(
                "Trace".to_string(),
                Value::Object(vec![("path".to_string(), path.to_value())]),
            )]),
        }
    }
}

impl Deserialize for ArrivalProcess {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s == "Closed" => Ok(ArrivalProcess::Closed),
            Value::Object(_) => {
                if let Some(open) = v.get("Open") {
                    Ok(ArrivalProcess::Open {
                        mean_gap: open.field("mean_gap")?,
                    })
                } else if let Some(bursty) = v.get("Bursty") {
                    Ok(ArrivalProcess::Bursty {
                        burst: bursty.field("burst")?,
                        gap: bursty.field("gap")?,
                    })
                } else if let Some(trace) = v.get("Trace") {
                    Ok(ArrivalProcess::Trace {
                        path: trace.field("path")?,
                    })
                } else {
                    Err(Error::new(
                        "expected an `Open`, `Bursty`, or `Trace` arrival object",
                    ))
                }
            }
            other => Err(Error::new(format!("unknown ArrivalProcess: {other:?}"))),
        }
    }
}

/// The Section 5 benchmark workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Number of simulated processors `n`.
    pub processors: usize,
    /// The fraction `F` (in percent) of processors that are delayed.
    /// The first `n·F/100` processor ids are the delayed ones.
    pub delayed_percent: u32,
    /// The wait `W` in cycles.
    pub wait_cycles: u64,
    /// Stop once this many operations have completed (the paper used
    /// 5000).
    pub total_ops: usize,
    /// Fixed per-processor delays or uniform random delays.
    pub wait_mode: WaitMode,
    /// Closed-loop (the paper) or an open-loop arrival schedule.
    pub arrival: ArrivalProcess,
}

impl_serde_struct!(Workload {
    processors,
    delayed_percent,
    wait_cycles,
    total_ops,
    wait_mode,
    arrival,
});

impl Workload {
    /// The paper's exact benchmark shape: `n` processors, `F`% delayed
    /// by `W` cycles, 5000 operations, closed loop.
    #[must_use]
    pub fn paper(processors: usize, delayed_percent: u32, wait_cycles: u64) -> Self {
        Workload {
            processors,
            delayed_percent,
            wait_cycles,
            total_ops: 5000,
            wait_mode: WaitMode::Fixed,
            arrival: ArrivalProcess::Closed,
        }
    }

    /// Whether processor `p` belongs to the delayed fraction.
    #[inline]
    #[must_use]
    pub fn is_delayed(&self, p: usize) -> bool {
        (p as u64) * 100 < (self.processors as u64) * u64::from(self.delayed_percent)
    }

    /// Whether operations arrive on a schedule of their own (open,
    /// bursty or trace-replayed arrivals) rather than each of the `n`
    /// processors starting its next one when its last one responds.
    #[inline]
    #[must_use]
    pub fn is_open_loop(&self) -> bool {
        self.arrival != ArrivalProcess::Closed
    }

    /// Checks the workload for degenerate parameters every backend
    /// must reject (see [`WorkloadError`]).
    ///
    /// # Errors
    ///
    /// Returns the [`WorkloadError`] naming the degenerate field.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.delayed_percent > 100 {
            return Err(WorkloadError::DelayedPercentOver100);
        }
        if self.processors == 0 && self.total_ops > 0 {
            return Err(WorkloadError::NoClients);
        }
        match self.arrival.last_arrival(self.total_ops)? {
            Some(last) if last <= u64::MAX / 2 => Ok(()),
            _ => Err(WorkloadError::ArrivalOverflow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_fraction_counts() {
        let w = Workload::paper(8, 25, 100);
        let delayed: Vec<usize> = (0..8).filter(|&p| w.is_delayed(p)).collect();
        assert_eq!(delayed, vec![0, 1]);
        let w = Workload::paper(8, 0, 100);
        assert!((0..8).all(|p| !w.is_delayed(p)));
        let w = Workload::paper(8, 100, 100);
        assert!((0..8).all(|p| w.is_delayed(p)));
    }

    #[test]
    fn paper_workload_defaults() {
        let w = Workload::paper(256, 50, 100_000);
        assert_eq!(w.total_ops, 5000);
        assert_eq!(w.wait_mode, WaitMode::Fixed);
    }

    #[test]
    fn workload_serde_round_trip() {
        for arrival in [
            ArrivalProcess::Closed,
            ArrivalProcess::Open { mean_gap: 250 },
            ArrivalProcess::Bursty { burst: 8, gap: 900 },
            ArrivalProcess::Trace {
                path: "traces/recorded.txt".to_string(),
            },
        ] {
            let w = Workload {
                wait_mode: WaitMode::UniformRandom,
                arrival: arrival.clone(),
                ..Workload::paper(64, 50, 1000)
            };
            let text = serde::json::to_string(&w.to_value());
            let back = Workload::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, w);
        }
    }

    #[test]
    fn trace_files_parse_into_gap_sequences() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let ok = dir.join(format!("cnet-config-trace-ok-{pid}"));
        std::fs::write(&ok, "# header\n0\n\n10  # inline comment\n10\n45\n").unwrap();
        assert_eq!(
            ArrivalProcess::load_trace(ok.to_str().unwrap()),
            Ok(vec![10, 0, 35])
        );
        let empty = dir.join(format!("cnet-config-trace-empty-{pid}"));
        std::fs::write(&empty, "# nothing but comments\n7\n").unwrap();
        assert_eq!(
            ArrivalProcess::load_trace(empty.to_str().unwrap()),
            Err(WorkloadError::EmptyTrace)
        );
        let unsorted = dir.join(format!("cnet-config-trace-unsorted-{pid}"));
        std::fs::write(&unsorted, "5\n3\n").unwrap();
        assert_eq!(
            ArrivalProcess::load_trace(unsorted.to_str().unwrap()),
            Err(WorkloadError::UnsortedTrace)
        );
        assert_eq!(
            ArrivalProcess::load_trace("/nonexistent/cnet-trace"),
            Err(WorkloadError::UnreadableTrace)
        );
        // validate() routes through the same loader
        let w = Workload {
            arrival: ArrivalProcess::Trace {
                path: unsorted.to_str().unwrap().to_string(),
            },
            ..Workload::paper(2, 0, 0)
        };
        assert_eq!(w.validate(), Err(WorkloadError::UnsortedTrace));
    }

    #[test]
    fn arrival_process_rejects_unknown_shapes() {
        assert!(ArrivalProcess::from_value(&Value::Str("Sideways".to_string())).is_err());
        assert!(ArrivalProcess::from_value(&Value::Object(vec![])).is_err());
    }

    #[test]
    fn validate_rejects_degenerate_arrivals() {
        let valid = |arrival| {
            Workload {
                arrival,
                ..Workload::paper(4, 0, 0)
            }
            .validate()
        };
        assert_eq!(
            valid(ArrivalProcess::Open { mean_gap: 0 }),
            Err(WorkloadError::ZeroMeanGap)
        );
        assert_eq!(
            valid(ArrivalProcess::Bursty { burst: 0, gap: 100 }),
            Err(WorkloadError::ZeroBurst)
        );
        assert!(valid(ArrivalProcess::Closed).is_ok());
        assert!(valid(ArrivalProcess::Open { mean_gap: 1 }).is_ok());
        assert!(valid(ArrivalProcess::Bursty { burst: 1, gap: 0 }).is_ok());
        assert!(Workload::paper(4, 0, 0).validate().is_ok());
        assert!(Workload::paper(4, 100, 0).validate().is_ok());
        assert_eq!(
            Workload::paper(4, 101, 0).validate(),
            Err(WorkloadError::DelayedPercentOver100)
        );
        assert_eq!(
            Workload::paper(0, 0, 0).validate(),
            Err(WorkloadError::NoClients)
        );
        assert!(Workload {
            total_ops: 0,
            ..Workload::paper(0, 0, 0)
        }
        .validate()
        .is_ok());
        // the error is a real std error with a self-explanatory message
        let msg = WorkloadError::ZeroMeanGap.to_string();
        assert!(msg.contains("mean_gap"), "unhelpful message: {msg}");
    }

    fn arrivals(arrival: ArrivalProcess, total_ops: usize) -> Workload {
        Workload {
            total_ops,
            arrival,
            ..Workload::paper(1, 0, 0)
        }
    }

    #[test]
    fn an_open_schedule_past_half_the_range_is_refused() {
        // 4 ops: 3 gaps of at most 2·mean_gap each
        let edge = u64::MAX / 2 / 6;
        let open = |mean_gap, ops| arrivals(ArrivalProcess::Open { mean_gap }, ops).validate();
        assert_eq!(open(edge, 4), Ok(()));
        assert_eq!(open(edge + 1, 4), Err(WorkloadError::ArrivalOverflow));
        assert_eq!(open(u64::MAX, 4), Err(WorkloadError::ArrivalOverflow));
        // one op has no gap at all, however wide the mean
        assert_eq!(open(u64::MAX, 1), Ok(()));
    }

    #[test]
    fn a_bursty_schedule_counts_only_its_gaps() {
        let bursty = |burst, gap, ops| arrivals(ArrivalProcess::Bursty { burst, gap }, ops);
        // 4 ops in bursts of 1: 3 gaps
        assert_eq!(
            bursty(1, u64::MAX, 4).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
        assert_eq!(
            bursty(1, u64::MAX / 6 + 1, 4).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
        assert_eq!(bursty(1, u64::MAX / 6, 4).validate(), Ok(()));
        // 4 ops in one burst of 4: no gap is ever taken
        assert_eq!(bursty(4, u64::MAX, 4).validate(), Ok(()));
        // 5 ops in bursts of 4: one gap
        assert_eq!(bursty(4, u64::MAX / 2, 5).validate(), Ok(()));
        assert_eq!(
            bursty(4, u64::MAX / 2 + 1, 5).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
    }

    #[test]
    fn a_trace_schedule_cycles_its_gaps_over_the_run() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let trace = |name: &str, text: &str| {
            let path = dir.join(format!("cnet-config-trace-{name}-{pid}"));
            std::fs::write(&path, text).unwrap();
            ArrivalProcess::Trace {
                path: path.to_str().unwrap().to_string(),
            }
        };
        // one gap of ~2^64: a second arrival already overflows the bound
        let far = trace("far", "0\n18446744073709551615\n");
        assert_eq!(arrivals(far.clone(), 1).validate(), Ok(()));
        assert_eq!(
            arrivals(far.clone(), 2).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
        assert_eq!(
            arrivals(far, 4).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
        // a gap of 2^63 is past half the range on its own
        let half = trace("half", "0\n9223372036854775808\n");
        assert_eq!(
            arrivals(half, 2).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
        // gaps 1 and G cycled: 2k + 1 ops take k + k·G cycles
        let g = u64::MAX / 2 / 3 - 1;
        let cycled = trace("cycled", &format!("0\n1\n{}\n", g + 1));
        assert_eq!(arrivals(cycled.clone(), 7).validate(), Ok(()));
        assert_eq!(
            arrivals(cycled, 9).validate(),
            Err(WorkloadError::ArrivalOverflow)
        );
    }
}
