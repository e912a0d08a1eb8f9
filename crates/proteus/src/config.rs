//! Simulator and workload configuration.

use std::fmt;

use cnet_topology::Fabric;
use serde::{impl_serde_struct, impl_serde_unit_enum, Deserialize, Error, Serialize, Value};

/// Configuration of the prism (diffraction) arrays placed in front of
/// tree balancers, per Shavit and Zemach.
///
/// A processor arriving at a diffracting balancer first picks a random
/// prism slot. If another processor is already waiting there, the two
/// *collide* and diffract — the waiting one takes output 0, the
/// arriving one output 1 — without touching the toggle bit. Otherwise
/// the processor waits in the slot for `spin_window` cycles and, if
/// nobody arrives, falls through to the balancer's queue-lock toggle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrismConfig {
    /// Prism slots at the root (layer 1). Deeper layers halve this
    /// (minimum 1), matching the narrowing traffic down the tree.
    pub root_slots: usize,
    /// Cycles a processor waits in a slot before giving up and using
    /// the toggle lock.
    pub spin_window: u64,
    /// Cycles a colliding pair spends completing the diffraction.
    pub pair_cost: u64,
}

impl_serde_struct!(PrismConfig {
    root_slots,
    spin_window,
    pair_cost,
});

impl PrismConfig {
    /// The number of slots at a 1-based tree layer: `root_slots`
    /// halved per layer, with a floor of one slot.
    #[must_use]
    pub fn slots_at_layer(&self, layer: usize) -> usize {
        (self.root_slots >> (layer - 1)).max(1)
    }
}

impl Default for PrismConfig {
    fn default() -> Self {
        PrismConfig {
            root_slots: 32,
            spin_window: 700,
            pair_cost: 60,
        }
    }
}

/// Where balancers, counters, and processors live on the simulated
/// machine, which determines wire-traversal distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Distances are ignored: every wire costs the fabric's link delay (+ jitter).
    /// This is the calibration the Figure 5–7 runs use.
    #[default]
    Uniform,
    /// Alewife-style square mesh: every balancer, counter, and
    /// processor has a home cell on a `side x side` grid (assigned
    /// round-robin by index), and each wire traversal additionally
    /// costs `per_hop` cycles per Manhattan hop between the source and
    /// destination homes.
    Mesh {
        /// Mesh side length (cells per row/column).
        side: usize,
        /// Extra cycles per mesh hop.
        per_hop: u64,
    },
}

// `Placement` has a struct variant, so the derive-replacement macros do
// not cover it; the encoding is `"Uniform"` or
// `{"Mesh": {"side": …, "per_hop": …}}`, matching serde's externally
// tagged default.
impl Serialize for Placement {
    fn to_value(&self) -> Value {
        match self {
            Placement::Uniform => Value::Str("Uniform".to_string()),
            Placement::Mesh { side, per_hop } => Value::Object(vec![(
                "Mesh".to_string(),
                Value::Object(vec![
                    ("side".to_string(), side.to_value()),
                    ("per_hop".to_string(), per_hop.to_value()),
                ]),
            )]),
        }
    }
}

impl Deserialize for Placement {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s == "Uniform" => Ok(Placement::Uniform),
            Value::Object(_) => {
                let mesh = v
                    .get("Mesh")
                    .ok_or_else(|| Error::new("expected a `Mesh` placement object"))?;
                Ok(Placement::Mesh {
                    side: mesh.field("side")?,
                    per_hop: mesh.field("per_hop")?,
                })
            }
            other => Err(Error::new(format!("unknown Placement: {other:?}"))),
        }
    }
}

/// Machine-model parameters of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// The interconnect model between nodes. The flat wire of the
    /// paper's calibration (a fixed delay plus uniform jitter) is
    /// [`Fabric::degenerate`]; richer fabrics add drop-tail queueing,
    /// loss, and backpressure. See [`cnet_topology::fabric`].
    pub fabric: Fabric,
    /// Cycles spent inside a balancer's critical section (reading and
    /// flipping the toggle).
    pub toggle_cost: u64,
    /// Cycles an output counter takes to serve one fetch-and-increment.
    /// Counters serialize their arrivals FIFO, so a positive cost turns
    /// each counter into a (mild) bottleneck of its own; `0` gives the
    /// idealized instantaneous counters of the abstract model, which is
    /// what the Figure 5–7 calibration uses.
    pub counter_cost: u64,
    /// Prism arrays, for diffracting-tree runs; `None` gives plain
    /// queue-lock balancers everywhere.
    pub prism: Option<PrismConfig>,
    /// Physical placement: uniform distances or an Alewife-style mesh.
    pub placement: Placement,
    /// PRNG seed (prism slot choices, random waits).
    pub seed: u64,
}

impl_serde_struct!(SimConfig {
    fabric,
    toggle_cost,
    counter_cost,
    prism,
    placement,
    seed,
});

impl SimConfig {
    /// Plain queue-lock balancers (the paper's bitonic configuration).
    ///
    /// The default costs are calibrated so the measured `Tog` (average
    /// wait before toggling) lands near the paper's Figure 7 values for
    /// bitonic networks: an uncontended toggle costs ~200 cycles (MCS
    /// acquire + coherence misses on the toggle word), so
    /// `(Tog + 100)/Tog ≈ 1.4` at `W = 100`, matching the paper's 1.45.
    #[must_use]
    pub fn queue_lock(seed: u64) -> Self {
        SimConfig {
            fabric: Fabric::degenerate(20, 200),
            toggle_cost: 200,
            counter_cost: 0,
            prism: None,
            placement: Placement::Uniform,
            seed,
        }
    }

    /// Queue-lock balancers fronted by default prisms (the paper's
    /// diffracting-tree configuration).
    ///
    /// The prism spin window is calibrated so tree `Tog` lands near the
    /// paper's Figure 7 tree values (~900 cycles, giving
    /// `(Tog + 100)/Tog ≈ 1.11` at `W = 100`).
    #[must_use]
    pub fn diffracting(seed: u64) -> Self {
        SimConfig {
            prism: Some(PrismConfig::default()),
            ..Self::queue_lock(seed)
        }
    }
}

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
        }
    }
}

impl std::error::Error for WorkloadError {}

impl ArrivalProcess {
    /// Checks the process for degenerate parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`WorkloadError`] naming the degenerate field.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            ArrivalProcess::Open { mean_gap: 0 } => Err(WorkloadError::ZeroMeanGap),
            ArrivalProcess::Bursty { burst: 0, .. } => Err(WorkloadError::ZeroBurst),
            ArrivalProcess::Trace { path } => Self::load_trace(path).map(|_| ()),
            _ => Ok(()),
        }
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
    #[must_use]
    pub fn is_delayed(&self, p: usize) -> bool {
        (p as u64) * 100 < (self.processors as u64) * u64::from(self.delayed_percent)
    }

    /// The number of injected tokens: `total_ops` under an open-loop
    /// arrival process (each arrival is its own token), `total_ops`
    /// spread over the `n` re-injecting processors when closed.
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
        self.arrival.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prism_slots_halve_per_layer() {
        let p = PrismConfig {
            root_slots: 8,
            spin_window: 16,
            pair_cost: 4,
        };
        assert_eq!(p.slots_at_layer(1), 8);
        assert_eq!(p.slots_at_layer(2), 4);
        assert_eq!(p.slots_at_layer(4), 1);
        assert_eq!(p.slots_at_layer(10), 1);
    }

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
    fn config_presets() {
        assert!(SimConfig::queue_lock(0).prism.is_none());
        assert!(SimConfig::diffracting(0).prism.is_some());
    }

    #[test]
    fn config_serde_round_trip() {
        let mut cfg = SimConfig::diffracting(42);
        cfg.placement = Placement::Mesh {
            side: 16,
            per_hop: 3,
        };
        assert_eq!(SimConfig::from_value(&cfg.to_value()).unwrap(), cfg);

        let plain = SimConfig::queue_lock(7);
        let text = serde::json::to_string(&plain.to_value());
        let parsed = SimConfig::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, plain);
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
        assert_eq!(
            ArrivalProcess::Open { mean_gap: 0 }.validate(),
            Err(WorkloadError::ZeroMeanGap)
        );
        assert_eq!(
            ArrivalProcess::Bursty { burst: 0, gap: 100 }.validate(),
            Err(WorkloadError::ZeroBurst)
        );
        assert!(ArrivalProcess::Closed.validate().is_ok());
        assert!(ArrivalProcess::Open { mean_gap: 1 }.validate().is_ok());
        assert!(ArrivalProcess::Bursty { burst: 1, gap: 0 }
            .validate()
            .is_ok());

        let bad = Workload {
            arrival: ArrivalProcess::Open { mean_gap: 0 },
            ..Workload::paper(4, 0, 0)
        };
        assert_eq!(bad.validate(), Err(WorkloadError::ZeroMeanGap));
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
}
