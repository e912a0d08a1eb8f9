//! The simulated machine's configuration.

use cnet_topology::Fabric;
use serde::{impl_serde_struct, Deserialize, Error, Serialize, Value};

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
}
