//! `cnet-obs`: a zero-overhead-when-disabled observability layer for
//! counting networks.
//!
//! Section 5 of the paper rests on one measured quantity — the
//! traversal ratio `c2/c1 = (Tog + W)/Tog` — and this crate makes
//! that quantity (plus the contention that produces it) observable in
//! *live* runs: per-balancer toggle waits, lock acquisition/hold
//! times, prism diffractions, wire latencies, and an online
//! Definition 2.4 evaluator ([`SloEvaluator`]) that records violation
//! *magnitude*, not just a count.
//!
//! # Architecture: two always-compiled layers
//!
//! [`live`] holds the real recorders; [`noop`] holds zero-sized shims
//! with the identical API. Both compile unconditionally. A consumer
//! crate declares its **own** `obs` feature and picks the layer at the
//! import site:
//!
//! ```ignore
//! #[cfg(feature = "obs")]
//! pub use cnet_obs::live as obs;
//! #[cfg(not(feature = "obs"))]
//! pub use cnet_obs::noop as obs;
//! ```
//!
//! This crate has no feature of its own to dispatch on: a consumer's
//! layer is a property of that consumer. It does not isolate builds
//! from each other, though — Cargo unifies a consumer's `obs` feature
//! across one invocation, so building `cnet-cli` (which enables
//! `cnet-engine/obs`) together with `cnet-bench` puts the live layer
//! into the bench as well. `cnet_engine::PROBES_LIVE` reports which
//! layer a binary got, and `cnet-bench` refuses its native suites on a
//! live one (DESIGN.md §7).
//!
//! The data model ([`LogHistogram`], [`MetricsSnapshot`],
//! [`SloEvaluator`]) is shared by both layers and always
//! available, so harness records can *carry* metrics even in builds
//! that cannot *produce* them.
//!
//! # Zero-cost argument
//!
//! With the no-op layer: [`noop::now`] is a constant 0, probe methods
//! have empty `#[inline(always)]` bodies, and both recorder types are
//! zero-sized (asserted below). Every probe call site therefore
//! reduces to arithmetic on the constant 0 feeding an empty function —
//! nothing survives optimization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod live;
pub mod noop;
pub mod openloop;
pub mod slo;
pub mod snapshot;

pub use hist::{LogHistogram, BUCKETS};
pub use openloop::{open_loop_metrics, OpenLoopMetrics, OpenLoopWindow};
pub use slo::{SloEvaluator, SloPolicy, SloReport, SloWindow, SLO_SCHEMA_VERSION};
pub use snapshot::{
    BalancerMetrics, FabricTelemetry, FrontendMetrics, LinkMetrics, MetricsSnapshot,
    NetworkMetrics, METRICS_SCHEMA_VERSION,
};

#[cfg(test)]
mod tests {
    #[test]
    fn noop_layer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<crate::noop::BalancerProbe>(), 0);
        assert_eq!(std::mem::size_of::<crate::noop::NetObserver>(), 0);
        assert_eq!(std::mem::size_of::<crate::noop::FrontendProbe>(), 0);
        assert_eq!(crate::noop::now(), 0);
    }

    #[test]
    fn noop_layer_reports_nothing() {
        let o = crate::noop::NetObserver::new(64);
        o.probe(63).record_toggle(5);
        o.record_op(0, 1);
        o.record_wire(3);
        assert!(o.snapshot(100).is_none());
    }

    #[test]
    fn layers_expose_the_same_surface() {
        // compile-time check that both layers accept the same calls —
        // written as a generic-free macro-expanded pair so a drifting
        // signature breaks the build here, next to the docs that
        // promise the symmetry
        macro_rules! drive {
            ($layer:path) => {{
                use $layer as obs;
                let o = obs::NetObserver::new(2);
                let p = o.probe(1);
                p.record_toggle(obs::now());
                p.record_diffraction(1);
                p.record_lock(2, 3);
                obs::BalancerProbe::sink().record_toggle(0);
                o.record_wire(4);
                o.record_op(0, 5);
                let f = obs::FrontendProbe::new(2);
                f.record_batch(3);
                f.record_solo();
                f.record_shard(1);
                (o.snapshot(7), f.snapshot())
            }};
        }
        let (live, live_f) = drive!(crate::live);
        let (noop, noop_f) = drive!(crate::noop);
        assert!(live.is_some());
        assert!(noop.is_none());
        let f = live_f.expect("live frontend probe snapshots");
        assert_eq!(f.batch_hist.count(), 1);
        assert_eq!(f.solo_ops, 1);
        assert_eq!(f.shard_ops, vec![0, 1]);
        assert!((f.avg_batch() - 3.0).abs() < 1e-12);
        assert!((f.combiner_occupancy() - 0.75).abs() < 1e-12);
        assert!((f.shard_imbalance() - 2.0).abs() < 1e-12);
        assert!(noop_f.is_none());
    }
}
