//! The disabled probe layer: zero-sized types whose methods are empty
//! `#[inline(always)]` bodies, so every probe call compiles to
//! nothing.
//!
//! The API mirrors [`crate::live`] exactly. A consumer selects the
//! layer once at the import site:
//!
//! ```ignore
//! #[cfg(feature = "obs")]
//! use cnet_obs::live as obs;
//! #[cfg(not(feature = "obs"))]
//! use cnet_obs::noop as obs;
//! ```
//!
//! and writes every probe call unconditionally. With the feature off,
//! [`now`] returns a constant, the recorders are ZSTs and the
//! optimizer erases the calls — the zero-cost claim is pinned by the
//! size assertions in the crate root.

use crate::snapshot::{FrontendMetrics, MetricsSnapshot};

/// Disabled clock: always 0, so latency arithmetic folds away.
#[inline(always)]
#[must_use]
pub fn now() -> u64 {
    0
}

/// Zero-sized stand-in for [`crate::live::BalancerProbe`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BalancerProbe;

impl BalancerProbe {
    /// A fresh (zero-sized) probe.
    #[must_use]
    pub const fn new() -> Self {
        BalancerProbe
    }

    /// The shared do-nothing probe.
    #[must_use]
    pub fn sink() -> &'static BalancerProbe {
        static SINK: BalancerProbe = BalancerProbe;
        &SINK
    }

    /// Discards the record.
    #[inline(always)]
    pub fn record_toggle(&self, _wait: u64) {}

    /// Discards the record.
    #[inline(always)]
    pub fn record_diffraction(&self, _wait: u64) {}

    /// Discards the record.
    #[inline(always)]
    pub fn record_lock(&self, _wait: u64, _hold: u64) {}
}

/// Zero-sized stand-in for [`crate::live::FrontendProbe`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontendProbe;

impl FrontendProbe {
    /// A probe that records nothing, whatever the shard count.
    #[must_use]
    pub fn new(_shards: usize) -> Self {
        FrontendProbe
    }

    /// Discards the record.
    #[inline(always)]
    pub fn record_batch(&self, _k: u64) {}

    /// Discards the record.
    #[inline(always)]
    pub fn record_solo(&self) {}

    /// Discards the record.
    #[inline(always)]
    pub fn record_shard(&self, _s: usize) {}

    /// Always `None`: the disabled layer has nothing to report.
    #[inline(always)]
    #[must_use]
    pub fn snapshot(&self) -> Option<FrontendMetrics> {
        None
    }
}

/// Zero-sized stand-in for [`crate::live::NetObserver`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NetObserver;

impl NetObserver {
    /// An observer that observes nothing.
    #[must_use]
    pub fn new(_nodes: usize) -> Self {
        NetObserver
    }

    /// The shared do-nothing probe, whatever the node.
    #[inline(always)]
    #[must_use]
    pub fn probe(&self, _node: usize) -> &BalancerProbe {
        BalancerProbe::sink()
    }

    /// Discards the record.
    #[inline(always)]
    pub fn record_wire(&self, _latency: u64) {}

    /// Discards the record.
    #[inline(always)]
    pub fn record_op(&self, _start: u64, _end: u64) {}

    /// Always `None`: the disabled layer has nothing to report.
    #[inline(always)]
    #[must_use]
    pub fn snapshot(&self, _wait_cycles: u64) -> Option<MetricsSnapshot> {
        None
    }
}
