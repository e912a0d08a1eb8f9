//! Online consistency SLOs for long-running counter services.
//!
//! A batch run reports one violation ratio and exits; a *service* owns
//! a network for hours and must answer, continuously: "are violations
//! still rare and small, and is latency still bounded?" — the
//! quantitative-consistency framing of the paper's practical-
//! linearizability claim. This module is the data model plus the
//! streaming evaluator:
//!
//! * [`SloPolicy`] — declarative thresholds (violation rate, worst
//!   violation magnitude, p99 sojourn latency);
//! * [`SloWindow`] — one closed equal-population window of completions
//!   (the same windowing convention as [`crate::openloop`], but rolled
//!   online instead of assembled post-hoc);
//! * [`SloEvaluator`] — grades each completion against the Definition
//!   2.4 witness its caller read when it started, closes a window every
//!   `window_ops` completions, and runs the breach state machine;
//! * [`SloReport`] — the serializable snapshot (`SLO_SCHEMA_VERSION`),
//!   also renderable as a `/metrics`-style text page.
//!
//! # Breach state machine
//!
//! Breach detection is edge-triggered on window close: a window either
//! meets the policy or breaches it. The service is *in breach* from
//! the first breaching window until the next conforming one; each
//! ok→breach transition increments `breaches` and records a timestamp.
//! A 10-window outage therefore counts as one breach with its onset
//! time, the way an alerting pipeline would page once.

use std::collections::VecDeque;

use serde::impl_serde_struct;

use crate::hist::LogHistogram;

/// Schema version of [`SloReport`]. Bump on any field change.
pub const SLO_SCHEMA_VERSION: u32 = 1;

/// Closed windows retained in the evaluator (a ring of the most
/// recent; totals are exact regardless).
pub const RETAINED_WINDOWS: usize = 64;

/// Breach onset timestamps retained in the evaluator (most recent;
/// the `breaches` counter is exact regardless).
pub const RETAINED_BREACHES: usize = 64;

/// Declarative consistency thresholds, evaluated per closed window.
///
/// A window breaches the policy when its violation rate exceeds
/// `max_violation_rate`, OR some violation's magnitude exceeds
/// `max_magnitude`, OR its p99 sojourn latency exceeds
/// `p99_latency_ns`. Serialized integers are exact (the vendored
/// serde keeps `u64` out of `f64`), so `u64::MAX` is a faithful
/// "unbounded" marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Max fraction of a window's operations that may be
    /// non-linearizable (Definition 2.4), in `[0, 1]`.
    pub max_violation_rate: f64,
    /// Max tolerated violation magnitude (counter positions).
    pub max_magnitude: u64,
    /// Max tolerated p99 sojourn latency (nanoseconds).
    pub p99_latency_ns: u64,
}

impl_serde_struct!(SloPolicy {
    max_violation_rate,
    max_magnitude,
    p99_latency_ns,
});

impl SloPolicy {
    /// A policy no window can breach.
    #[must_use]
    pub const fn unbounded() -> Self {
        SloPolicy {
            max_violation_rate: 1.0,
            max_magnitude: u64::MAX,
            p99_latency_ns: u64::MAX,
        }
    }

    /// Whether `self` is at least as strict as `other` in every
    /// dimension (pointwise lower-or-equal thresholds).
    #[must_use]
    pub fn stricter_or_equal(&self, other: &SloPolicy) -> bool {
        self.max_violation_rate <= other.max_violation_rate
            && self.max_magnitude <= other.max_magnitude
            && self.p99_latency_ns <= other.p99_latency_ns
    }
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// One window of completions: the SLO evaluator's unit of judgement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloWindow {
    /// Operations completed in this window.
    pub ops: u64,
    /// Definition 2.4 non-linearizable operations.
    pub violations: u64,
    /// Summed violation magnitude (total displacement).
    pub magnitude_total: u64,
    /// Worst single violation magnitude.
    pub magnitude_max: u64,
    /// Sojourn latency (completion − scheduled arrival, ns).
    pub latency: LogHistogram,
}

impl_serde_struct!(SloWindow {
    ops,
    violations,
    magnitude_total,
    magnitude_max,
    latency,
});

impl SloWindow {
    /// Fraction of this window's operations that violated (0.0 when
    /// empty).
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.violations as f64 / self.ops as f64
        }
    }

    /// Upper bound on the window's p99 sojourn latency.
    #[must_use]
    pub fn p99_latency_ns(&self) -> u64 {
        self.latency.quantile_upper_bound(0.99)
    }

    /// Whether this window breaches `policy` (any dimension over its
    /// threshold).
    #[must_use]
    pub fn breaches(&self, policy: &SloPolicy) -> bool {
        self.violation_rate() > policy.max_violation_rate
            || self.magnitude_max > policy.max_magnitude
            || self.p99_latency_ns() > policy.p99_latency_ns
    }

    /// `n` operations of one bracket, all with sojourn `sojourn_ns`:
    /// the first `violating` of them violate, by `worst`, `worst - 1`,
    /// … positions (`violating <= worst`), the rest are clean.
    fn record_run(&mut self, n: u64, sojourn_ns: u64, violating: u64, worst: u64) {
        self.ops += n;
        self.latency.record_n(sojourn_ns, n);
        if violating > 0 {
            self.violations += violating;
            // an arithmetic series ascending from the smallest member
            let smallest = worst - (violating - 1);
            self.magnitude_total += violating * smallest + violating * (violating - 1) / 2;
            self.magnitude_max = self.magnitude_max.max(worst);
        }
    }
}

/// Serializable snapshot of a service's SLO state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// [`SLO_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// The policy the service is evaluating.
    pub policy: SloPolicy,
    /// Completions per window.
    pub window_ops: u64,
    /// Windows closed so far (may exceed `windows.len()`).
    pub windows_closed: u64,
    /// The most recent closed windows (up to [`RETAINED_WINDOWS`]),
    /// oldest first.
    pub windows: Vec<SloWindow>,
    /// The still-open window.
    pub current: SloWindow,
    /// Run-level totals over *all* completions, closed or not.
    pub total: SloWindow,
    /// ok→breach transitions so far.
    pub breaches: u64,
    /// Onset timestamps of the most recent breaches (ms since service
    /// start, up to [`RETAINED_BREACHES`]).
    pub breach_timestamps_ms: Vec<u64>,
    /// Whether the most recently closed window breached.
    pub in_breach: bool,
    /// Service uptime at snapshot time (ms).
    pub uptime_ms: u64,
}

impl_serde_struct!(SloReport {
    schema_version,
    policy,
    window_ops,
    windows_closed,
    windows,
    current,
    total,
    breaches,
    breach_timestamps_ms,
    in_breach,
    uptime_ms,
});

impl SloReport {
    /// Whether the service has never breached its policy.
    #[must_use]
    pub fn breach_free(&self) -> bool {
        self.breaches == 0 && !self.in_breach
    }

    /// Renders the snapshot as a `/metrics`-style text page: one
    /// `cnet_serve_*` gauge per line, space-separated, deterministic
    /// order — greppable from shell and scrapeable by anything that
    /// speaks the Prometheus exposition format.
    #[must_use]
    pub fn to_metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let last = self.windows.last();
        let _ = writeln!(out, "cnet_serve_schema_version {}", self.schema_version);
        let _ = writeln!(out, "cnet_serve_uptime_ms {}", self.uptime_ms);
        let _ = writeln!(out, "cnet_serve_ops_total {}", self.total.ops);
        let _ = writeln!(out, "cnet_serve_violations_total {}", self.total.violations);
        let _ = writeln!(
            out,
            "cnet_serve_violation_rate {}",
            self.total.violation_rate()
        );
        let _ = writeln!(
            out,
            "cnet_serve_violation_magnitude_max {}",
            self.total.magnitude_max
        );
        let _ = writeln!(
            out,
            "cnet_serve_violation_magnitude_total {}",
            self.total.magnitude_total
        );
        let _ = writeln!(
            out,
            "cnet_serve_p99_latency_ns {}",
            self.total.p99_latency_ns()
        );
        let _ = writeln!(out, "cnet_serve_windows_closed {}", self.windows_closed);
        let _ = writeln!(out, "cnet_serve_window_ops {}", self.window_ops);
        let _ = writeln!(
            out,
            "cnet_serve_window_violation_rate {}",
            last.map_or(0.0, SloWindow::violation_rate)
        );
        let _ = writeln!(
            out,
            "cnet_serve_window_magnitude_max {}",
            last.map_or(0, |w| w.magnitude_max)
        );
        let _ = writeln!(
            out,
            "cnet_serve_window_p99_latency_ns {}",
            last.map_or(0, SloWindow::p99_latency_ns)
        );
        let _ = writeln!(out, "cnet_serve_breaches_total {}", self.breaches);
        let _ = writeln!(out, "cnet_serve_in_breach {}", u64::from(self.in_breach));
        out
    }
}

/// The streaming evaluator a service feeds as operations complete.
///
/// Each completion arrives with its *witness*: the largest value among
/// the operations that finished before it started (Definition 2.4). A
/// service reads it when the operation starts, under the lock that
/// hands out its ticks (`cnet_engine::ServiceDriver`), so the
/// per-window violation counts are *exactly* the offline Definition 2.4
/// sweep's, window by window, in whatever order completions are fed
/// (the integration suite in `cnet-serve` replays recorded histories to
/// assert this).
#[derive(Debug, Clone)]
pub struct SloEvaluator {
    policy: SloPolicy,
    window_ops: u64,
    /// Every non-zero violation magnitude recorded.
    magnitudes: LogHistogram,
    current: SloWindow,
    windows: VecDeque<SloWindow>,
    windows_closed: u64,
    total: SloWindow,
    breaches: u64,
    breach_timestamps_ms: Vec<u64>,
    in_breach: bool,
}

impl SloEvaluator {
    /// A fresh evaluator closing a window every `window_ops`
    /// completions (clamped to at least 1).
    #[must_use]
    pub fn new(policy: SloPolicy, window_ops: u64) -> Self {
        SloEvaluator {
            policy,
            window_ops: window_ops.max(1),
            magnitudes: LogHistogram::default(),
            current: SloWindow::default(),
            windows: VecDeque::new(),
            windows_closed: 0,
            total: SloWindow::default(),
            breaches: 0,
            breach_timestamps_ms: Vec::new(),
            in_breach: false,
        }
    }

    /// Records one completed operation and returns its violation
    /// magnitude, `witness - value` or 0: [`record_batch`] with `k = 1`.
    ///
    /// `value` is the counter position drawn, `sojourn_ns` host-time
    /// latency, `witness` the largest value that finished before the
    /// operation started, and `now_ms` the service uptime used to
    /// timestamp breach onsets.
    ///
    /// [`record_batch`]: SloEvaluator::record_batch
    pub fn record(
        &mut self,
        // unread until ROADMAP item 3 re-trues the ledger row passing them
        _start: u64,
        _end: u64,
        value: u64,
        sojourn_ns: u64,
        witness: u64,
        now_ms: u64,
    ) -> u64 {
        self.record_batch(value, 1, sojourn_ns, witness, now_ms)
    }

    /// Records the `k` operations of one clock bracket — a batch that
    /// reserved `base..base + k` — at the cost of one, and returns the
    /// largest of their violation magnitudes (the first sibling's).
    /// `k = 0` records nothing.
    ///
    /// Siblings cannot witness one another (none ended before the
    /// shared start), so one `witness` judges them all: sibling `j`
    /// has magnitude `witness - base - j`, and only the violating
    /// prefix — empty on a linearizable run — is visited, so the
    /// magnitude histogram stays exact per operation. Every count,
    /// histogram and breach is what `k` [`record`] calls on `base,
    /// base + 1, …` with that witness leave behind: the window totals
    /// are closed forms, cut where the run crosses a window boundary.
    /// `k` may exceed `window_ops`; every window the run closes is
    /// closed at `now_ms`, in order.
    ///
    /// [`record`]: SloEvaluator::record
    pub fn record_batch(
        &mut self,
        base: u64,
        k: u64,
        sojourn_ns: u64,
        witness: u64,
        now_ms: u64,
    ) -> u64 {
        if k == 0 {
            return 0;
        }
        let worst = witness.saturating_sub(base);
        // siblings `0..violating` violate, sibling `j` by `worst - j`
        let violating = worst.min(k);
        for j in 0..violating {
            self.magnitudes.record(worst - j);
        }
        self.total.record_run(k, sojourn_ns, violating, worst);
        let mut fed = 0;
        while fed < k {
            let n = (k - fed).min(self.window_ops - self.current.ops);
            self.current.record_run(
                n,
                sojourn_ns,
                violating.saturating_sub(fed).min(n),
                worst.saturating_sub(fed),
            );
            fed += n;
            if self.current.ops == self.window_ops {
                self.close_window(now_ms);
            }
        }
        worst
    }

    fn close_window(&mut self, now_ms: u64) {
        let window = std::mem::take(&mut self.current);
        let breached = window.breaches(&self.policy);
        if breached && !self.in_breach {
            self.breaches += 1;
            if self.breach_timestamps_ms.len() == RETAINED_BREACHES {
                self.breach_timestamps_ms.remove(0);
            }
            self.breach_timestamps_ms.push(now_ms);
        }
        self.in_breach = breached;
        if self.windows.len() == RETAINED_WINDOWS {
            self.windows.pop_front();
        }
        self.windows.push_back(window);
        self.windows_closed += 1;
    }

    /// ok→breach transitions so far.
    #[must_use]
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// Operations recorded so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.total.ops
    }

    /// Every non-zero violation magnitude recorded so far — the
    /// distribution behind `total`'s count, sum and maximum, in the
    /// form [`crate::NetworkMetrics::set_violations`] takes.
    #[must_use]
    pub fn violation_magnitudes(&self) -> &LogHistogram {
        &self.magnitudes
    }

    /// Freezes the current state into a serializable report.
    #[must_use]
    pub fn snapshot(&self, uptime_ms: u64) -> SloReport {
        SloReport {
            schema_version: SLO_SCHEMA_VERSION,
            policy: self.policy,
            window_ops: self.window_ops,
            windows_closed: self.windows_closed,
            windows: self.windows.iter().cloned().collect(),
            current: self.current.clone(),
            total: self.total.clone(),
            breaches: self.breaches,
            breach_timestamps_ms: self.breach_timestamps_ms.clone(),
            in_breach: self.in_breach,
            uptime_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize as _, Serialize as _};

    fn tight() -> SloPolicy {
        SloPolicy {
            max_violation_rate: 0.0,
            max_magnitude: 0,
            p99_latency_ns: 1_000_000,
        }
    }

    /// Sequential clean ops: start i*2, end i*2+1, value i, each
    /// witnessing its predecessor's value.
    fn feed_clean(ev: &mut SloEvaluator, n: u64) {
        for i in 0..n {
            ev.record(i * 2, i * 2 + 1, i, 100, i.saturating_sub(1), i);
        }
    }

    #[test]
    fn clean_traffic_never_breaches() {
        let mut ev = SloEvaluator::new(tight(), 4);
        feed_clean(&mut ev, 10);
        let r = ev.snapshot(123);
        assert!(r.breach_free());
        assert_eq!(r.windows_closed, 2);
        assert_eq!(r.current.ops, 2);
        assert_eq!(r.total.ops, 10);
        assert_eq!(r.total.violations, 0);
        assert_eq!(r.uptime_ms, 123);
    }

    #[test]
    fn violations_are_counted_per_window_and_in_total() {
        let mut ev = SloEvaluator::new(SloPolicy::unbounded(), 2);
        // op A finishes at 10 holding 7; op B starts at 20 and draws 2:
        // magnitude-5 violation in window 0
        assert_eq!(ev.record(0, 10, 7, 50, 0, 0), 0);
        assert_eq!(ev.record(20, 30, 2, 50, 7, 1), 5);
        // window 1 clean
        assert_eq!(ev.record(40, 50, 8, 50, 7, 2), 0);
        assert_eq!(ev.record(60, 70, 9, 50, 8, 3), 0);
        let r = ev.snapshot(4);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].violations, 1);
        assert_eq!(r.windows[0].magnitude_max, 5);
        assert_eq!(r.windows[0].magnitude_total, 5);
        assert_eq!(r.windows[1].violations, 0);
        assert_eq!(r.total.violations, 1);
        assert_eq!(r.total.magnitude_max, 5);
        assert!((r.windows[0].violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn breach_transitions_are_edge_triggered() {
        // rate threshold 0, window of 1: every violating window is a
        // breach window
        let policy = SloPolicy {
            max_violation_rate: 0.0,
            max_magnitude: u64::MAX,
            p99_latency_ns: u64::MAX,
        };
        let mut ev = SloEvaluator::new(policy, 1);
        ev.record(0, 10, 7, 50, 0, 5); // clean
        ev.record(20, 30, 2, 50, 7, 6); // violation → breach onset @6
        ev.record(40, 50, 3, 50, 7, 7); // violation (7 finished first) → still in breach
        ev.record(60, 70, 9, 50, 7, 8); // clean → recovered
        ev.record(80, 90, 4, 50, 9, 9); // violation → second onset @9
        let r = ev.snapshot(10);
        assert_eq!(r.breaches, 2);
        assert_eq!(r.breach_timestamps_ms, vec![6, 9]);
        assert!(r.in_breach);
        assert!(!r.breach_free());
    }

    #[test]
    fn latency_breaches_via_p99() {
        let policy = SloPolicy {
            max_violation_rate: 1.0,
            max_magnitude: u64::MAX,
            p99_latency_ns: 1_000,
        };
        let mut ev = SloEvaluator::new(policy, 2);
        ev.record(0, 1, 0, 100, 0, 0);
        ev.record(2, 3, 1, 1 << 20, 0, 1); // ~1ms sojourn blows the budget
        let r = ev.snapshot(2);
        assert_eq!(r.breaches, 1);
        assert!(r.windows[0].p99_latency_ns() > 1_000);
    }

    #[test]
    fn window_ring_is_capped_but_totals_are_exact() {
        let mut ev = SloEvaluator::new(SloPolicy::unbounded(), 1);
        feed_clean(&mut ev, RETAINED_WINDOWS as u64 + 10);
        let r = ev.snapshot(0);
        assert_eq!(r.windows.len(), RETAINED_WINDOWS);
        assert_eq!(r.windows_closed, RETAINED_WINDOWS as u64 + 10);
        assert_eq!(r.total.ops, RETAINED_WINDOWS as u64 + 10);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let mut ev = SloEvaluator::new(tight(), 3);
        ev.record(0, 10, 7, 50, 0, 0);
        ev.record(20, 30, 2, 900, 7, 1);
        ev.record(40, 50, 9, 60, 7, 2);
        ev.record(60, 65, 10, 70, 9, 3);
        let r = ev.snapshot(77);
        let text = serde::json::to_string_pretty(&r.to_value());
        let back = SloReport::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unbounded_policy_round_trips_u64_max_exactly() {
        let p = SloPolicy::unbounded();
        let text = serde::json::to_string(&p.to_value());
        let back = SloPolicy::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.max_magnitude, u64::MAX);
        assert_eq!(back.p99_latency_ns, u64::MAX);
    }

    #[test]
    fn metrics_text_is_line_per_gauge() {
        let mut ev = SloEvaluator::new(tight(), 2);
        ev.record(0, 10, 7, 50, 0, 0);
        ev.record(20, 30, 2, 50, 7, 1);
        let text = ev.snapshot(9).to_metrics_text();
        assert!(text.contains("cnet_serve_ops_total 2\n"));
        assert!(text.contains("cnet_serve_violations_total 1\n"));
        assert!(text.contains("cnet_serve_breaches_total 1\n"));
        assert!(text.contains("cnet_serve_in_breach 1\n"));
        assert!(text.contains("cnet_serve_uptime_ms 9\n"));
        for line in text.lines() {
            assert_eq!(line.split(' ').count(), 2, "line {line:?}");
            assert!(line.starts_with("cnet_serve_"), "line {line:?}");
        }
    }

    #[test]
    fn a_batch_larger_than_the_window_closes_every_window_it_spans() {
        let policy = SloPolicy {
            max_violation_rate: 0.0,
            ..SloPolicy::unbounded()
        };
        let mut ev = SloEvaluator::new(policy, 4);
        ev.record(0, 10, 12, 50, 0, 1);
        // 10..21 against witness 12: siblings 10 and 11 violate (2, 1),
        // filling window 0 (3 of its 4 slots) and opening window 1
        assert_eq!(ev.record_batch(10, 11, 70, 12, 2), 2);
        assert_eq!(ev.record_batch(0, 0, 70, 12, 3), 0, "k = 0 is nothing");
        let r = ev.snapshot(4);
        assert_eq!((r.windows_closed, r.current.ops, r.total.ops), (3, 0, 12));
        let per_window: Vec<_> = r
            .windows
            .iter()
            .map(|w| (w.ops, w.violations, w.magnitude_total, w.magnitude_max))
            .collect();
        assert_eq!(per_window, [(4, 2, 3, 2), (4, 0, 0, 0), (4, 0, 0, 0)]);
        assert_eq!((r.total.violations, r.total.magnitude_total), (2, 3));
        // breached on the first close, recovered on the second: one onset
        assert_eq!((r.breaches, r.in_breach), (1, false));
        assert_eq!(r.breach_timestamps_ms, [2]);
        assert_eq!(ev.violation_magnitudes().sum(), 3);
    }

    /// `record_batch` against the same siblings fed one by one through
    /// `record`, every sibling of a bracket judged by the bracket's
    /// witness: the largest value among brackets that ended before it
    /// started.
    #[test]
    fn record_batch_is_its_siblings_fed_one_by_one() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let policy = SloPolicy {
            max_violation_rate: 0.1,
            max_magnitude: 6,
            p99_latency_ns: 2_500,
        };
        let mut rng = StdRng::seed_from_u64(0xBA7C4);
        let (mut violating_streams, mut straddles, mut multi_close, mut breaches) = (0, 0, 0, 0);
        for stream in 0..200 {
            let window_ops = rng.gen_range(1..=40u64);
            // end-ordered brackets that overlap their predecessors;
            // bases hover around the largest value handed out so far,
            // so a witness lands before, inside or past a run
            let (mut end, mut hi) = (0u64, 0u64);
            let brackets: Vec<(u64, u64, u64, u64, u64)> = (0..rng.gen_range(1..=60))
                .map(|_| {
                    end += rng.gen_range(1..=4u64);
                    let start = end.saturating_sub(rng.gen_range(0..=12));
                    let k = rng.gen_range(1..=70u64);
                    let base = rng.gen_range(hi.saturating_sub(k + 5)..=hi + 5);
                    hi = hi.max(base + k - 1);
                    (start, end, base, k, rng.gen_range(0..5_000u64))
                })
                .collect();

            let mut batched = SloEvaluator::new(policy, window_ops);
            let mut single = SloEvaluator::new(policy, window_ops);
            for (i, &(start, end, base, k, sojourn)) in brackets.iter().enumerate() {
                let witness = brackets
                    .iter()
                    .filter(|b| b.1 < start)
                    .map(|b| b.2 + b.3 - 1)
                    .max()
                    .unwrap_or(0);
                let now_ms = 3 * i as u64;
                let room = window_ops - single.ops() % window_ops;
                let mut worst = 0;
                let mut violating = 0;
                for j in 0..k {
                    let m = single.record(start, end, base + j, sojourn, witness, now_ms);
                    worst = worst.max(m);
                    violating += u64::from(m > 0);
                }
                assert_eq!(
                    batched.record_batch(base, k, sojourn, witness, now_ms),
                    worst,
                    "stream {stream}, bracket {i}"
                );
                straddles += u64::from(violating > room);
                multi_close += u64::from(k >= room + window_ops);
            }
            let uptime = 3 * brackets.len() as u64;
            let report = batched.snapshot(uptime);
            assert_eq!(report, single.snapshot(uptime), "stream {stream}");
            assert_eq!(
                batched.violation_magnitudes(),
                single.violation_magnitudes(),
                "stream {stream}"
            );
            violating_streams += u64::from(report.total.violations > 0);
            breaches += report.breaches;
        }
        // the streams must reach what the run form exists to get right
        assert!(violating_streams >= 100, "{violating_streams} violating");
        assert!(straddles >= 100, "{straddles} violating prefixes cut");
        assert!(multi_close >= 100, "{multi_close} multi-window runs");
        assert!(breaches >= 100, "{breaches} breach onsets");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Replays one synthetic end-sorted trace against a policy,
        /// each operation judged by its Definition 2.4 witness,
        /// returning which windows breached.
        fn breached_windows(
            trace: &[(u64, u64, u64, u64)],
            policy: SloPolicy,
            window_ops: u64,
        ) -> (Vec<bool>, u64) {
            let mut ev = SloEvaluator::new(policy, window_ops);
            for (i, &(start, len, value, sojourn)) in trace.iter().enumerate() {
                let witness = trace
                    .iter()
                    .filter(|&&(s, l, _, _)| s + l < start)
                    .map(|&(_, _, v, _)| v)
                    .max()
                    .unwrap_or(0);
                ev.record(start, start + len, value, sojourn, witness, i as u64);
            }
            let r = ev.snapshot(0);
            (
                r.windows.iter().map(|w| w.breaches(&policy)).collect(),
                r.breaches,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Tightening any threshold can only grow the set of
            /// breaching windows: breach detection is monotone in the
            /// policy. (Windows are policy-independent — windowing is
            /// by completion count — so the per-window breach sets are
            /// directly comparable.)
            #[test]
            fn breach_detection_is_monotone_in_thresholds(
                raw in proptest::collection::vec(
                    (0u64..50, 1u64..20, 0u64..30, 0u64..5000), 1..60),
                window_ops in 1u64..8,
                rate_a_pm in 0u64..1000, rate_b_pm in 0u64..1000,
                mag_a in 0u64..20, mag_b in 0u64..20,
                p99_a in 0u64..5000, p99_b in 0u64..5000,
            ) {
                let mut trace = raw;
                trace.sort_by_key(|&(start, len, _, _)| start + len);
                // the vendored proptest has no f64 strategies; derive
                // rates from permille draws
                let (rate_a, rate_b) =
                    (rate_a_pm as f64 / 1000.0, rate_b_pm as f64 / 1000.0);
                let strict = SloPolicy {
                    max_violation_rate: rate_a.min(rate_b),
                    max_magnitude: mag_a.min(mag_b),
                    p99_latency_ns: p99_a.min(p99_b),
                };
                let loose = SloPolicy {
                    max_violation_rate: rate_a.max(rate_b),
                    max_magnitude: mag_a.max(mag_b),
                    p99_latency_ns: p99_a.max(p99_b),
                };
                prop_assert!(strict.stricter_or_equal(&loose));
                let (strict_windows, strict_breaches) =
                    breached_windows(&trace, strict, window_ops);
                let (loose_windows, loose_breaches) =
                    breached_windows(&trace, loose, window_ops);
                prop_assert_eq!(strict_windows.len(), loose_windows.len());
                for (s, l) in strict_windows.iter().zip(loose_windows.iter()) {
                    // loose breach ⇒ strict breach
                    prop_assert!(*s || !*l);
                }
                // more breaching windows can only mean at least as many
                // breach *onsets* is NOT true in general (merging two
                // breach episodes), but zero loose breaches with a
                // nonzero strict count must hold monotonically:
                if loose_breaches > 0 {
                    prop_assert!(strict_breaches > 0);
                }
            }

            /// The unbounded policy never breaches, on any trace.
            #[test]
            fn unbounded_policy_never_breaches(
                raw in proptest::collection::vec(
                    (0u64..50, 1u64..20, 0u64..30, 0u64..5000), 1..40),
                window_ops in 1u64..8,
            ) {
                let mut trace = raw;
                trace.sort_by_key(|&(start, len, _, _)| start + len);
                let (_, breaches) =
                    breached_windows(&trace, SloPolicy::unbounded(), window_ops);
                prop_assert_eq!(breaches, 0);
            }
        }
    }
}
