//! HDR-style log-bucketed histograms.
//!
//! Both histograms bucket by powers of two: bucket `i` counts samples
//! in `[2^i, 2^(i+1))` and bucket 0 additionally absorbs zero.
//! Sixty-four buckets cover the whole `u64` range, so recording never
//! saturates or clips.

use serde::{Deserialize, Error, Serialize, Value};

/// Number of power-of-two buckets — enough for any `u64` sample.
pub const BUCKETS: usize = 64;

/// Bucket index for a sample: `floor(log2(max(v, 1)))`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.max(1).leading_zeros()) as usize - 1
}

/// A plain (single-threaded) log-bucketed histogram with exact count,
/// sum, min and max alongside the buckets.
///
/// # Example
///
/// ```
/// use cnet_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.record(3);
/// h.record(1000);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max(), 1000);
/// assert!(h.mean() > 500.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records the sample `v` `n` times; `n = 0` records nothing.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of all samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-th
    /// quantile, `q` in `[0, 1]`. A log-bucket histogram cannot place a
    /// quantile more precisely than one power of two; the bound errs
    /// high, never low. Returns 0 when empty.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // bucket i covers [2^i, 2^(i+1)); cap at the true max
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Reassembles a histogram from raw parts. `min` uses the internal
    /// sentinel convention (`u64::MAX` when empty) — this is how the
    /// atomic recorder in `live` (and the simulator's recorder, which
    /// keeps the parts in dense side arrays for cache locality)
    /// freezes itself into a plain histogram. The caller must supply
    /// consistent parts: `count`/`sum`/`min`/`max` describing exactly
    /// the samples counted in `buckets`.
    #[must_use]
    pub fn from_parts(buckets: [u64; BUCKETS], count: u64, sum: u64, min: u64, max: u64) -> Self {
        LogHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// The raw bucket counts (fixed 64 entries).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Buckets with trailing zeros trimmed — the serialized form.
    #[must_use]
    pub fn trimmed_buckets(&self) -> Vec<u64> {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| i + 1);
        self.buckets[..last].to_vec()
    }
}

// Hand-written serde: the buckets serialize trimmed (a width-32 run
// never fills all 64), and deserialization pads back out. The exact
// aggregates travel alongside so a round-tripped histogram compares
// equal and `mean`/`min`/`max` stay exact.
impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("min".to_string(), self.min().to_value()),
            ("max".to_string(), self.max.to_value()),
            ("buckets".to_string(), self.trimmed_buckets().to_value()),
        ])
    }
}

impl Deserialize for LogHistogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let count: u64 = v.field("count")?;
        let sum: u64 = v.field("sum")?;
        let min: u64 = v.field("min")?;
        let max: u64 = v.field("max")?;
        let trimmed: Vec<u64> = v.field("buckets")?;
        if trimmed.len() > BUCKETS {
            return Err(Error::new(format!(
                "histogram has {} buckets, expected at most {BUCKETS}",
                trimmed.len()
            )));
        }
        let mut buckets = [0u64; BUCKETS];
        buckets[..trimmed.len()].copy_from_slice(&trimmed);
        Ok(LogHistogram {
            buckets,
            count,
            sum,
            // an empty histogram serializes min as 0; restore the
            // internal sentinel so merges stay correct
            min: if count == 0 { u64::MAX } else { min },
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_matches_the_stats_convention() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn records_exact_aggregates() {
        let mut h = LogHistogram::new();
        for v in [1u64, 3, 8, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1020);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 204.0).abs() < 1e-12);
        assert_eq!(h.trimmed_buckets(), vec![1, 1, 0, 2, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn record_n_is_n_records() {
        let (mut run, mut each) = (LogHistogram::new(), LogHistogram::new());
        for (v, n) in [(0u64, 3u64), (7, 1), (1 << 40, 2), (5, 0), (9, 300)] {
            run.record_n(v, n);
            for _ in 0..n {
                each.record(v);
            }
            assert_eq!(run, each, "after {n} x {v}");
        }
        // an empty call is not a sample: it must not move `min`
        let mut h = LogHistogram::new();
        h.record_n(4, 0);
        assert_eq!(h, LogHistogram::new());
        h.record(9);
        h.record_n(2, 0);
        assert_eq!(h.min(), 9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert!(h.trimmed_buckets().is_empty());
    }

    #[test]
    fn merge_is_samplewise_union() {
        let mut a = LogHistogram::new();
        a.record(2);
        a.record(100);
        let mut b = LogHistogram::new();
        b.record(1);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut direct = LogHistogram::new();
        for v in [2u64, 100, 1] {
            direct.record(v);
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn quantile_bound_errs_high_never_low() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let median = h.quantile_upper_bound(0.5);
        assert!((50..=63).contains(&median), "median bound {median}");
        assert_eq!(h.quantile_upper_bound(1.0), 100);
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        use serde::{Deserialize as _, Serialize as _};
        let mut h = LogHistogram::new();
        for v in [0u64, 7, 7, 1 << 20] {
            h.record(v);
        }
        let text = serde::json::to_string_pretty(&h.to_value());
        let back = LogHistogram::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, h);

        let empty = LogHistogram::new();
        let text = serde::json::to_string_pretty(&empty.to_value());
        let back = LogHistogram::from_value(&serde::json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, empty);
    }
}
