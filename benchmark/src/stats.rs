//! Order statistics the benchmark reports: exact percentiles over every
//! request, the highest percentile a sample supports, medians of 1-s
//! windows, and the quartile spread `compare` judges noise by.

/// Width of a latency bucket. One reading of the clock costs about as
/// much, so a finer table would not be a finer measurement.
pub const BUCKET_NS: u64 = 32;
/// Buckets per table: latencies up to ~1 ms; slower ones are kept singly.
const BUCKETS: usize = 1 << 15;

/// Every request latency of an interval, in a fixed-size form: a count
/// per 32-ns bucket below ~1 ms plus the list of slower requests.
/// Percentiles are nearest-rank over all requests, to the bucket, and
/// the memory the generator touches does not grow with throughput, so
/// `peak_rss_mb` tracks the program and not the sample.
#[derive(Clone)]
pub struct LatencyCounts {
    buckets: Vec<u32>,
    slow: Vec<u64>,
    total: u64,
}

impl LatencyCounts {
    pub fn new() -> Self {
        LatencyCounts {
            buckets: vec![0; BUCKETS],
            slow: Vec::new(),
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut((ns / BUCKET_NS) as usize) {
            Some(slot) => *slot += 1,
            None => self.slow.push(ns),
        }
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LatencyCounts) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.slow.extend_from_slice(&other.slow);
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q`-quantile in nanoseconds: the lower edge of
    /// the bucket holding the smallest sample with at least `ceil(q·n)`
    /// samples at or below it (the sample itself beyond the table).
    pub fn percentile_ns(&mut self, q: f64) -> u64 {
        assert!(self.total > 0, "percentile of an empty sample");
        let rank = nearest_rank(self.total, q);
        let mut seen = 0u64;
        for (bucket, &count) in self.buckets.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return bucket as u64 * BUCKET_NS;
            }
        }
        self.slow.sort_unstable();
        self.slow[(rank - seen - 1) as usize]
    }
}

/// Request latencies kept per fixed-length window of the measured
/// interval, so that each window has its own count and percentiles.
pub struct WindowedLatency {
    window_ns: u64,
    windows: Vec<LatencyCounts>,
}

impl WindowedLatency {
    pub fn new(window_ns: u64) -> Self {
        WindowedLatency {
            window_ns,
            windows: Vec::new(),
        }
    }

    /// Records a request that took `latency_ns` and completed
    /// `elapsed_ns` after the interval began.
    pub fn record(&mut self, elapsed_ns: u64, latency_ns: u64) {
        let w = (elapsed_ns / self.window_ns) as usize;
        while self.windows.len() <= w {
            self.windows.push(LatencyCounts::new());
        }
        self.windows[w].record(latency_ns);
    }

    pub fn merge(&mut self, other: &WindowedLatency) {
        while self.windows.len() < other.windows.len() {
            self.windows.push(LatencyCounts::new());
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.merge(theirs);
        }
    }

    /// The whole windows of an interval `measured_ns` long; the trailing
    /// partial window is left out.
    pub fn whole_windows(&mut self, measured_ns: u64) -> &mut [LatencyCounts] {
        let whole = ((measured_ns / self.window_ns) as usize).min(self.windows.len());
        &mut self.windows[..whole]
    }

    /// Every request of the interval, the partial window included.
    pub fn all(&self) -> LatencyCounts {
        let mut all = LatencyCounts::new();
        for w in &self.windows {
            all.merge(w);
        }
        all
    }
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn nearest_rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank `q`-quantile of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(nearest_rank(sorted.len() as u64, q) - 1) as usize]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it, so a "tail" is never read off one or two requests.
pub fn tail_quantile(samples: u64) -> f64 {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| samples.saturating_sub(nearest_rank(samples.max(1), *q)) >= 10)
        .unwrap_or(0.5)
}

/// The middle value (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let mut c = LatencyCounts::new();
        for i in 1..=100u64 {
            c.record(i * 10 * BUCKET_NS);
        }
        assert_eq!(c.percentile_ns(0.5), 500 * BUCKET_NS);
        assert_eq!(c.percentile_ns(0.99), 990 * BUCKET_NS);
        assert_eq!(c.percentile_ns(1.0), 1000 * BUCKET_NS);
        assert_eq!(c.percentile_ns(0.0), 10 * BUCKET_NS);
        // to the bucket: a sample reads as its bucket's lower edge
        let mut c = LatencyCounts::new();
        c.record(7 * BUCKET_NS + 5);
        assert_eq!(c.percentile_ns(0.5), 7 * BUCKET_NS);
        let values: Vec<f64> = (1..=100).map(|v| f64::from(v) * 10.0).collect();
        assert_eq!(percentile(&values, 0.5), 500.0);
        assert_eq!(percentile(&values, 0.99), 990.0);
    }

    #[test]
    fn percentile_reaches_into_the_slow_list() {
        let mut c = LatencyCounts::new();
        for _ in 0..90 {
            c.record(4_992);
        }
        for i in 0..10u64 {
            c.record(3_000_000 - i); // beyond the table, unsorted
        }
        assert_eq!(c.percentile_ns(0.9), 4_992);
        assert_eq!(c.percentile_ns(0.91), 2_999_991);
        assert_eq!(c.percentile_ns(1.0), 3_000_000);
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn merge_adds_both_tables() {
        let mut a = LatencyCounts::new();
        let mut b = LatencyCounts::new();
        a.record(32);
        b.record(64);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.percentile_ns(0.5), 64);
        assert_eq!(a.percentile_ns(1.0), 2_000_000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 it leaves 10 too
        // (rank 990), of 900 only 9
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(900), 0.9);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn windows_keep_their_own_counts_and_the_partial_one_is_dropped() {
        const S: u64 = 1_000_000_000;
        // 3 completions in second 0, 1 in second 1, 5 in second 2 and
        // one in the half second after that, split over two clients
        let (mut a, mut b) = (WindowedLatency::new(S), WindowedLatency::new(S));
        for (at, latency) in [
            (1, 320),
            (2, 320),
            (S + S / 2, 640),
            (2 * S + 1, 960),
            (2 * S + 2, 960),
        ] {
            a.record(at, latency);
        }
        for (at, latency) in [
            (3, 3200),
            (2 * S + 7, 96),
            (2 * S + 8, 96),
            (3 * S - 1, 96),
            (3 * S + 4, 64),
        ] {
            b.record(at, latency);
        }
        a.merge(&b);
        let whole = a.whole_windows(3 * S + S / 2);
        let counts: Vec<f64> = whole.iter().map(|w| w.len() as f64).collect();
        assert_eq!(counts, vec![3.0, 1.0, 5.0]);
        assert_eq!(median(&counts), 3.0);
        assert_eq!(whole[0].percentile_ns(0.5), 320);
        assert_eq!(whole[2].percentile_ns(0.5), 96);
        assert_eq!(a.all().len(), 10);
        assert!(a.whole_windows(S / 2).is_empty());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }
}
