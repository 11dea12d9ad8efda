//! Lock-free metric primitives: relaxed-atomic counters, gauges and
//! fixed-bucket histograms.
//!
//! All three types are plain shared-memory cells updated with
//! `Ordering::Relaxed`: no update ever synchronizes with another, so a
//! recording site costs one uncontended atomic RMW. Reads are racy by
//! design; a snapshot taken while writers are live is a consistent-enough
//! diagnostic, and a snapshot taken after the writers joined is exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` and `const` contexts).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one (relaxed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water cell.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (usable in `static` and `const` contexts).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is larger (relaxed high-water mark).
    ///
    /// Hot paths call this once per event with a value that almost never
    /// rises, so it loads first and only enters the read-modify-write (a
    /// `lock cmpxchg` loop on x86) when it would change something. A
    /// concurrent raiser between the load and the `fetch_max` is handled by
    /// the `fetch_max`; one that makes the load stale-low only costs the
    /// skipped shortcut.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one per power of two of `u64`
/// plus one for zero/one.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value needs `i` significant bits
/// (bucket 0 holds the value 0, bucket 1 holds 1, bucket 2 holds 2–3,
/// bucket 3 holds 4–7, …). The layout is fixed at compile time so
/// recording never allocates and merging is index-wise addition.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in `static` and `const` contexts).
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index of `value`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `index` (`u64::MAX` for the last).
    pub fn bucket_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << index) - 1,
        }
    }

    /// Records one sample (three relaxed RMWs, no allocation).
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out as plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((Self::bucket_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data copy of a [`Histogram`]: only non-empty buckets, as
/// `(inclusive upper bound, sample count)` pairs in increasing bound
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping is the caller's concern).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by linear
    /// interpolation inside the power-of-two buckets.
    ///
    /// The true sample values are gone — only bucket counts survive — so
    /// the estimate assumes samples are spread uniformly across each
    /// bucket's `[lower, upper]` range. The error is bounded by the bucket
    /// width (a factor of two), which is plenty for order-of-magnitude
    /// latency reporting. The top non-empty bucket is clamped to the exact
    /// recorded `max`, so `quantile(1.0) == max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // The walk is in `f64`, so no bucket count can overflow it. A bucket
        // read back from a trace may hold zero samples, which would make
        // `frac` 0/0: it has no share of the quantile and is skipped.
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0;
        for &(bound, n) in self.buckets.iter().filter(|&&(_, n)| n > 0) {
            let n = n as f64;
            if cum + n >= target {
                let lower = Self::bucket_lower(bound) as f64;
                let upper = bound.min(self.max) as f64;
                let frac = ((target - cum) / n).clamp(0.0, 1.0);
                return (lower + frac * (upper - lower).max(0.0)).min(self.max as f64);
            }
            cum += n;
        }
        self.max as f64
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Inclusive lower edge of the bucket whose inclusive upper bound is
    /// `bound` (the buckets tile `u64`: 0, 1, 2–3, 4–7, …).
    fn bucket_lower(bound: u64) -> u64 {
        match bound {
            0 => 0,
            u64::MAX => 1u64 << 63,
            b => b.div_ceil(2),
        }
    }

    /// Encodes the non-empty buckets as `"bound:count;…"` — a flat-JSON
    /// friendly string so histogram trace records can carry their shape
    /// through the scalar-only [`crate::parse_flat_object`] parser.
    pub fn encode_buckets(&self) -> String {
        let mut out = String::new();
        for (i, (bound, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(&format!("{bound}:{n}"));
        }
        out
    }

    /// Parses a [`HistogramSnapshot::encode_buckets`] string back into
    /// `(bound, count)` pairs. Malformed entries are skipped rather than
    /// failing the whole record — trace readers are best-effort.
    pub fn decode_buckets(s: &str) -> Vec<(u64, u64)> {
        let mut buckets = Vec::with_capacity(s.split(';').count());
        buckets.extend(s.split(';').filter_map(|pair| {
            let (bound, n) = pair.split_once(':')?;
            Some((bound.parse().ok()?, n.parse().ok()?))
        }));
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.record_max(3);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn gauge_high_water_is_exact_under_concurrent_raisers() {
        // Four threads raise one gauge through interleaved, locally
        // non-monotone values; whatever the schedule, the result is the
        // largest value any of them recorded.
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 20_000;
        let g = Gauge::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (g, start) = (&g, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..ROUNDS {
                        g.record_max(i * THREADS + t);
                        g.record_max(i / 2); // a lower value never pulls it down
                    }
                });
            }
        });
        assert_eq!(g.get(), (ROUNDS - 1) * THREADS + THREADS - 1);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(3), 7);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_is_exact_after_observations() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 900] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 907);
        assert_eq!(s.max, 900);
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (7, 1), (1023, 1)]);
        assert!((s.mean() - 181.4).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_a_hostile_snapshot_stay_in_range() {
        // What a trace may claim: counts at `u64::MAX`, a bucket with none.
        let s = HistogramSnapshot {
            count: u64::MAX,
            sum: u64::MAX,
            max: 100,
            buckets: vec![(1, 0), (7, u64::MAX), (127, u64::MAX)],
        };
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!((0.0..=100.0).contains(&v), "q {q}: {v}");
        }
        // The lower edge of the first bucket that holds a sample.
        assert_eq!(s.quantile(0.0), 4.0);
    }

    #[test]
    fn counters_are_safe_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
