//! HDR-style log-bucketed latency histogram on the virtual cycle clock.
//!
//! [`Histogram`] records `u64` values (cycles) into logarithmic buckets with
//! linear sub-buckets — the classic HdrHistogram layout, sized here for the
//! full `u64` range with [`SUB_BUCKETS`] sub-buckets per octave:
//!
//! * values below [`SUB_BUCKETS`] land in unit-width buckets (**exact**);
//! * a value `v ≥ SUB_BUCKETS` with most-significant bit `m` lands in the
//!   octave `[2^m, 2^{m+1})`, split into [`SUB_BUCKETS`] equal sub-buckets of
//!   width `2^{m-5}` — a relative quantization error of at most
//!   1/[`SUB_BUCKETS`] (3.125%).
//!
//! Count, sum, min and max are tracked exactly regardless of bucketing.
//! Everything is plain integers: recording is O(1), merging is element-wise,
//! and the same value sequence always produces the same histogram — there is
//! no sampling, no decay, and no wall-clock anywhere, so reports built from
//! it are bit-reproducible and mergeable across shards (unlike a sorted-vec
//! percentile over a sampled subset).
//!
//! ## Quantile semantics
//!
//! [`Histogram::quantile`] uses the same rank rule as a sorted vector: the
//! `⌈q·n⌉`-th smallest of the `n` recorded values (clamped to `[1, n]`). The
//! reported value is the **inclusive upper bound** of the bucket holding that
//! rank, clamped to the exact observed maximum — i.e. at least the true order
//! statistic, and within one sub-bucket (≤ 3.125% relative, exact below
//! [`SUB_BUCKETS`]) of it.

use crate::json::Json;

/// log2 of the sub-bucket count per octave.
pub const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave: each octave `[2^m, 2^{m+1})` is split into
/// this many equal-width buckets.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Index of the bucket holding `v`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) & (SUB_BUCKETS - 1);
    (((msb - SUB_BITS) as usize + 1) << SUB_BITS) + sub as usize
}

/// Inclusive `[low, high]` range of recordable values mapping to bucket `i`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let block = (i >> SUB_BITS) as u32;
    let sub = (i as u64) & (SUB_BUCKETS - 1);
    if block == 0 {
        return (sub, sub);
    }
    let msb = block - 1 + SUB_BITS;
    let width = 1u64 << (msb - SUB_BITS);
    let low = (1u64 << msb) + sub * width;
    (low, low + (width - 1))
}

/// A deterministic log-bucketed histogram of `u64` values (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Values recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating at `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another histogram into this one (bucket-wise addition; min/max
    /// combine exactly). `merge` then `quantile` equals recording both value
    /// sequences into one histogram — the property that makes sharded
    /// collection exact.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (see module docs): upper bound of the bucket holding
    /// the `⌈q·n⌉`-th smallest recorded value, clamped to the observed max.
    /// Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// The histogram as a JSON object: `count`, `sum`, `min`, `max` and the
    /// non-empty buckets as `[index, count]` pairs. Deterministic: same
    /// histogram, same value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets = (self.counts.iter().enumerate())
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::from_iter([i as u64, c]));
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min().into()),
            ("max", self.max.into()),
            ("buckets", buckets.collect()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorted-vec reference the histogram replaces: `⌈q·n⌉`-th smallest.
    fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn bucket_layout_is_consistent() {
        for v in (0..4096).chain([u64::MAX - 1, u64::MAX, 1 << 40, (1 << 40) + 12345]) {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} bucket {i} bounds [{lo},{hi}]");
        }
        // Buckets tile the small range contiguously and exactly.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn quantiles_are_exact_below_sub_buckets() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=31).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), exact_percentile(&values, q), "q={q}");
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 31);
    }

    #[test]
    fn quantiles_bound_the_order_statistic_within_a_sub_bucket() {
        // Deterministic pseudo-random values over several octaves.
        let mut h = Histogram::new();
        let mut values = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 1_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_percentile(&values, q);
            let approx = h.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            // Upper bound of the exact value's bucket is the worst case.
            assert!(
                approx <= bucket_bounds(bucket_index(exact)).1,
                "q={q}: {approx} above bucket bound of {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), *values.last().unwrap());
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 77, 1024, 99_999] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 5, 5, 123_456_789] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.999), 0);
        assert_eq!((h.count(), h.min(), h.max(), h.sum()), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        let mut m = Histogram::new();
        m.merge(&h);
        assert_eq!(m, Histogram::new());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, 123_456_789, u64::MAX] {
            h.record(v);
        }
        let doc = h.to_json();
        assert_eq!(Json::parse(&doc.pretty(0)), Ok(doc.clone()));
        assert_eq!(doc.get("max").and_then(Json::as_u64), Some(u64::MAX));
        let buckets = doc.get("buckets").and_then(Json::as_array).expect("array");
        assert_eq!(buckets.len(), 7, "one pair per non-empty bucket");
        assert_eq!(
            buckets[6].to_string(),
            format!("[{},1]", bucket_index(u64::MAX))
        );
        // Empty prints its exact min of 0, not the sentinel.
        let empty = Histogram::new().to_json();
        assert_eq!(
            empty.to_string(),
            r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#
        );
    }
}
