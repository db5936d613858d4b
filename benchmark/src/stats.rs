//! Order statistics for timing samples, and the seeded input generator.

/// Percentiles a timing may report as its tail, in per-mille (integer rank
/// arithmetic: `0.99 * 1000.0` is not 990 in floating point).
const TAIL_PER_MILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Fewest samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank of `per_mille` among `n` samples, 1-based.
fn rank(n: usize, per_mille: u64) -> usize {
    ((per_mille * n as u64).div_ceil(1000) as usize).clamp(1, n)
}

/// Nearest-rank percentile (given in per-mille) of an ascending-sorted,
/// non-empty slice.
pub fn percentile<T: Copy>(sorted: &[T], per_mille: u64) -> T {
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// The highest of [`TAIL_PER_MILLE`] with at least [`MIN_BEYOND`] samples
/// beyond it among `n ≥ 1` samples; the median when even that has fewer (the
/// sample count is reported beside it, so a thin tail is visible).
pub fn tail_per_mille(n: usize) -> u64 {
    TAIL_PER_MILLE
        .iter()
        .copied()
        .filter(|&p| n - rank(n, p) >= MIN_BEYOND)
        .max()
        .unwrap_or(500)
}

/// A timing as the benchmark stores it: the median, the highest percentile
/// the sample supports, and the sample count. Only `p50` is ever gated: every
/// op of a workload does identical simulated work, so the tail is host noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub hi: f64,
    pub hi_pct: f64,
    pub n: usize,
}

impl Timing {
    /// Summarises `samples` (seconds); all-zero for an empty sample.
    pub fn of(samples: &[f64]) -> Timing {
        if samples.is_empty() {
            return Timing {
                p50: 0.0,
                hi: 0.0,
                hi_pct: 50.0,
                n: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_per_mille(sorted.len());
        Timing {
            p50: median(&sorted),
            hi: percentile(&sorted, tail),
            hi_pct: tail as f64 / 10.0,
            n: sorted.len(),
        }
    }
}

/// Median of an ascending-sorted slice (mean of the middle pair when even);
/// 0 when empty.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median_of(samples: &[f64]) -> f64 {
    Timing::of(samples).p50
}

/// SplitMix64: the harness's only randomness. Inputs (images, X/Y vectors,
/// arrival-trace and chaos seeds) are drawn from it; the crates under test
/// receive those inputs, never the benchmark seed itself.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// One `[y][x][c]` fp32 image: a smooth sinusoid plus noise, the same shape
/// of data `tsp_nn::data::synthetic` produces, generated here so the seed
/// never enters the crates under test.
pub fn image(rng: &mut SplitMix64, h: u32, w: u32, c: u32) -> Vec<f32> {
    let fy = 0.5 + 2.5 * rng.next_f32();
    let fx = 0.5 + 2.5 * rng.next_f32();
    let phase = std::f32::consts::TAU * rng.next_f32();
    (0..h * w * c)
        .map(|i| {
            let (ch, p) = (i % c, i / c);
            let (y, x) = (p / w, p % w);
            let wave = ((y as f32 * fy / h as f32 + x as f32 * fx / w as f32)
                * std::f32::consts::TAU
                + phase
                + ch as f32)
                .sin();
            wave + 0.7 * rng.next_f32() - 0.35
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // n = 24: p50 leaves 12 beyond, p75 only 6.
        assert_eq!(tail_per_mille(24), 500);
        // n = 40: p75 leaves exactly 10.
        assert_eq!(tail_per_mille(40), 750);
        // n = 1000: p99 leaves exactly 10, p99.9 leaves 1.
        assert_eq!(tail_per_mille(1000), 990);
        // n = 6000: p99.9 leaves 6, p99 leaves 60.
        assert_eq!(tail_per_mille(6000), 990);
        assert_eq!(tail_per_mille(10_000), 999);
        // Too few for any tail: the median, flagged by `n`.
        assert_eq!(tail_per_mille(3), 500);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), 500);
        assert_eq!(percentile(&v, 990), 990);
        assert_eq!(v.len() - 990, 10, "exactly ten samples beyond p99 of 1000");
        assert_eq!(percentile(&v, 1000), 1000);
        assert_eq!(percentile(&[7u64], 990), 7);
    }

    #[test]
    fn timing_summary() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!((t.p50, t.hi, t.hi_pct, t.n), (20.5, 30.0, 75.0, 40));
        assert_eq!(Timing::of(&[]).n, 0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let a = image(&mut SplitMix64::new(9), 4, 4, 2);
        let b = image(&mut SplitMix64::new(9), 4, 4, 2);
        let c = image(&mut SplitMix64::new(10), 4, 4, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| v.abs() <= 1.35));
    }
}
