//! Analytic models of the accelerators the paper compares against (§I, §V),
//! parameterised from the figures the paper cites \[44\]. Their batch-latency
//! behavior is the essential contrast: batch-pipelined designs amortize
//! weight traffic over large batches and suffer at batch 1, while the TSP is
//! engineered for batch-1 latency.

/// An accelerator's batch-inference behavior for one model (ResNet-50-class).
#[derive(Debug, Clone)]
pub struct AcceleratorModel {
    /// Display name.
    pub name: &'static str,
    /// Latency of a batch-1 query, in microseconds.
    pub batch1_latency_us: f64,
    /// Peak throughput at large batch, in inferences per second.
    pub peak_ips: f64,
    /// Batch size at which throughput reaches half of peak (the knee of the
    /// pipeline-fill curve).
    pub half_peak_batch: f64,
}

impl AcceleratorModel {
    /// Throughput at a given batch size: a saturating pipeline-fill curve
    /// `IPS(b) = peak · b / (b + half_peak_batch)`.
    #[must_use]
    pub fn ips_at_batch(&self, batch: f64) -> f64 {
        self.peak_ips * batch / (batch + self.half_peak_batch)
    }

    /// End-to-end latency of one query at a given batch size (µs): the batch
    /// must fill before it drains.
    #[must_use]
    pub fn latency_at_batch_us(&self, batch: f64) -> f64 {
        batch / self.ips_at_batch(batch) * 1e6
    }
}

/// TPU-v3-class batch accelerator: the paper reports the TSP's 20.4K IPS is
/// "a 2.5× speedup relative to the Google TPU v3 large batch inference" —
/// i.e. ≈8.2K IPS at large batch — and TPU-class designs need large batches
/// to fill their systolic pipelines.
#[must_use]
pub fn tpu_v3_class() -> AcceleratorModel {
    AcceleratorModel {
        name: "TPUv3-class",
        batch1_latency_us: 2_000.0,
        peak_ips: 8_160.0,
        half_peak_batch: 32.0,
    }
}

/// Goya-class inference chip: the paper cites 240 µs batch-1 latency
/// (vs the TSP's 49 µs — "nearly a 5× reduction in end-to-end latency").
#[must_use]
pub fn goya_class() -> AcceleratorModel {
    AcceleratorModel {
        name: "Goya-class",
        batch1_latency_us: 240.0,
        peak_ips: 15_000.0,
        half_peak_batch: 8.0,
    }
}

/// V100-class GPU: ≈25 µs/image at large batch but kernel-launch and
/// pipeline-fill bound at batch 1.
#[must_use]
pub fn v100_class() -> AcceleratorModel {
    AcceleratorModel {
        name: "V100-class",
        batch1_latency_us: 1_200.0,
        peak_ips: 7_800.0,
        half_peak_batch: 24.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_saturates_with_batch() {
        let tpu = tpu_v3_class();
        assert!(tpu.ips_at_batch(1.0) < tpu.peak_ips / 10.0);
        assert!(tpu.ips_at_batch(512.0) > tpu.peak_ips * 0.9);
    }

    #[test]
    fn paper_cited_ratios_hold() {
        // TSP 20.4K IPS ≈ 2.5× TPUv3 large-batch.
        let tpu = tpu_v3_class();
        let ratio = 20_400.0 / tpu.ips_at_batch(1024.0);
        assert!((2.4..2.7).contains(&ratio), "TPU ratio {ratio}");
        // TSP 49 µs ≈ 5× better than Goya's 240 µs at batch 1.
        let goya = goya_class();
        let ratio = goya.batch1_latency_us / 49.0;
        assert!((4.5..5.5).contains(&ratio), "Goya ratio {ratio}");
    }

    #[test]
    fn latency_grows_with_batch() {
        let g = goya_class();
        assert!(g.latency_at_batch_us(64.0) > g.latency_at_batch_us(1.0));
    }
}
