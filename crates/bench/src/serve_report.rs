//! The `BENCH_SERVE.json` report schema (`tsp-serve-v2`), written as a
//! [`Json`] value.
//!
//! One [`ServePoint`] per sweep point (offered load × chaos configuration):
//! goodput, shed and deadline-miss rates, the full end-to-end latency
//! [`Histogram`], the two gate counters (`sdc`, `accounting_violations` —
//! CI fails on either being nonzero), and per-chip utilization derived from
//! the serving layer's merged telemetry.
//!
//! # Percentile semantics (v2)
//!
//! `p50`/`p99`/`p999` are [`Histogram::quantile`] values: the rank is the
//! `⌈q·n⌉`-th smallest of the recorded latencies, but the reported value
//! is the **upper bound of the log bucket** holding that rank, clamped to
//! the observed maximum. Below 32 cycles buckets are exact; above, the
//! value is within 3.125% of (and never below) the true order statistic.
//! In exchange the histogram is mergeable across sweep shards and O(1) per
//! record, so v2 reports carry the *whole* distribution, not three samples
//! of it — `min`/`max`/`mean` are exact, and any other quantile can be
//! re-derived from the persisted buckets.

use tsp_telemetry::hist::Histogram;
use tsp_telemetry::json::Json;

/// Schema tag of `BENCH_SERVE.json`.
pub const SERVE_SCHEMA: &str = "tsp-serve-v2";

/// One chip's share of a sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeChipRow {
    /// Pool position.
    pub chip: u64,
    /// Batches dispatched to it.
    pub batches: u64,
    /// Requests it carried.
    pub requests: u64,
    /// Cycles it was busy (emplace + service + retry overhead).
    pub busy_cycles: u64,
    /// `busy_cycles / horizon` — the utilization the load balancer
    /// achieved on this member.
    pub utilization: f64,
    /// MXM MACC waves from the chip's merged telemetry (the roofline
    /// numerator — how much *useful* work the busy cycles bought).
    pub mxm_waves: u64,
    /// Cycle the circuit breaker quarantined it (`None` = never).
    pub quarantined_at: Option<u64>,
}

/// One sweep point: an offered-load × chaos configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Point label (e.g. `underload/chaos-persistent`).
    pub label: String,
    /// Mean request inter-arrival gap in cycles (1/λ).
    pub mean_interarrival: f64,
    /// Chaos strike probability (‰) on the targeted chips (0 = off).
    pub strike_per_mille: u64,
    /// Fraction (‰) of strikes that are persistent.
    pub persistent_per_mille: u64,
    /// Requests offered.
    pub requests: u64,
    /// Requests that produced logits.
    pub completed: u64,
    /// Requests that produced logits within their deadline (goodput).
    pub good: u64,
    /// Requests shed at admission (queue full).
    pub shed_queue_full: u64,
    /// Requests shed after out-waiting their deadline in the queue.
    pub shed_expired: u64,
    /// Requests dispatched but never completed (budget exhausted).
    pub failed: u64,
    /// Completions that missed their deadline.
    pub deadline_missed: u64,
    /// Completions whose logits differ from the fault-free serial oracle —
    /// silent data corruptions. The gate: must be zero.
    pub sdc: u64,
    /// Accounting inconsistencies found by `verify_accounting`. The other
    /// gate: must be zero.
    pub accounting_violations: u64,
    /// Cycle the last batch finished.
    pub horizon: u64,
    /// Median end-to-end latency in cycles (0 when nothing completed).
    /// See the module docs for the v2 bucket-upper-bound semantics.
    pub p50: u64,
    /// 99th-percentile latency in cycles (bucket upper bound, ≤ max).
    pub p99: u64,
    /// 99.9th-percentile latency in cycles (bucket upper bound, ≤ max).
    pub p999: u64,
    /// The full end-to-end latency distribution (completed requests only,
    /// arrival → completion in cycles). `p50`/`p99`/`p999` above are its
    /// [`Histogram::quantile`] values, persisted for grep-ability.
    pub latency: Histogram,
    /// Per-chip rows, by pool position.
    pub chips: Vec<ServeChipRow>,
}

impl ServePoint {
    /// Goodput as a fraction of offered requests.
    #[must_use]
    pub fn good_fraction(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.good as f64 / self.requests as f64
    }
}

/// A complete serving-sweep report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeBenchReport {
    /// One entry per sweep point, in sweep order.
    pub points: Vec<ServePoint>,
}

impl ServeBenchReport {
    /// Total silent data corruptions across the sweep.
    #[must_use]
    pub fn sdc_count(&self) -> u64 {
        self.points.iter().map(|p| p.sdc).sum()
    }

    /// Total accounting violations across the sweep.
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.points.iter().map(|p| p.accounting_violations).sum()
    }

    /// The report under [`SERVE_SCHEMA`], one object per sweep point.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let points = self.points.iter().map(ServePoint::to_json);
        Json::obj([
            ("schema", SERVE_SCHEMA.into()),
            ("points", points.collect()),
        ])
    }
}

impl ServePoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.as_str().into()),
            ("mean_interarrival", Json::fixed(self.mean_interarrival, 3)),
            ("strike_per_mille", self.strike_per_mille.into()),
            ("persistent_per_mille", self.persistent_per_mille.into()),
            ("requests", self.requests.into()),
            ("completed", self.completed.into()),
            ("good", self.good.into()),
            ("shed_queue_full", self.shed_queue_full.into()),
            ("shed_expired", self.shed_expired.into()),
            ("failed", self.failed.into()),
            ("deadline_missed", self.deadline_missed.into()),
            ("sdc", self.sdc.into()),
            ("accounting_violations", self.accounting_violations.into()),
            ("horizon", self.horizon.into()),
            ("p50", self.p50.into()),
            ("p99", self.p99.into()),
            ("p999", self.p999.into()),
            ("latency", self.latency.to_json()),
            (
                "chips",
                self.chips.iter().map(ServeChipRow::to_json).collect(),
            ),
        ])
    }
}

impl ServeChipRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("chip", self.chip.into()),
            ("batches", self.batches.into()),
            ("requests", self.requests.into()),
            ("busy_cycles", self.busy_cycles.into()),
            ("utilization", Json::fixed(self.utilization, 6)),
            ("mxm_waves", self.mxm_waves.into()),
            ("quarantined", self.quarantined_at.is_some().into()),
            ("quarantined_at", self.quarantined_at.unwrap_or(0).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeBenchReport {
        let mut latency = Histogram::new();
        for v in [880, 901, 944, 4_150, 6_000] {
            latency.record(v);
        }
        ServeBenchReport {
            points: vec![ServePoint {
                label: "underload/chaos-persistent".into(),
                mean_interarrival: 512.25,
                strike_per_mille: 500,
                persistent_per_mille: 1000,
                requests: 96,
                completed: 90,
                good: 88,
                shed_queue_full: 2,
                shed_expired: 2,
                failed: 2,
                deadline_missed: 2,
                sdc: 0,
                accounting_violations: 0,
                horizon: 123_456,
                p50: 900,
                p99: 4_200,
                p999: 6_000,
                latency,
                chips: vec![
                    ServeChipRow {
                        chip: 0,
                        batches: 1,
                        requests: 4,
                        busy_cycles: 9_999,
                        utilization: 0.081,
                        mxm_waves: 1_234,
                        quarantined_at: Some(10_000),
                    },
                    ServeChipRow {
                        chip: 1,
                        batches: 20,
                        requests: 92,
                        busy_cycles: 110_000,
                        utilization: 0.890_625,
                        mxm_waves: 88_000,
                        quarantined_at: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn gate_counters_aggregate() {
        let mut report = sample();
        assert_eq!(report.sdc_count(), 0);
        assert_eq!(report.violation_count(), 0);
        report.points[0].sdc = 1;
        report.points[0].accounting_violations = 2;
        assert_eq!(report.sdc_count(), 1);
        assert_eq!(report.violation_count(), 2);
    }
}
