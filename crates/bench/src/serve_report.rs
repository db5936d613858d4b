//! The `BENCH_SERVE.json` report schema (`tsp-serve-v2`), with a parser so
//! the schema round-trips — serving sweeps from different commits can be
//! compared programmatically, like the simspeed and fault artifacts.
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
//! same `⌈q·n⌉`-th smallest the old sorted-vec picked (the [`percentile`]
//! helper below remains as the exact-rank reference), but the reported value
//! is the **upper bound of the log bucket** holding that rank, clamped to
//! the observed maximum. Below 32 cycles buckets are exact; above, the
//! value is within 3.125% of (and never below) the true order statistic.
//! In exchange the histogram is mergeable across sweep shards and O(1) per
//! record, so v2 reports carry the *whole* distribution, not three samples
//! of it — `min`/`max`/`mean` are exact, and any other quantile can be
//! re-derived from the persisted buckets.

use tsp_telemetry::hist::Histogram;
use tsp_telemetry::json::{escape_free, Fields, Json};

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

    /// Serializes the report under [`SERVE_SCHEMA`]. Every string is a
    /// known-clean identifier (asserted in debug builds).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = format!("{{\n  \"schema\": \"{SERVE_SCHEMA}\",\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            json.push_str(&format!(
                concat!(
                    "    {{\n",
                    "      \"label\": \"{}\",\n",
                    "      \"mean_interarrival\": {:.3},\n",
                    "      \"strike_per_mille\": {},\n",
                    "      \"persistent_per_mille\": {},\n",
                    "      \"requests\": {},\n",
                    "      \"completed\": {},\n",
                    "      \"good\": {},\n",
                    "      \"shed_queue_full\": {},\n",
                    "      \"shed_expired\": {},\n",
                    "      \"failed\": {},\n",
                    "      \"deadline_missed\": {},\n",
                    "      \"sdc\": {},\n",
                    "      \"accounting_violations\": {},\n",
                    "      \"horizon\": {},\n",
                    "      \"p50\": {},\n",
                    "      \"p99\": {},\n",
                    "      \"p999\": {},\n",
                    "      \"latency\": {},\n",
                    "      \"chips\": [\n"
                ),
                escape_free(&p.label),
                p.mean_interarrival,
                p.strike_per_mille,
                p.persistent_per_mille,
                p.requests,
                p.completed,
                p.good,
                p.shed_queue_full,
                p.shed_expired,
                p.failed,
                p.deadline_missed,
                p.sdc,
                p.accounting_violations,
                p.horizon,
                p.p50,
                p.p99,
                p.p999,
                p.latency.to_json(6),
            ));
            for (j, c) in p.chips.iter().enumerate() {
                json.push_str(&format!(
                    concat!(
                        "        {{ \"chip\": {}, \"batches\": {}, \"requests\": {}, ",
                        "\"busy_cycles\": {}, \"utilization\": {:.6}, \"mxm_waves\": {}, ",
                        "\"quarantined\": {}, \"quarantined_at\": {} }}{}\n"
                    ),
                    c.chip,
                    c.batches,
                    c.requests,
                    c.busy_cycles,
                    c.utilization,
                    c.mxm_waves,
                    c.quarantined_at.is_some(),
                    c.quarantined_at.unwrap_or(0),
                    if j + 1 < p.chips.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!(
                "      ]\n    }}{}\n",
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Parses a `tsp-serve-v1` document, inverse of
    /// [`ServeBenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the first missing/malformed field, or a schema-tag
    /// mismatch.
    pub fn from_json(text: &str) -> Result<ServeBenchReport, String> {
        let doc = Json::parse(text)?;
        let doc = Fields::root(&doc);
        doc.expect_schema(SERVE_SCHEMA)?;
        let chip = |c: Fields<'_>| {
            Ok(ServeChipRow {
                chip: c.u64("chip")?,
                batches: c.u64("batches")?,
                requests: c.u64("requests")?,
                busy_cycles: c.u64("busy_cycles")?,
                utilization: c.f64("utilization")?,
                mxm_waves: c.u64("mxm_waves")?,
                quarantined_at: (c.bool("quarantined")?)
                    .then(|| c.u64("quarantined_at"))
                    .transpose()?,
            })
        };
        let point = |p: Fields<'_>| {
            Ok(ServePoint {
                label: p.str("label")?.to_string(),
                mean_interarrival: p.f64("mean_interarrival")?,
                strike_per_mille: p.u64("strike_per_mille")?,
                persistent_per_mille: p.u64("persistent_per_mille")?,
                requests: p.u64("requests")?,
                completed: p.u64("completed")?,
                good: p.u64("good")?,
                shed_queue_full: p.u64("shed_queue_full")?,
                shed_expired: p.u64("shed_expired")?,
                failed: p.u64("failed")?,
                deadline_missed: p.u64("deadline_missed")?,
                sdc: p.u64("sdc")?,
                accounting_violations: p.u64("accounting_violations")?,
                horizon: p.u64("horizon")?,
                p50: p.u64("p50")?,
                p99: p.u64("p99")?,
                p999: p.u64("p999")?,
                latency: Histogram::from_fields(&p.at("latency")?)?,
                chips: p.array("chips", "chip", chip)?,
            })
        };
        let points = doc.array("points", "point", point)?;
        Ok(ServeBenchReport { points })
    }
}

/// Exact-rank percentile over sorted latencies: index `ceil(q·n) − 1`.
///
/// Kept as the **reference semantics** for [`Histogram::quantile`] (same
/// rank selection; the histogram reports that rank's bucket upper bound) and
/// for tests that cross-check the two. `serve_bench` itself records into a
/// [`Histogram`] — O(1) per request, mergeable, whole distribution persisted.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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
    fn round_trips_exactly() {
        let report = sample();
        let text = report.to_json();
        let back = ServeBenchReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "serialization is a fixed point");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = sample().to_json().replace("-v2", "-v0");
        assert!(ServeBenchReport::from_json(&text)
            .unwrap_err()
            .contains(SERVE_SCHEMA));
    }

    #[test]
    fn latency_histogram_survives_the_round_trip() {
        let report = sample();
        let text = report.to_json();
        let back = ServeBenchReport::from_json(&text).expect("parses");
        let (a, b) = (&report.points[0].latency, &back.points[0].latency);
        assert_eq!(a, b);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile(q), b.quantile(q));
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

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 500);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.999), 999);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
    }
}
