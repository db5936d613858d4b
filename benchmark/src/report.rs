//! JSON building and serialising on top of `tsp_telemetry::json::Json` (which
//! parses but does not print), and the per-run result document.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tsp_telemetry::json::{escape, Json};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::Timing;

pub fn num(v: impl std::fmt::Display) -> Json {
    Json::Num(v.to_string())
}

/// A measured value with all its digits; non-finite values become 0 (JSON
/// has no NaN, and a metric that could not be computed was not exercised).
pub fn float(v: f64) -> Json {
    num(if v.is_finite() { v } else { 0.0 })
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialises on one line: objects keep insertion order, numbers keep their
/// raw token, so `Json::parse(&render(&j)) == Ok(j)`.
pub fn render(j: &Json) -> String {
    let mut out = String::new();
    write_json(j, &mut out);
    out
}

fn write_json(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(n),
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", escape(k));
                write_json(v, out);
            }
            out.push('}');
        }
    }
}

/// Metric values by name. Names must come from the registry in
/// [`crate::metrics`]; [`Outcome::check_names`] enforces it.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// Ops (requests, for the serve workloads) attempted in the timed pass.
    pub attempted: u64,
    /// Ops whose output failed the workload's oracle.
    pub failed: u64,
    /// What failed, for the human reading the log.
    pub failures: Vec<String>,
    pub end_to_end: Values,
    /// Per-layer metrics; empty unless the traced pass ran.
    pub per_layer: Values,
    /// Host timings behind the medians, as `{p50, hi, hi_pct, n}`.
    pub timings: BTreeMap<&'static str, Timing>,
    /// Run-queue wait ÷ wall over the timed pass exceeded the noise limit.
    pub noisy: bool,
    /// The traced pass's spans, if it ran.
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, seconds: f64) -> Outcome {
        Outcome {
            workload,
            seed,
            seconds,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            end_to_end: Values::new(),
            per_layer: Values::new(),
            timings: BTreeMap::new(),
            noisy: false,
            trace: None,
        }
    }

    /// Counts one failed op, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Records an oracle verdict for one op.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every reported name is declared, and every end-to-end metric is
    /// reported and non-zero (the contract: a workload reports them all).
    pub fn check_names(&self) -> Result<(), String> {
        for name in self.end_to_end.keys() {
            if !END_TO_END.iter().any(|m| m.name == *name) {
                return Err(format!("undeclared end-to-end metric {name}"));
            }
        }
        for name in self.per_layer.keys() {
            if !PER_LAYER.iter().any(|m| m.name == *name) {
                return Err(format!("undeclared per-layer metric {name}"));
            }
        }
        for m in END_TO_END {
            match self.end_to_end.get(m.name) {
                Some(v) if *v != 0.0 && v.is_finite() => {}
                other => return Err(format!("end-to-end metric {} is {other:?}", m.name)),
            }
        }
        Ok(())
    }

    /// The contract's last stdout line: end-to-end metrics for an untraced
    /// run, per-layer metrics (0 where this workload does not exercise the
    /// layer) for a traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics: Vec<(&str, Json)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self.per_layer.get(m.name).copied().unwrap_or(0.0);
                    (m.name, metric_json(value, m.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, metric_json(self.end_to_end[m.name], m.unit)))
                .collect()
        };
        render(&obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted)),
            ("failed", num(self.failed)),
            ("metrics", obj(metrics)),
        ]))
    }

    /// The result document written to `<out>/<workload>.json`.
    pub fn to_json(&self) -> Json {
        let values = |values: &Values, unit_of: &dyn Fn(&str) -> &'static str| {
            obj(values
                .iter()
                .map(|(name, v)| (*name, metric_json(*v, unit_of(name))))
                .collect())
        };
        let timings = self
            .timings
            .iter()
            .map(|(name, t)| {
                let fields = vec![
                    ("p50", float(t.p50)),
                    ("hi", float(t.hi)),
                    ("hi_pct", float(t.hi_pct)),
                    ("n", num(t.n)),
                ];
                (*name, obj(fields))
            })
            .collect();
        obj(vec![
            ("schema", text("tsp-benchmark-result-v1")),
            ("workload", text(self.workload)),
            ("seed", num(self.seed)),
            ("seconds", float(self.seconds)),
            ("ops_attempted", num(self.attempted)),
            ("ops_failed", num(self.failed)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| text(f)).collect()),
            ),
            ("noisy", Json::Bool(self.noisy)),
            (
                "end_to_end",
                values(&self.end_to_end, &crate::metrics::end_to_end_unit),
            ),
            (
                "per_layer",
                values(&self.per_layer, &crate::metrics::per_layer_unit),
            ),
            ("timings_s", obj(timings)),
        ])
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    obj(vec![("value", float(value)), ("unit", text(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_the_telemetry_parser() {
        let doc = obj(vec![
            ("s", text("a \"quoted\"\nline")),
            ("n", num(u64::MAX)),
            ("f", float(0.000_000_123_456_789)),
            ("nan", float(f64::NAN)),
            (
                "list",
                Json::Arr(vec![Json::Null, Json::Bool(true), num(-3)]),
            ),
            ("empty", obj(vec![])),
        ]);
        let line = render(&doc);
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(Json::parse(&line), Ok(doc.clone()));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("nan").and_then(Json::as_f64), Some(0.0));
    }

    fn full_outcome() -> Outcome {
        let mut o = Outcome::new("stream_vadd", 7, 1.0);
        o.attempted = 10;
        for m in END_TO_END {
            o.end_to_end.insert(m.name, 1.5);
        }
        o.per_layer.insert(PER_LAYER[0].name, 2.0);
        o.timings.insert("host_op_s", Timing::of(&[1.0, 2.0, 3.0]));
        o
    }

    #[test]
    fn result_file_parses_and_round_trips() {
        let doc = full_outcome().to_json();
        let parsed = Json::parse(&render(&doc)).expect("valid JSON");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("ops_attempted").and_then(Json::as_u64), Some(10));
        let e2e = parsed
            .get("end_to_end")
            .and_then(Json::as_object)
            .expect("object");
        assert_eq!(e2e.len(), END_TO_END.len());
    }

    #[test]
    fn contract_line_has_exactly_the_declared_keys() {
        let o = full_outcome();
        for (traced, expect) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = Json::parse(&o.contract_line(traced)).expect("valid JSON");
            let keys: Vec<_> = line
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("object");
            assert_eq!(metrics.len(), expect);
            for (_, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }

    #[test]
    fn names_are_checked_against_the_registry() {
        let mut o = full_outcome();
        assert_eq!(o.check_names(), Ok(()));
        o.per_layer.insert("not.a.metric", 1.0);
        assert!(o.check_names().is_err());
        let mut o = full_outcome();
        o.end_to_end.insert(END_TO_END[0].name, 0.0);
        assert!(o.check_names().is_err(), "an end-to-end metric is never 0");
    }
}
