//! The A/A (and parent-vs-change) comparer: one row per (workload,
//! end-to-end metric) of two result sets, judged against the benchmark's own
//! bounds, plus the determinism contract on everything simulated.

use std::collections::BTreeMap;

use tsp_telemetry::json::Json;

use crate::metrics::{Better, Clock, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

/// How one metric on one workload moved from set A to set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound (or an exact metric moved).
    Worse,
    /// Beyond the bound, but the run-to-run spread is wider than the bound or
    /// a run was flagged noisy: the machine moved it. Repeat, don't average.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's runs of one workload.
#[derive(Debug, Default)]
struct Runs {
    seeds: Vec<u64>,
    noisy: bool,
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, Vec<f64>>,
}

/// A result set: every run in a `result.json`, by workload.
fn load(doc: &Json) -> Result<BTreeMap<String, Runs>, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no `runs` array")?;
    let mut set: BTreeMap<String, Runs> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without `workload`")?;
        let entry = set.entry(workload.to_string()).or_default();
        entry.seeds.push(
            run.get("seed")
                .and_then(Json::as_u64)
                .ok_or("run without `seed`")?,
        );
        entry.noisy |= run.get("noisy").and_then(Json::as_bool).unwrap_or(false);
        for (section, into) in [
            ("end_to_end", &mut entry.end_to_end),
            ("per_layer", &mut entry.per_layer),
        ] {
            for (name, metric) in run.get(section).and_then(Json::as_object).unwrap_or(&[]) {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no value"))?;
                into.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median; `None` under 4 samples
/// (two or three values have no quartiles worth the name).
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let [q1, q2, q3] = quartiles(&sorted)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

fn median_unsorted(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two result sets, printing the table; `Ok(true)` when no row is
/// `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound", "spread"
    );
    for workload in &WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(workload.name), b.get(workload.name)) else {
            continue;
        };
        let same_seeds = ra.seeds == rb.seeds && ra.seeds.windows(2).all(|w| w[0] == w[1]);
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.end_to_end.get(m.name), rb.end_to_end.get(m.name))
            else {
                continue;
            };
            let (ma, mb) = (median_unsorted(va), median_unsorted(vb));
            let widest = spread(va).into_iter().chain(spread(vb)).reduce(f64::max);
            // The machine is deterministic. With one seed everything not
            // read from the host clock repeats exactly; across seeds the
            // closed-loop workloads' cycles still do (timing never depends
            // on data), while the served traffic legitimately differs.
            let exact = m.clock != Clock::Host
                && (same_seeds || (m.name.starts_with("sim_cycles") && !workload.open_loop));
            let verdict = if exact {
                if va.iter().chain(vb).all(|v| *v == va[0]) {
                    Verdict::Ok
                } else {
                    Verdict::Worse
                }
            } else if worsening(ma, mb, m.better) <= m.bound {
                Verdict::Ok
            } else if widest.is_some_and(|s| s > m.bound) || ra.noisy || rb.noisy {
                Verdict::Unresolved
            } else {
                Verdict::Worse
            };
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<18} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>7} {:>8}  {}{}",
                workload.name,
                m.name,
                ma,
                mb,
                mb / ma,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", m.bound * 100.0)
                },
                widest.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                verdict.as_str(),
                if ra.noisy || rb.noisy {
                    " (noisy run)"
                } else {
                    ""
                },
            );
        }
        if same_seeds {
            for m in PER_LAYER.iter().filter(|m| m.clock != Clock::Host) {
                let (Some(va), Some(vb)) = (ra.per_layer.get(m.name), rb.per_layer.get(m.name))
                else {
                    continue;
                };
                if !va.iter().chain(vb).all(|v| *v == va[0]) {
                    clean = false;
                    println!("{:<18} {:<18} {:>14} {:>14}  worse: a simulated count moved between runs of one seed", workload.name, m.name, va[0], vb[0]);
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{float, num, obj, text};

    fn run(workload: &str, seed: u64, host_op: f64, cycles: f64, noisy: bool) -> Json {
        let metric = |v: f64| obj(vec![("value", float(v)), ("unit", text("x"))]);
        obj(vec![
            ("workload", text(workload)),
            ("seed", num(seed)),
            ("noisy", Json::Bool(noisy)),
            (
                "end_to_end",
                obj(vec![
                    ("host_op_s_p50", metric(host_op)),
                    ("sim_cycles_p50", metric(cycles)),
                ]),
            ),
            (
                "per_layer",
                obj(vec![("sim.instructions", metric(cycles / 2.0))]),
            ),
        ])
    }

    fn set(runs: Vec<Json>) -> Json {
        obj(vec![("runs", Json::Arr(runs))])
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), Some([1.25, 3.0, 7.0]));
        assert_eq!(spread(&[1.0, 2.0, 4.0, 8.0]), Some(5.75 / 3.0));
        assert_eq!(spread(&[1.0, 2.0]), None);
    }

    #[test]
    fn verdicts() {
        let a = set(vec![run("stream_vadd", 1, 1.00, 100.0, false)]);
        // Within the 25 % bound.
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 1, 1.10, 100.0, false)])),
            Ok(true)
        );
        // Beyond it.
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 1, 1.40, 100.0, false)])),
            Ok(false)
        );
        // Beyond it, but on a noisy run: unresolved, not a failure.
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 1, 1.40, 100.0, true)])),
            Ok(true)
        );
        // Faster is never worse.
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 1, 0.50, 100.0, false)])),
            Ok(true)
        );
        // A simulated number moved under one seed: always worse.
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 1, 1.00, 101.0, false)])),
            Ok(false)
        );
        // Another seed must not move a closed-loop workload's cycles...
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 2, 1.00, 101.0, false)])),
            Ok(false)
        );
        assert_eq!(
            compare(&a, &set(vec![run("stream_vadd", 2, 1.00, 100.0, false)])),
            Ok(true)
        );
        // ...but served traffic differs with the seed, within the bound.
        let s = set(vec![run("serve_steady", 1, 1.00, 100.0, false)]);
        assert_eq!(
            compare(&s, &set(vec![run("serve_steady", 2, 1.00, 101.0, false)])),
            Ok(true)
        );
        assert_eq!(
            compare(&s, &set(vec![run("serve_steady", 2, 1.00, 150.0, false)])),
            Ok(false)
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let side = |values: [f64; 4]| {
            set(values
                .iter()
                .map(|v| run("stream_vadd", 1, *v, 100.0, false))
                .collect())
        };
        let a = side([1.0, 1.0, 1.0, 1.0]);
        assert_eq!(compare(&a, &side([1.4, 1.4, 1.4, 1.4])), Ok(false));
        assert_eq!(compare(&a, &side([0.9, 1.3, 1.5, 2.2])), Ok(true));
    }
}
