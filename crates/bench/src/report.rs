//! The `BENCH_SIM.json` report schema (`tsp-simspeed-v4`), with a parser so
//! the schema round-trips — CI artifacts from different commits can be
//! compared programmatically, not just diffed as text.
//!
//! v2 over v1 (DESIGN.md §6): each workload carries a `variant` (which
//! telemetry configuration it ran under), the run's reliability counters
//! (`ecc_corrected`, `faults_applied`, `faults_vacant`, `egress_words`) and
//! its aggregated [`Telemetry`] object.
//!
//! v3 over v2 (DESIGN.md §9): the report carries a `history` array — compact
//! per-workload throughput summaries of prior runs, appended by `simspeed`
//! each time it overwrites an existing report.
//!
//! v4 over v3 (DESIGN.md §10): the variant set gains `interpreted` — the
//! same scenario with the pre-decoded op cache bypassed, so each report
//! records the decoded-vs-interpreted dispatch speedup alongside the
//! telemetry variants (which all execute through the decoded path, the
//! default since pre-decoding landed). The document shape is unchanged. The
//! parser reads v4 only: no older artifact exists in the tree.

use tsp_telemetry::json::{escape_free, Fields, Json};
use tsp_telemetry::Telemetry;

/// Schema tag of `BENCH_SIM.json`.
pub const SIMSPEED_SCHEMA: &str = "tsp-simspeed-v4";

/// How many prior runs [`SimspeedReport::push_history`] retains: enough to
/// see a trend across a stack of PRs without growing the artifact forever.
pub const HISTORY_DEPTH: usize = 12;

/// One workload × variant measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSample {
    /// Workload name (e.g. `vector_add_stream`).
    pub name: String,
    /// Simulation mode: `functional` or `timing`.
    pub mode: String,
    /// Variant: `counters` (default), `nocounters` (counters off — the
    /// overhead baseline), `trace` (full tracing) or `interpreted` (the
    /// pre-decoded op cache bypassed — the dispatch-speed baseline; all
    /// other variants execute through the decoded path).
    pub variant: String,
    /// Host repetitions accumulated into this sample.
    pub runs: u32,
    /// Simulated cycles over all runs.
    pub sim_cycles: u64,
    /// Instructions (incl. NOPs) over all runs.
    pub instructions: u64,
    /// Corrected single-bit ECC events over all runs.
    pub ecc_corrected: u64,
    /// Planned faults that struck live state over all runs.
    pub faults_applied: u64,
    /// Planned faults that found vacant state over all runs.
    pub faults_vacant: u64,
    /// Vectors that left on C2C links over all runs.
    pub egress_words: u64,
    /// Wall-clock seconds over all runs.
    pub wall_seconds: f64,
    /// Utilization counters merged over all runs.
    pub telemetry: Telemetry,
}

impl WorkloadSample {
    /// Simulated Mcycles per wall-clock second.
    #[must_use]
    pub fn mcycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds / 1e6
    }

    /// Dispatched instructions per wall-clock second.
    #[must_use]
    pub fn instructions_per_sec(&self) -> f64 {
        self.instructions as f64 / self.wall_seconds
    }

    /// Wall-clock seconds per run (per inference, for a model workload) —
    /// what `simspeed --gate` holds: unlike Mcycles/s it does not fall when a
    /// compiler change removes simulated cycles at constant host work.
    #[must_use]
    pub fn seconds_per_run(&self) -> f64 {
        self.wall_seconds / f64::from(self.runs)
    }

    /// Simulated cycles per run.
    #[must_use]
    pub fn cycles_per_run(&self) -> u64 {
        self.sim_cycles / u64::from(self.runs.max(1))
    }
}

/// A prior run's throughput for one workload × variant — the compact form
/// kept in the `history` array (counters and telemetry are dropped; the
/// trajectory only needs the rates).
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySample {
    /// Workload name.
    pub name: String,
    /// Simulation mode: `functional` or `timing`.
    pub mode: String,
    /// Telemetry configuration the workload ran under.
    pub variant: String,
    /// Simulated Mcycles per wall-clock second, rounded to 3 decimals.
    pub mcycles_per_sec: f64,
    /// Dispatched instructions per wall-clock second, rounded to whole.
    pub instructions_per_sec: f64,
    /// Simulated cycles per run, so the trajectory shows compiler wins (fewer
    /// cycles) apart from simulator wins (more cycles per second); 0 — and
    /// absent from the document — in entries older than the field.
    pub cycles_per_run: u64,
}

/// One prior run: its per-workload summaries, oldest history entry first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryEntry {
    /// Summaries in the prior run's measurement order.
    pub workloads: Vec<HistorySample>,
}

/// A complete simspeed report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimspeedReport {
    /// One entry per workload × variant, in measurement order.
    pub workloads: Vec<WorkloadSample>,
    /// Prior runs' summaries, oldest first.
    pub history: Vec<HistoryEntry>,
}

impl SimspeedReport {
    /// Compacts the current `workloads` into a [`HistoryEntry`] (the form a
    /// later run will carry forward). Rates are rounded exactly as
    /// [`SimspeedReport::to_json`] prints them, so the entry round-trips.
    #[must_use]
    pub fn summarize(&self) -> HistoryEntry {
        HistoryEntry {
            workloads: self
                .workloads
                .iter()
                .map(|s| HistorySample {
                    name: s.name.clone(),
                    mode: s.mode.clone(),
                    variant: s.variant.clone(),
                    mcycles_per_sec: (s.mcycles_per_sec() * 1000.0).round() / 1000.0,
                    instructions_per_sec: s.instructions_per_sec().round(),
                    cycles_per_run: s.cycles_per_run(),
                })
                .collect(),
        }
    }

    /// Appends a prior run's summary, keeping at most [`HISTORY_DEPTH`]
    /// entries (oldest dropped first).
    pub fn push_history(&mut self, entry: HistoryEntry) {
        self.history.push(entry);
        if self.history.len() > HISTORY_DEPTH {
            let excess = self.history.len() - HISTORY_DEPTH;
            self.history.drain(..excess);
        }
    }

    /// Looks up the sample for a workload × mode × variant triple.
    #[must_use]
    pub fn find(&self, name: &str, mode: &str, variant: &str) -> Option<&WorkloadSample> {
        self.workloads
            .iter()
            .find(|s| s.name == name && s.mode == mode && s.variant == variant)
    }

    /// Serializes the report under [`SIMSPEED_SCHEMA`]. Every string is a
    /// known-clean identifier (asserted in debug builds), so no escaping
    /// machinery is needed.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = format!("{{\n  \"schema\": \"{SIMSPEED_SCHEMA}\",\n  \"workloads\": [\n");
        for (i, s) in self.workloads.iter().enumerate() {
            json.push_str(&format!(
                concat!(
                    "    {{\n",
                    "      \"name\": \"{}\",\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"variant\": \"{}\",\n",
                    "      \"runs\": {},\n",
                    "      \"sim_cycles\": {},\n",
                    "      \"instructions\": {},\n",
                    "      \"ecc_corrected\": {},\n",
                    "      \"faults_applied\": {},\n",
                    "      \"faults_vacant\": {},\n",
                    "      \"egress_words\": {},\n",
                    "      \"wall_seconds\": {:.6},\n",
                    "      \"mcycles_per_sec\": {:.3},\n",
                    "      \"instructions_per_sec\": {:.0},\n",
                    "      \"telemetry\": {}\n",
                    "    }}{}\n"
                ),
                escape_free(&s.name),
                escape_free(&s.mode),
                escape_free(&s.variant),
                s.runs,
                s.sim_cycles,
                s.instructions,
                s.ecc_corrected,
                s.faults_applied,
                s.faults_vacant,
                s.egress_words,
                s.wall_seconds,
                s.mcycles_per_sec(),
                s.instructions_per_sec(),
                s.telemetry.to_json(6),
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        json.push_str("  ],\n  \"history\": [\n");
        for (i, entry) in self.history.iter().enumerate() {
            json.push_str("    {\n      \"workloads\": [\n");
            for (j, h) in entry.workloads.iter().enumerate() {
                let cycles = match h.cycles_per_run {
                    0 => String::new(),
                    n => format!(", \"cycles_per_run\": {n}"),
                };
                json.push_str(&format!(
                    concat!(
                        "        {{ \"name\": \"{}\", \"mode\": \"{}\", \"variant\": \"{}\", ",
                        "\"mcycles_per_sec\": {:.3}, \"instructions_per_sec\": {:.0}{} }}{}\n"
                    ),
                    escape_free(&h.name),
                    escape_free(&h.mode),
                    escape_free(&h.variant),
                    h.mcycles_per_sec,
                    h.instructions_per_sec,
                    cycles,
                    if j + 1 < entry.workloads.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            json.push_str(&format!(
                "      ]\n    }}{}\n",
                if i + 1 < self.history.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Parses a `tsp-simspeed-v4` document, inverse of
    /// [`SimspeedReport::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the first missing/malformed field, or a schema-tag
    /// mismatch.
    pub fn from_json(text: &str) -> Result<SimspeedReport, String> {
        let doc = Json::parse(text)?;
        let doc = Fields::root(&doc);
        doc.expect_schema(SIMSPEED_SCHEMA)?;
        let workload = |w: Fields<'_>| {
            Ok(WorkloadSample {
                name: w.str("name")?.to_string(),
                mode: w.str("mode")?.to_string(),
                variant: w.str("variant")?.to_string(),
                runs: w.u32("runs")?,
                sim_cycles: w.u64("sim_cycles")?,
                instructions: w.u64("instructions")?,
                ecc_corrected: w.u64("ecc_corrected")?,
                faults_applied: w.u64("faults_applied")?,
                faults_vacant: w.u64("faults_vacant")?,
                egress_words: w.u64("egress_words")?,
                wall_seconds: w.f64("wall_seconds")?,
                telemetry: Telemetry::from_fields(&w.at("telemetry")?)?,
            })
        };
        let summary = |h: Fields<'_>| {
            Ok(HistorySample {
                name: h.str("name")?.to_string(),
                mode: h.str("mode")?.to_string(),
                variant: h.str("variant")?.to_string(),
                mcycles_per_sec: h.f64("mcycles_per_sec")?,
                instructions_per_sec: h.f64("instructions_per_sec")?,
                cycles_per_run: h.u64("cycles_per_run").unwrap_or(0),
            })
        };
        let entry = |e: Fields<'_>| {
            let workloads = e.array("workloads", "workload", summary)?;
            Ok(HistoryEntry { workloads })
        };
        Ok(SimspeedReport {
            workloads: doc.array("workloads", "workload", workload)?,
            history: doc.array("history", "history", entry)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimspeedReport {
        let mut telemetry = Telemetry::new();
        telemetry.mxm_macc_waves = [4096, 4096, 4096, 4096];
        telemetry.mxm_plane_busy = [4200, 4200, 4200, 4200];
        telemetry.sram_reads = [123, 456];
        telemetry.stream_high_water = 99;
        SimspeedReport {
            workloads: vec![
                WorkloadSample {
                    name: "roofline_point".into(),
                    mode: "timing".into(),
                    variant: "counters".into(),
                    runs: 3,
                    sim_cycles: 12_345,
                    instructions: 678,
                    ecc_corrected: 0,
                    faults_applied: 0,
                    faults_vacant: 0,
                    egress_words: 0,
                    // Exactly representable at 6 decimals, so serialization
                    // round-trips bit-exact.
                    wall_seconds: 1.25,
                    telemetry,
                },
                WorkloadSample {
                    name: "vector_add_stream".into(),
                    mode: "functional".into(),
                    variant: "trace".into(),
                    runs: 1,
                    sim_cycles: 40,
                    instructions: 11,
                    ecc_corrected: 2,
                    faults_applied: 1,
                    faults_vacant: 3,
                    egress_words: 7,
                    wall_seconds: 0.5,
                    telemetry: Telemetry::new(),
                },
            ],
            history: vec![HistoryEntry {
                workloads: vec![HistorySample {
                    name: "roofline_point".into(),
                    mode: "timing".into(),
                    variant: "counters".into(),
                    mcycles_per_sec: 9.876,
                    instructions_per_sec: 542.0,
                    cycles_per_run: 0,
                }],
            }],
        }
    }

    #[test]
    fn v4_round_trips_exactly() {
        let report = sample_report();
        let text = report.to_json();
        let back = SimspeedReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        // Re-serialization is byte-identical: the schema is a fixed point.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn summarize_round_trips_through_serialization() {
        let mut report = sample_report();
        let entry = report.summarize();
        report.push_history(entry);
        let back = SimspeedReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn push_history_caps_depth() {
        let mut report = sample_report();
        for _ in 0..2 * HISTORY_DEPTH {
            report.push_history(report.summarize());
        }
        assert_eq!(report.history.len(), HISTORY_DEPTH);
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let text = sample_report().to_json().replace("-v4", "-v1");
        let err = SimspeedReport::from_json(&text).unwrap_err();
        assert!(err.contains("tsp-simspeed-v4"), "{err}");
    }

    #[test]
    fn missing_counter_field_is_rejected() {
        let text = sample_report()
            .to_json()
            .replace("      \"ecc_corrected\": 0,\n", "");
        assert!(SimspeedReport::from_json(&text)
            .unwrap_err()
            .contains("ecc_corrected"));
    }
}
