//! Chrome/Perfetto Trace Event Format emission and validation.
//!
//! The exporter writes the legacy JSON trace format (`traceEvents`), which
//! `ui.perfetto.dev` and `chrome://tracing` both load: one *process* per
//! functional slice group, one *thread* (track) per ICU, and `"ph": "X"`
//! complete events for work spans. Timestamps are **simulated cycles** passed
//! through as microsecond ticks — absolute wall time is meaningless for a
//! deterministic simulator; only the relative timeline matters.
//!
//! [`validate`] structurally checks an emitted document (used by the CI
//! smoke gate): non-empty, every span on a declared track, per-track
//! monotonic timestamps.

use crate::json::{escape, Json};

/// Builds a Trace Event Format document deterministically: events appear in
/// exactly the order the builder methods were called.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

impl TraceBuilder {
    /// An empty trace.
    #[must_use]
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Declares (names) a process — one per functional slice group.
    pub fn process(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Declares (names) a thread — one track per ICU.
    pub fn thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Emits one complete (`"ph": "X"`) span: `dur` cycles of `name` work
    /// starting at cycle `ts`, with extra numeric `args` attached.
    pub fn span(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts: u64,
        dur: u64,
        args: &[(&str, u64)],
    ) {
        self.span_with_text(pid, tid, name, ts, dur, args, &[]);
    }

    /// [`TraceBuilder::span`] with additional string-valued args (`text`),
    /// e.g. retry-cause kinds or outcome labels on request spans.
    #[allow(clippy::too_many_arguments)]
    pub fn span_with_text(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts: u64,
        dur: u64,
        args: &[(&str, u64)],
        text: &[(&str, &str)],
    ) {
        let mut extra = String::new();
        for (k, v) in args {
            extra.push_str(&format!(",\"{}\":{v}", escape(k)));
        }
        for (k, v) in text {
            extra.push_str(&format!(",\"{}\":\"{}\"", escape(k), escape(v)));
        }
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\
             \"dur\":{},\"name\":\"{}\",\"args\":{{\"_\":0{extra}}}}}",
            dur.max(1),
            escape(name)
        ));
    }

    /// Serializes the document. One event per line, so traces diff cleanly.
    #[must_use]
    pub fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            out.push_str(if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Structural summary of a validated trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// `"ph": "X"` span events found.
    pub span_events: usize,
    /// Declared track (thread) names, in declaration order.
    pub tracks: Vec<String>,
    /// Declared process names, in declaration order.
    pub processes: Vec<String>,
    /// Largest `ts + dur` over all spans (the timeline's end, in cycles),
    /// saturating at `u64::MAX`.
    pub max_ts: u64,
}

/// Validates a Trace Event Format document (see module docs).
///
/// # Errors
///
/// A message describing the first structural violation: unparseable JSON,
/// missing/empty `traceEvents`, a span on an undeclared track, or a
/// timestamp regression within one track.
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let doc = Json::parse(text).map_err(|e| format!("trace.json does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut tracks = Vec::new();
    let mut processes = Vec::new();
    let mut declared: Vec<(u64, u64)> = Vec::new();
    let mut last_ts: Vec<((u64, u64), u64)> = Vec::new();
    let mut stats = TraceStats {
        span_events: 0,
        tracks: Vec::new(),
        processes: Vec::new(),
        max_ts: 0,
    };
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "M" => {
                let name = e.get("name").and_then(Json::as_str).unwrap_or("");
                let arg = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
                match name {
                    "process_name" => processes.push(arg.to_string()),
                    "thread_name" => {
                        let pid = e.get("pid").and_then(Json::as_u64).unwrap_or(0);
                        let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
                        declared.push((pid, tid));
                        tracks.push(arg.to_string());
                    }
                    other => return Err(format!("event {i}: unknown metadata '{other}'")),
                }
            }
            "X" => {
                let pid = e
                    .get("pid")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: span without pid"))?;
                let tid = e
                    .get("tid")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: span without tid"))?;
                let ts = e
                    .get("ts")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: span without ts"))?;
                let dur = e
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: span without dur"))?;
                if !declared.contains(&(pid, tid)) {
                    return Err(format!("event {i}: span on undeclared track {pid}:{tid}"));
                }
                match last_ts.iter_mut().find(|(k, _)| *k == (pid, tid)) {
                    Some((_, prev)) => {
                        if ts < *prev {
                            return Err(format!(
                                "event {i}: track {pid}:{tid} went backwards ({ts} < {prev})"
                            ));
                        }
                        *prev = ts;
                    }
                    None => last_ts.push(((pid, tid), ts)),
                }
                stats.span_events += 1;
                stats.max_ts = stats.max_ts.max(ts.saturating_add(dur));
            }
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    if stats.span_events == 0 {
        return Err("no span events".into());
    }
    if tracks.is_empty() {
        return Err("no named tracks".into());
    }
    stats.tracks = tracks;
    stats.processes = processes;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> TraceBuilder {
        let mut b = TraceBuilder::new();
        b.process(1, "MEM West");
        b.thread(1, 1, "icu.mem.W0");
        b.span(1, 1, "mem.read", 0, 1, &[("lanes", 320)]);
        b.span(1, 1, "mem.write", 5, 2, &[]);
        b
    }

    #[test]
    fn emitted_trace_validates() {
        let text = small_trace().finish();
        let stats = validate(&text).expect("valid");
        assert_eq!(stats.span_events, 2);
        assert_eq!(stats.tracks, vec!["icu.mem.W0"]);
        assert_eq!(stats.processes, vec!["MEM West"]);
        assert_eq!(stats.max_ts, 7);
    }

    #[test]
    fn span_on_undeclared_track_is_rejected() {
        let mut b = TraceBuilder::new();
        b.thread(1, 1, "icu.mem.W0");
        b.span(2, 9, "mem.read", 0, 1, &[]);
        assert!(validate(&b.finish()).unwrap_err().contains("undeclared"));
    }

    #[test]
    fn timestamp_regression_is_rejected() {
        let mut b = TraceBuilder::new();
        b.thread(1, 1, "icu.mem.W0");
        b.span(1, 1, "a", 10, 1, &[]);
        b.span(1, 1, "b", 3, 1, &[]);
        assert!(validate(&b.finish()).unwrap_err().contains("backwards"));
    }

    #[test]
    fn empty_trace_is_rejected() {
        assert!(validate("{\"traceEvents\":[]}").is_err());
        let mut b = TraceBuilder::new();
        b.thread(1, 1, "t");
        assert!(validate(&b.finish()).unwrap_err().contains("no span"));
    }
}
