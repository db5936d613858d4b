//! Harness-side spans: every call into a crate under test is wrapped in
//! [`Tracer::span`], which always returns the call's wall time and, when the
//! tracer is recording (the traced pass only), also keeps
//! `{name, op_id, parent, start_ns, end_ns}` in memory for the trace file.
//! Spans inside the crates themselves are a later issue.

use std::time::Instant;

use tsp_telemetry::json::Json;

use crate::report::{num, obj, text};

/// One recorded span. Spans of one op share `op_id`; `parent` indexes the
/// span that was open when this one began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when recording, keeps their spans.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Starts the next op: spans recorded from here on carry a fresh id.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Runs `f` as a span named `name` (a child of whichever span is open),
    /// returning its result and its wall time in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        if !self.recording {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.open.last().copied(),
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        self.spans[index].end_ns = self.spans[index].start_ns + elapsed.as_nanos() as u64;
        (out, elapsed.as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document written to `<out>/<workload>.trace.json`.
    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                obj(vec![
                    ("name", text(s.name)),
                    ("op_id", num(s.op_id)),
                    ("parent", s.parent.map_or(Json::Null, num)),
                    ("start_ns", num(s.start_ns)),
                    ("end_ns", num(s.end_ns)),
                    ("self_ns", num(self_ns)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", text("tsp-benchmark-trace-v1")),
            ("workload", text(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of each span: its duration minus its direct children's. The
/// harness is single-threaded, so children never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            op_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 50, 90),
            span(Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn nesting_and_op_ids_are_recorded() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let ((), outer) = tr.span("op", |tr| {
            tr.span("a", |_| std::hint::black_box(1 + 1));
            tr.span("b", |tr| tr.span("c", |_| ()).0);
        });
        tr.next_op();
        tr.span("op", |_| ());
        let s = tr.spans();
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "a", "b", "c", "op"]);
        let parents: Vec<_> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
        assert_eq!(s[3].op_id, 1);
        assert_eq!(s[4].op_id, 2);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(outer >= 0.0);
        // Children never exceed their parent, so self times add back up.
        let selfs = self_times(s);
        assert_eq!(
            selfs[0] + selfs[1] + selfs[2] + selfs[3],
            s[0].end_ns - s[0].start_ns
        );
    }

    #[test]
    fn a_silent_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.span("op", |tr| tr.span("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
