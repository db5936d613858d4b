//! Serving-trace export: Perfetto JSON and the flight-recorder dump.
//!
//! [`serve_trace_json`] renders a [`ServeResult`] produced with
//! [`ServeConfig::spans`](crate::ServeConfig) on into the Chrome/Perfetto
//! Trace Event Format, on three process groups:
//!
//! * **pid 20 `requests`** — one track per traced request, carrying its
//!   full lifecycle span tree (`request → queue → batch → attempt/backoff/
//!   re-emplace…`) with fault causes as span args;
//! * **pid 21 `chips`** — one track per pool chip, one span per dispatched
//!   batch (ordinal, request count, chaos kind);
//! * **pid 22 `server`** — a single timeline-spanning sentinel so the
//!   document validates even for runs with zero traced requests.
//!
//! Everything is on the virtual cycle clock; the same run produces
//! byte-identical documents regardless of host threading (pinned by
//! `crates/serve/tests/tracing.rs`).

use tsp_telemetry::perfetto::TraceBuilder;

use crate::flight::{FlightRecorder, RequestTrace, SpanArg, SpanNode};
use crate::server::ServeResult;

/// Perfetto process id for request lifecycle tracks.
pub const REQUESTS_PID: u32 = 20;
/// Perfetto process id for per-chip batch tracks.
pub const CHIPS_PID: u32 = 21;
/// Perfetto process id for the server timeline sentinel.
pub const SERVER_PID: u32 = 22;

/// Renders a serve run's traces as a Perfetto Trace Event Format document.
///
/// Deterministic: traces are emitted in request-id order and batches in
/// per-chip dispatch order, so the same [`ServeResult`] always yields the
/// same bytes. With [`ServeConfig::spans`](crate::ServeConfig) off the
/// document still validates (server sentinel only).
#[must_use]
pub fn serve_trace_json(result: &ServeResult) -> String {
    let mut b = TraceBuilder::new();

    b.process(SERVER_PID, "server");
    b.thread(SERVER_PID, 1, "timeline");
    b.span(
        SERVER_PID,
        1,
        "serve",
        0,
        result.horizon,
        &[
            ("responses", result.responses.len() as u64),
            ("batches", result.batches.len() as u64),
            ("chips", result.chips.len() as u64),
        ],
    );

    b.process(CHIPS_PID, "chips");
    for chip in 0..result.chips.len() {
        let tid = chip as u32 + 1;
        b.thread(CHIPS_PID, tid, &format!("chip {chip}"));
        // Batch records interleave chips in wave order; per chip they are
        // already in dispatch order, which keeps the track monotonic.
        for batch in result.batches.iter().filter(|r| r.chip == chip) {
            b.span_with_text(
                CHIPS_PID,
                tid,
                &format!("batch {}", batch.ordinal),
                batch.dispatched,
                batch.finished - batch.dispatched,
                &[("requests", batch.served.len() as u64)],
                &[("chaos", batch.chaos)],
            );
        }
    }

    b.process(REQUESTS_PID, "requests");
    for (i, t) in result.traces.iter().enumerate() {
        let tid = i as u32 + 1;
        b.thread(REQUESTS_PID, tid, &format!("request {}", t.id));
        t.root.emit(&mut b, REQUESTS_PID, tid);
    }

    b.finish()
}

/// Renders the flight recorder as an indented plain-text dump — the
/// "what just went wrong" view printed by `tsp-prof serve`.
#[must_use]
pub fn render_flight(flight: &FlightRecorder) -> String {
    let mut out = format!(
        "flight recorder: {} retained (capacity {}, dropped {})\n",
        flight.len(),
        flight.capacity(),
        flight.dropped()
    );
    for t in flight.records() {
        render_record(t, &mut out);
    }
    out
}

fn render_record(t: &RequestTrace, out: &mut String) {
    out.push_str(&format!("- request {} [{}]\n", t.id, t.outcome.name()));
    render_node(&t.root, 1, out);
}

fn render_node(n: &SpanNode, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!("{} {}..{}", n.name, n.start, n.end));
    for (k, v) in &n.args {
        match v {
            SpanArg::U64(x) => out.push_str(&format!(" {k}={x}")),
            SpanArg::Str(s) => out.push_str(&format!(" {k}={s:?}")),
        }
    }
    out.push('\n');
    for c in &n.children {
        render_node(c, depth + 1, out);
    }
}
