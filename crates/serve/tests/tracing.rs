//! Request tracing & flight recorder: spans are **observation, not
//! simulation** — every simulated number is identical with tracing on or
//! off, the exported trace is byte-deterministic (including under host-
//! thread fan-out), the flight recorder retains exactly the non-success
//! requests within its bound, and every span tree's timeline re-derives
//! from the same accounting `verify_accounting` checks.

use tsp_nn::batch::{compile_batch_cached, BatchModel};
use tsp_nn::compile::CompileOptions;
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_nn::train::small_cnn;
use tsp_serve::{
    open_loop, render_flight, serve, serve_trace_json, LoadSpec, ServeConfig, ServeOutcome,
    TraceOutcome,
};
use tsp_sim::faults::ChaosSpec;
use tsp_telemetry::perfetto;

fn workload(max_batch: usize) -> (BatchModel, Vec<Vec<i8>>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile_batch_cached(&q, &CompileOptions::default(), max_batch);
    let images = data.images.iter().map(|i| q.quantize_image(i)).collect();
    (model, images)
}

/// A chaos-heavy scenario that produces completions, retries, failures and
/// sheds: the full outcome vocabulary for the tracer to label.
fn chaos_config(spans: bool) -> ServeConfig {
    ServeConfig {
        pool: 2,
        queue_depth: 4,
        spans,
        chaos: Some(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            persistent_per_mille: 1000,
            targeted_double: true,
            ..ChaosSpec::off(0xBEEF)
        }),
        ..ServeConfig::default()
    }
}

fn load(inputs: usize) -> LoadSpec {
    LoadSpec {
        seed: 0x7ACE,
        requests: 24,
        mean_interarrival: 400.0,
        deadline: 200_000,
        inputs,
    }
}

/// Tracing on vs off simulates the same machine: responses, batches,
/// per-chip stats and horizon are all identical.
#[test]
fn spans_on_vs_off_leaves_every_simulated_number_identical() {
    let (model, inputs) = workload(3);
    let requests = open_loop(&load(inputs.len()));
    let off = serve(&model, &chaos_config(false), &inputs, &requests).expect("serves");
    let on = serve(&model, &chaos_config(true), &inputs, &requests).expect("serves");

    assert_eq!(on.responses, off.responses);
    assert_eq!(on.batches, off.batches);
    assert_eq!(on.chips, off.chips);
    assert_eq!(on.horizon, off.horizon);
    assert!(off.traces.is_empty(), "spans off: no trees built");
    assert!(off.flight.is_empty());
    assert_eq!(
        on.traces.len(),
        requests.len(),
        "spans on: one trace per request"
    );
}

/// Trace outcomes agree with response outcomes, span timelines agree with
/// the accounting, and the flight recorder retains exactly the non-success
/// subset (within its bound).
#[test]
fn traces_mirror_outcomes_and_flight_retains_non_success() {
    let (model, inputs) = workload(3);
    let requests = open_loop(&load(inputs.len()));
    let result = serve(&model, &chaos_config(true), &inputs, &requests).expect("serves");

    let mut non_success = 0u64;
    for (trace, response) in result.traces.iter().zip(&result.responses) {
        assert_eq!(trace.id, response.id, "sorted and aligned");
        let expected = match &response.outcome {
            ServeOutcome::Completed { deadline_met, .. } => {
                if *deadline_met {
                    TraceOutcome::Complete
                } else {
                    TraceOutcome::DeadlineMiss
                }
            }
            ServeOutcome::Failed { .. } => TraceOutcome::Failed,
            ServeOutcome::Shed(_) => {
                assert!(matches!(
                    trace.outcome,
                    TraceOutcome::ShedQueueFull | TraceOutcome::ShedExpired
                ));
                trace.outcome
            }
        };
        assert_eq!(trace.outcome, expected);
        if !trace.outcome.is_success() {
            non_success += 1;
        }
        // The root span covers arrival → terminal cycle of the accounting.
        assert_eq!(trace.root.start, response.arrival);
        match &response.outcome {
            ServeOutcome::Completed { completed, .. } | ServeOutcome::Failed { completed, .. } => {
                assert_eq!(trace.root.end, *completed, "request {}", trace.id);
            }
            ServeOutcome::Shed(_) => assert!(trace.root.end >= trace.root.start),
        }
    }
    assert!(non_success > 0, "chaos scenario must exercise failures");
    let retained = result.flight.len() as u64 + result.flight.dropped();
    assert_eq!(retained, non_success, "flight saw every non-success");
    assert!(result.flight.len() <= result.flight.capacity());
    assert!(result
        .flight
        .records()
        .iter()
        .all(|t| !t.outcome.is_success()));
    let dump = render_flight(&result.flight);
    assert!(dump.starts_with("flight recorder:"));
}

/// The exported Perfetto document validates and is byte-identical across
/// repeated runs — including when worker counts differ, because spans are
/// built from virtual-cycle accounting merged in wave order, never from
/// host-thread timing.
#[test]
fn trace_export_is_byte_deterministic_and_valid() {
    let (model, inputs) = workload(3);
    let requests = open_loop(&load(inputs.len()));
    let render = || {
        let result = serve(&model, &chaos_config(true), &inputs, &requests).expect("serves");
        serve_trace_json(&result)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "same scenario, same bytes");
    let stats = perfetto::validate(&a).expect("structurally valid");
    assert!(stats.span_events > requests.len(), "trees, not just roots");
    assert!(stats.processes.contains(&"requests".to_string()));
    assert!(stats.processes.contains(&"chips".to_string()));
    assert!(stats.processes.contains(&"server".to_string()));

    // A serial pool (1 chip => 1-wide waves) exercises the fan-out
    // boundary differently; its own double-run must also be stable.
    let serial_config = ServeConfig {
        pool: 1,
        ..chaos_config(true)
    };
    let serial = serve(&model, &serial_config, &inputs, &requests).expect("serves");
    let serial2 = serve(&model, &serial_config, &inputs, &requests).expect("serves");
    assert_eq!(serve_trace_json(&serial), serve_trace_json(&serial2));
}

/// Spans-off export still validates (server sentinel only) so downstream
/// tooling never special-cases the empty trace.
#[test]
fn spans_off_export_still_validates() {
    let (model, inputs) = workload(2);
    let requests = open_loop(&LoadSpec {
        requests: 4,
        ..load(inputs.len())
    });
    let result = serve(&model, &chaos_config(false), &inputs, &requests).expect("serves");
    let stats = perfetto::validate(&serve_trace_json(&result)).expect("valid");
    assert!(stats.span_events >= 1, "sentinel span present");
}

/// Every attempt/backoff/re-emplace child in a batch span tiles the parent
/// interval exactly — the tracer's timeline is the accounting, re-derived.
#[test]
fn span_children_tile_their_parents_exactly() {
    let (model, inputs) = workload(3);
    let requests = open_loop(&load(inputs.len()));
    let result = serve(&model, &chaos_config(true), &inputs, &requests).expect("serves");
    for trace in &result.traces {
        let root = &trace.root;
        for child in &root.children {
            assert!(child.start >= root.start && child.end <= root.end);
        }
        // Batch span children are contiguous: each child starts where the
        // previous ended (the queue child ends where the batch starts).
        if let Some(batch) = root.children.iter().find(|c| c.name == "batch") {
            let mut at = batch.start;
            for child in &batch.children {
                assert_eq!(child.start, at, "request {} gap", trace.id);
                at = child.end;
            }
            assert_eq!(at, batch.end, "request {} tail", trace.id);
        }
    }
}
