//! Serving-layer chaos sweep: offered load × fault rate through
//! `tsp-serve`, the robustness headline of the serving story ("Answer
//! Fast", PAPERS.md).
//!
//! For every sweep point an open-loop Poisson trace is pushed through the
//! server; the report records goodput, shed and deadline-miss rates,
//! latency percentiles (virtual cycles), per-chip utilization from the
//! merged telemetry, and the two *gate* counters:
//!
//! * **SDC** — completions whose logits differ from a fault-free serial
//!   oracle run of the same input (graceful degradation must never mean
//!   wrong answers);
//! * **accounting violations** — inconsistencies found by re-deriving every
//!   completion cycle and deadline verdict from the batch records
//!   (`verify_accounting`).
//!
//! Both must be zero; the bin exits non-zero otherwise, which is the CI
//! smoke gate. Results land in `BENCH_SERVE.json` (schema `tsp-serve-v2`:
//! latency percentiles come from the mergeable log-bucketed
//! [`Histogram`] whose full distribution is persisted per point — see
//! `serve_report` for the exact quantile semantics), bit-identical for a
//! given configuration.
//!
//! Request tracing runs with spans on: the final sweep point's span trees
//! are exported as a Perfetto document (validated in-process — structural
//! breakage fails the bench, not a human squinting at a viewer) and its
//! flight-recorder dump of non-success requests is printed.
//!
//! Usage: `cargo run -p tsp-bench --bin serve_bench
//!         [-- out.json] [--smoke] [--trace trace.json]`

use tsp_arch::ChipConfig;
use tsp_bench::serve_report::{ServeBenchReport, ServeChipRow, ServePoint};
use tsp_nn::batch::{compile_batch_cached, BatchModel};
use tsp_nn::compile::CompileOptions;
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_nn::resilient::{run_resilient, ResilientOptions, RunOutcome};
use tsp_nn::train::small_cnn;
use tsp_serve::{
    open_loop, render_flight, serve, serve_trace_json, verify_accounting, LoadSpec, ServeConfig,
    ServeOutcome,
};
use tsp_sim::faults::ChaosSpec;
use tsp_telemetry::hist::Histogram;
use tsp_telemetry::perfetto;

const POOL: usize = 4;
const MAX_BATCH: usize = 4;
const INPUTS: usize = 8;

/// One chaos column of the sweep.
#[derive(Clone, Copy)]
struct ChaosColumn {
    name: &'static str,
    strike_per_mille: u32,
    persistent_per_mille: u32,
}

const CHAOS_COLUMNS: [ChaosColumn; 3] = [
    ChaosColumn {
        name: "nofault",
        strike_per_mille: 0,
        persistent_per_mille: 0,
    },
    ChaosColumn {
        name: "chaos-transient",
        strike_per_mille: 500,
        persistent_per_mille: 0,
    },
    ChaosColumn {
        name: "chaos-persistent",
        strike_per_mille: 1000,
        persistent_per_mille: 1000,
    },
];

fn workload() -> (BatchModel, Vec<Vec<i8>>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile_batch_cached(&q, &CompileOptions::default(), MAX_BATCH);
    let images = data.images[..INPUTS]
        .iter()
        .map(|i| q.quantize_image(i))
        .collect();
    (model, images)
}

fn main() {
    let mut out_path = String::from("BENCH_SERVE.json");
    let mut trace_path = String::from("serve_trace.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace" => {
                trace_path = args.next().unwrap_or_else(|| {
                    eprintln!("error: --trace needs a path");
                    std::process::exit(2);
                });
            }
            _ => out_path = arg,
        }
    }

    let (model, inputs) = workload();

    // Fault-free serial oracle: golden logits per input, and the service
    // cycles that size the sweep's deadlines and load points.
    let mut golden: Vec<Vec<i8>> = Vec::with_capacity(inputs.len());
    let mut service = 0u64;
    for image in &inputs {
        let report = run_resilient(
            &model.model,
            &ChipConfig::asic(),
            image,
            &ResilientOptions::default(),
        )
        .expect("oracle run");
        let RunOutcome::Completed { logits, cycles } = &report.outcome else {
            panic!("oracle must complete")
        };
        golden.push(logits.clone());
        service = service.max(*cycles);
    }
    let emplace = model.emplace_cycles();
    // Pool capacity: each batch serves MAX_BATCH requests in
    // emplace + MAX_BATCH·service cycles, across POOL chips.
    let capacity_gap = (emplace + MAX_BATCH as u64 * service) as f64 / (POOL * MAX_BATCH) as f64;
    let deadline = 8 * (emplace + MAX_BATCH as u64 * service);

    let loads: &[(&str, f64)] = if smoke {
        &[("atcapacity", 1.0), ("underload", 2.0)]
    } else {
        &[("overload", 0.5), ("atcapacity", 1.0), ("underload", 2.0)]
    };
    let columns: &[ChaosColumn] = if smoke {
        &[CHAOS_COLUMNS[0], CHAOS_COLUMNS[2]]
    } else {
        &CHAOS_COLUMNS
    };
    let requests_per_point = if smoke { 48 } else { 160 };

    println!(
        "# serving sweep: pool {POOL} × batch {MAX_BATCH}, emplace {emplace}, \
         service {service}, capacity gap {capacity_gap:.0} cycles, deadline {deadline}"
    );
    println!(
        "{:<28} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8}  quarantined",
        "point", "good%", "shed%", "fail", "miss", "sdc", "p50", "p99", "p999"
    );

    let mut report = ServeBenchReport::default();
    let mut trace_doc = String::new();
    let mut flight_dump = String::new();
    for (li, (load_name, factor)) in loads.iter().enumerate() {
        for (ci, column) in columns.iter().enumerate() {
            let mean_interarrival = capacity_gap * factor;
            let spec = LoadSpec {
                seed: 0x5EED_0000 + (li as u64) * 16 + ci as u64,
                requests: requests_per_point,
                mean_interarrival,
                deadline,
                inputs: inputs.len(),
            };
            let trace = open_loop(&spec);
            let config = ServeConfig {
                pool: POOL,
                queue_depth: 32,
                spans: true,
                chaos: (column.strike_per_mille > 0).then(|| ChaosSpec {
                    chips: vec![0],
                    strike_per_mille: column.strike_per_mille,
                    persistent_per_mille: column.persistent_per_mille,
                    targeted_double: true,
                    ..ChaosSpec::off(0xCAFE + ci as u64)
                }),
                ..ServeConfig::default()
            };
            let result = serve(&model, &config, &inputs, &trace).expect("serve runs");

            let sdc = result
                .responses
                .iter()
                .filter(|r| match &r.outcome {
                    ServeOutcome::Completed { logits, .. } => logits != &golden[r.input],
                    _ => false,
                })
                .count() as u64;
            let accounting_violations = match verify_accounting(&trace, &result, &model, &config) {
                Ok(()) => 0,
                Err(violations) => {
                    for v in &violations {
                        eprintln!("accounting violation: {v}");
                    }
                    violations.len() as u64
                }
            };
            let mut latency = Histogram::new();
            for l in result.latencies() {
                latency.record(l);
            }
            let label = format!("{load_name}/{}", column.name);
            let quarantined: Vec<usize> = result
                .chips
                .iter()
                .enumerate()
                .filter(|(_, c)| c.quarantined_at.is_some())
                .map(|(i, _)| i)
                .collect();
            let point = ServePoint {
                label: label.clone(),
                mean_interarrival,
                strike_per_mille: u64::from(column.strike_per_mille),
                persistent_per_mille: u64::from(column.persistent_per_mille),
                requests: trace.len() as u64,
                completed: result.completed() as u64,
                good: result.good() as u64,
                shed_queue_full: result.shed_queue_full() as u64,
                shed_expired: result.shed_expired() as u64,
                failed: result.failed() as u64,
                deadline_missed: result.deadline_missed() as u64,
                sdc,
                accounting_violations,
                horizon: result.horizon,
                p50: latency.quantile(0.50),
                p99: latency.quantile(0.99),
                p999: latency.quantile(0.999),
                latency,
                chips: result
                    .chips
                    .iter()
                    .enumerate()
                    .map(|(i, c)| ServeChipRow {
                        chip: i as u64,
                        batches: c.batches,
                        requests: c.requests,
                        busy_cycles: c.busy_cycles,
                        utilization: if result.horizon == 0 {
                            0.0
                        } else {
                            c.busy_cycles as f64 / result.horizon as f64
                        },
                        mxm_waves: c.telemetry.mxm_macc_waves.iter().sum(),
                        quarantined_at: c.quarantined_at,
                    })
                    .collect(),
            };
            println!(
                "{:<28} {:>5.1} {:>5.1} {:>6} {:>6} {:>6} {:>8} {:>8} {:>8}  {:?}",
                label,
                100.0 * point.good_fraction(),
                100.0 * (point.shed_queue_full + point.shed_expired) as f64 / point.requests as f64,
                point.failed,
                point.deadline_missed,
                point.sdc,
                point.p50,
                point.p99,
                point.p999,
                quarantined,
            );
            report.points.push(point);
            // Last point wins: the sweep ends on the heaviest chaos column,
            // which is the trace worth looking at.
            trace_doc = serve_trace_json(&result);
            flight_dump = render_flight(&result.flight);
        }
    }

    if let Err(e) = std::fs::write(&out_path, report.to_json().pretty(0) + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    // Request-trace export of the final sweep point, structurally validated
    // in-process so a broken document fails the bench rather than a viewer.
    match perfetto::validate(&trace_doc) {
        Ok(stats) => println!(
            "wrote {trace_path}: {} spans on {} tracks, horizon {}",
            stats.span_events,
            stats.tracks.len(),
            stats.max_ts
        ),
        Err(e) => {
            eprintln!("invalid serve trace: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::write(&trace_path, &trace_doc) {
        eprintln!("error: cannot write {trace_path}: {e}");
        std::process::exit(1);
    }
    print!("{flight_dump}");

    // Degradation shape: under chaos at non-overload, goodput should track
    // the healthy chips' share, not collapse.
    for point in &report.points {
        if point.label.starts_with("underload/chaos") {
            let floor = (POOL - 1) as f64 / POOL as f64 * 0.5;
            if point.good_fraction() < floor {
                eprintln!(
                    "degradation collapse: {} goodput {:.2} below floor {floor:.2}",
                    point.label,
                    point.good_fraction()
                );
                std::process::exit(1);
            }
        }
    }

    let sdc = report.sdc_count();
    let violations = report.violation_count();
    if sdc == 0 && violations == 0 {
        println!(
            "PASS: zero SDC, zero accounting violations across {} points",
            report.points.len()
        );
    } else {
        eprintln!("FAIL: sdc={sdc}, accounting_violations={violations}");
        std::process::exit(1);
    }
}
