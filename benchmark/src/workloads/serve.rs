//! `serve_steady` and `serve_chaos`: `tsp_serve::serve` of a small CNN over
//! a pool of 4 chips × batch 4, open-loop on the virtual clock.
//!
//! Steady runs three fault-free phases at fixed Poisson rates. Chaos replays
//! the lowest rate twice: `transient` strikes half of chip 0's dispatches
//! with the breaker held open, so every strike is paid for in retry, backoff
//! and re-emplace; `persistent` gives chip 0 a permanent fault and lets the
//! breaker quarantine it (at that rate the three chips left still keep up;
//! at the middle rate they would not). Same layer, used two ways: steady is
//! admission, batching and per-dispatch emplace; chaos is the retry path and
//! the circuit breaker.
//!
//! The rates and the deadline are **frozen in cycles**, not derived from the
//! model's measured service time: a faster model must face the same traffic,
//! or a speed-up would hide in a proportionally faster arrival trace.

use std::sync::Arc;

use tsp_faults::{ChaosPlanner, ChaosSpec, ChaosStrike};
use tsp_nn::batch::BatchModel;
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_nn::train::small_cnn;
use tsp_serve::{
    open_loop, serve, serve_trace_json, verify_accounting, HealthConfig, LoadSpec, Request,
    ServeConfig, ServeOutcome, ServeResult,
};
use tsp_sim::chip::RunOptions;

use super::model::{infer, program_shape, set_up, CallTimes, Ready, SetupTimes};
use super::{host_end_to_end, repeat_setup, Budget, Paced, Plan};
use crate::host;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{image, median_of, percentile, SplitMix64};

const POOL: usize = 4;
const MAX_BATCH: usize = 4;
const QUEUE_DEPTH: usize = 32;
const INPUTS: usize = 8;
/// Input side and channels of the served CNN.
const INPUT_HW: u32 = 12;
const INPUT_C: u32 = 2;

/// Per-request deadline, cycles from arrival. Frozen.
const DEADLINE_CYCLES: u64 = 110_000;
/// Mean Poisson inter-arrival gaps, cycles: 60 %, 90 % and 120 % of the
/// pool's capacity gap (862 cycles per request) when this was written.
/// Frozen: see the module docs.
const GAP_LOAD60: f64 = 1437.0;
const GAP_LOAD90: f64 = 958.0;
const GAP_LOAD120: f64 = 718.0;

/// A phase meets its load when at least this share of requests sent
/// complete within the deadline and none is shed for a full queue.
const LOAD_OK_GOOD_PER_MILLE: u64 = 990;

/// Requests a run sends per second of `--seconds`, all phases together. The
/// request count, and with it every simulated metric, is a function of the
/// seed and `--seconds` only — never of how fast this host happens to be.
const REQUESTS_PER_BUDGET_SECOND: f64 = 250.0;
const SMOKE_REQUESTS: usize = 40;

/// One phase of a serve workload.
struct Phase {
    name: &'static str,
    /// Share of the run's requests this phase sends.
    share: f64,
    mean_gap: f64,
    /// `(strike ‰, persistent ‰)` on chip 0, if the phase injects faults.
    chaos: Option<(u32, u32)>,
    /// Leave the circuit breaker at its defaults. `false` makes it
    /// untrippable, so that a struck chip stays in service and every strike
    /// costs a retry: at the defaults one struck batch quarantines the chip,
    /// and the "transient" phase would be three healthy chips from its first
    /// dozen requests on (with the handful of retried requests sitting right
    /// at the p99 cliff, in or out of it by the seed).
    breaker: bool,
    /// `[wall_s, good, p99_cycles]` metric names.
    metrics: [&'static str; 3],
    /// A phase whose latencies are pooled into the workload's end-to-end
    /// `sim_cycles_p50` / `sim_cycles_p99`. It is the 60 % rate, where
    /// latency is service plus batching wait and repeats from one arrival
    /// trace to the next within a few percent; at 90 % the queue sits near
    /// saturation and the p99 of 1000 requests moves by 20 % with the trace.
    /// Such phases send at least 1000 requests at the default budget, so
    /// that the p99 has ten samples beyond it.
    latency: bool,
    /// Offered load as a percentage of capacity, for `serve.max_load_ok_pct`.
    load_pct: u64,
}

const STEADY: [Phase; 3] = [
    Phase {
        name: "load60",
        share: 0.5,
        mean_gap: GAP_LOAD60,
        chaos: None,
        breaker: true,
        metrics: [
            "serve.load60.wall_s",
            "serve.load60.good",
            "serve.load60.p99_cycles",
        ],
        latency: true,
        load_pct: 60,
    },
    Phase {
        name: "load90",
        share: 0.25,
        mean_gap: GAP_LOAD90,
        chaos: None,
        breaker: true,
        metrics: [
            "serve.load90.wall_s",
            "serve.load90.good",
            "serve.load90.p99_cycles",
        ],
        latency: false,
        load_pct: 90,
    },
    Phase {
        name: "load120",
        share: 0.25,
        mean_gap: GAP_LOAD120,
        chaos: None,
        breaker: true,
        metrics: [
            "serve.load120.wall_s",
            "serve.load120.good",
            "serve.load120.p99_cycles",
        ],
        latency: false,
        load_pct: 120,
    },
];

const CHAOS: [Phase; 2] = [
    Phase {
        name: "transient",
        share: 0.6,
        mean_gap: GAP_LOAD60,
        chaos: Some((500, 0)),
        breaker: false,
        metrics: [
            "serve.transient.wall_s",
            "serve.transient.good",
            "serve.transient.p99_cycles",
        ],
        latency: true,
        load_pct: 60,
    },
    Phase {
        name: "persistent",
        share: 0.4,
        mean_gap: GAP_LOAD60,
        chaos: Some((1000, 1000)),
        breaker: true,
        metrics: [
            "serve.persistent.wall_s",
            "serve.persistent.good",
            "serve.persistent.p99_cycles",
        ],
        latency: true,
        load_pct: 60,
    },
];

/// The served model, its inputs and their golden answers.
struct Service {
    ready: Ready,
    batch: BatchModel,
    images_q: Vec<Vec<i8>>,
    /// `run_int8` logits per input: the fault-free golden answers.
    golden: Vec<Vec<i8>>,
}

impl Service {
    /// Quantizes the inputs; the golden answers are the oracle's work and
    /// are filled in after set-up.
    fn new(ready: Ready, images: &[Vec<f32>]) -> Service {
        let images_q = images.iter().map(|i| ready.q.quantize_image(i)).collect();
        Service {
            batch: BatchModel {
                model: Arc::clone(&ready.model),
                max_batch: MAX_BATCH,
            },
            ready,
            images_q,
            golden: Vec::new(),
        }
    }

    /// Do `logits` (padded to a vector) carry input `input`'s golden answer?
    fn is_golden(&self, input: usize, logits: &[i8]) -> bool {
        let want = &self.golden[input];
        logits.get(..want.len()) == Some(want.as_slice())
    }
}

/// What one phase was given and what came back.
struct PhaseRun {
    trace: Vec<Request>,
    result: ServeResult,
    wall_s: f64,
    open_loop_s: f64,
    verify_s: f64,
}

fn chaos_spec(seed: u64, (strike, persistent): (u32, u32)) -> ChaosSpec {
    ChaosSpec {
        chips: vec![0],
        strike_per_mille: strike,
        persistent_per_mille: persistent,
        targeted_double: true,
        ..ChaosSpec::off(seed)
    }
}

fn load_spec(phase: &Phase, requests: usize, seed: u64) -> LoadSpec {
    LoadSpec {
        seed,
        requests,
        mean_interarrival: phase.mean_gap,
        deadline: DEADLINE_CYCLES,
        inputs: INPUTS,
    }
}

fn serve_config(phase: &Phase, chaos_seed: u64, spans: bool) -> ServeConfig {
    let default_trip = HealthConfig::default().trip_score;
    ServeConfig {
        pool: POOL,
        queue_depth: QUEUE_DEPTH,
        spans,
        chaos: phase.chaos.map(|c| chaos_spec(chaos_seed, c)),
        health: HealthConfig {
            trip_score: if phase.breaker {
                default_trip
            } else {
                u32::MAX
            },
            ..HealthConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Generates the phase's arrivals, serves them, and checks the result:
/// zero SDC against the golden logits, `verify_accounting` clean, and no
/// `Failed` outcome unless the phase injects faults.
fn run_phase(
    tr: &mut Tracer,
    out: &mut Outcome,
    service: &Service,
    phase: &Phase,
    requests: usize,
    (trace_seed, chaos_seed): (u64, u64),
    spans: bool,
) -> Option<PhaseRun> {
    tr.next_op();
    let (run, _) = tr.span("serve", |tr| {
        let spec = load_spec(phase, requests, trace_seed);
        let (trace, open_loop_s) = tr.span("serve.open_loop", |_| open_loop(&spec));
        let config = serve_config(phase, chaos_seed, spans);
        let (result, wall_s) = tr.span("serve.serve", |_| {
            serve(&service.batch, &config, &service.images_q, &trace)
        });
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("phase {}: serve: {e}", phase.name));
                return None;
            }
        };
        let (verdict, verify_s) = tr.span("serve.verify_accounting", |_| {
            verify_accounting(&trace, &result, &service.batch, &config)
        });
        if let Err(violations) = verdict {
            for v in violations {
                out.fail(format!("phase {}: accounting: {v}", phase.name));
            }
        }
        if spans {
            let (doc, _) = tr.span("serve.trace_json", |_| serve_trace_json(&result));
            out.check(tsp_telemetry::perfetto::validate(&doc).is_ok(), || {
                format!("phase {}: serve trace does not validate", phase.name)
            });
        }
        Some(PhaseRun {
            trace,
            result,
            wall_s,
            open_loop_s,
            verify_s,
        })
    });
    let run = run?;
    for r in &run.result.responses {
        match &r.outcome {
            ServeOutcome::Completed { logits, .. } => {
                out.check(service.is_golden(r.input, logits), || {
                    format!(
                        "phase {}: request {}: silent data corruption",
                        phase.name, r.id
                    )
                })
            }
            // Exhausting the retry budget is the designed answer to an
            // injected permanent fault; anywhere else it is a failure.
            ServeOutcome::Failed { error, .. } => out.check(phase.chaos.is_some(), || {
                format!(
                    "phase {}: request {} failed fault-free: {error}",
                    phase.name, r.id
                )
            }),
            ServeOutcome::Shed(_) => {}
        }
    }
    Some(run)
}

pub fn run(workload: &'static str, plan: &Plan, chaos: bool) -> Outcome {
    let phases: &[Phase] = if chaos { &CHAOS } else { &STEADY };
    let mut out = Outcome::new(workload, plan.seed, plan.seconds());
    let mut rng = SplitMix64::new(plan.seed);
    let images: Vec<Vec<f32>> = (0..INPUTS)
        .map(|_| image(&mut rng, INPUT_HW, INPUT_HW, INPUT_C))
        .collect();
    let phase_seeds: Vec<(u64, u64)> = phases
        .iter()
        .map(|_| (rng.next_u64(), rng.next_u64()))
        .collect();

    let mut silent = Tracer::new(false);
    let mut stages = SetupTimes::default();
    let warm_seed = rng.next_u64();
    // A set-up ends when a first short fault-free burst has been served.
    let (mut service, setups) = repeat_setup(plan, || {
        let build = || small_cnn(INPUT_HW, 16, 4, 5);
        let ready = set_up(&mut silent, &mut stages, build, &images[..2]);
        let service = Service::new(ready, &images);
        for _ in 0..plan.size(1, 0) {
            let _ = serve(
                &service.batch,
                &serve_config(&STEADY[0], 0, false),
                &service.images_q,
                &open_loop(&load_spec(&STEADY[0], SMOKE_REQUESTS, warm_seed)),
            );
        }
        service
    });
    let mut reference_s = Vec::new();
    service.golden = service
        .images_q
        .iter()
        .map(|image_q| {
            let (values, s) =
                silent.span("nn.reference_int8", |_| run_int8(&service.ready.q, image_q));
            reference_s.push(s);
            final_flat_q(&values).to_vec()
        })
        .collect();
    out.per_layer
        .insert("nn.reference_int8_s", median_of(&reference_s));

    let requests_of = |phase: &Phase| match plan.budget {
        Budget::Seconds(s) => {
            ((s * REQUESTS_PER_BUDGET_SECOND * phase.share).round() as usize).max(SMOKE_REQUESTS)
        }
        Budget::Smoke => SMOKE_REQUESTS,
    };

    // ---- Timed pass: every phase once, spans off. An item is a phase; its
    // time is wall inside `serve()` per request sent.
    let mut paced = Paced::new();
    let guard = host::NoiseGuard::start();
    let mut runs: Vec<PhaseRun> = Vec::new();
    for (phase, seeds) in phases.iter().zip(&phase_seeds) {
        let run = paced.item(|| {
            let run = run_phase(
                &mut silent,
                &mut out,
                &service,
                phase,
                requests_of(phase),
                *seeds,
                false,
            );
            let per_request = run
                .as_ref()
                .map_or(0.0, |r| r.wall_s / r.trace.len() as f64);
            (run, per_request)
        });
        let Some(run) = run else { return out };
        runs.push(run);
    }
    guard.finish(&mut out);
    let per_request = paced.finish();

    let sent: usize = runs.iter().map(|r| r.trace.len()).sum();
    let good: usize = runs.iter().map(|r| r.result.good()).sum();
    out.attempted = sent as u64;
    let mut latencies: Vec<u64> = phases
        .iter()
        .zip(&runs)
        .filter(|(p, _)| p.latency)
        .flat_map(|(_, r)| r.result.latencies())
        .collect();
    latencies.sort_unstable();
    if latencies.is_empty() {
        out.fail("the latency phases completed no request".to_string());
        return out;
    }
    host_end_to_end(&mut out, &setups, &per_request);
    stages.record(&mut out);
    let op = median_of(&per_request.raw);
    let e = &mut out.end_to_end;
    e.insert("sim_cycles_p50", percentile(&latencies, 500) as f64);
    e.insert("sim_cycles_p99", percentile(&latencies, 990) as f64);
    e.insert("goodput_fraction", good as f64 / sent as f64);

    let max_load_ok = phases
        .iter()
        .zip(&runs)
        .filter(|(_, r)| {
            r.result.good() as u64 * 1000 >= LOAD_OK_GOOD_PER_MILLE * r.trace.len() as u64
                && r.result.shed_queue_full() == 0
        })
        .map(|(p, _)| p.load_pct)
        .max()
        .unwrap_or(0);
    let p = &mut out.per_layer;
    for (phase, run) in phases.iter().zip(&runs) {
        let [wall, good, p99] = phase.metrics;
        p.insert(wall, run.wall_s);
        p.insert(good, run.result.good() as f64);
        let l = run.result.latencies();
        p.insert(
            p99,
            if l.is_empty() {
                0.0
            } else {
                percentile(&l, 990) as f64
            },
        );
    }
    let sum =
        |f: &dyn Fn(&ServeResult) -> usize| runs.iter().map(|r| f(&r.result)).sum::<usize>() as f64;
    let batches = sum(&|r| r.batches.len());
    let dispatched = sum(&|r| r.batches.iter().map(|b| b.served.len()).sum());
    p.insert("serve.host_requests_per_s", 1.0 / op);
    p.insert("serve.max_load_ok_pct", max_load_ok as f64);
    p.insert("serve.batches", batches);
    p.insert("serve.mean_batch_size", dispatched / batches.max(1.0));
    p.insert("serve.shed_queue_full", sum(&|r| r.shed_queue_full()));
    p.insert("serve.shed_expired", sum(&|r| r.shed_expired()));
    p.insert("serve.deadline_missed", sum(&|r| r.deadline_missed()));
    p.insert("serve.failed", sum(&|r| r.failed()));
    p.insert(
        "serve.retries_sram",
        sum(&|r| r.chips.iter().map(|c| c.retries_sram as usize).sum()),
    );
    p.insert(
        "serve.retries_link",
        sum(&|r| r.chips.iter().map(|c| c.retries_link as usize).sum()),
    );
    p.insert(
        "serve.quarantined_chips",
        sum(&|r| {
            r.chips
                .iter()
                .filter(|c| c.quarantined_at.is_some())
                .count()
        }),
    );
    p.insert(
        "serve.chip_utilization_min",
        runs.iter()
            .flat_map(|r| {
                r.result
                    .chips
                    .iter()
                    .map(|c| c.busy_cycles as f64 / r.result.horizon.max(1) as f64)
            })
            .fold(f64::INFINITY, f64::min),
    );
    p.insert(
        "serve.verify_accounting_s",
        runs.iter().map(|r| r.verify_s).sum(),
    );
    p.insert(
        "serve.open_loop_s",
        runs.iter().map(|r| r.open_loop_s).sum(),
    );
    p.insert(
        "mem.reads_pristine",
        sum(&|r| {
            r.chips
                .iter()
                .map(|c| c.telemetry.mem_reads_pristine as usize)
                .sum()
        }),
    );
    p.insert(
        "mem.reads_verified",
        sum(&|r| {
            r.chips
                .iter()
                .map(|c| c.telemetry.mem_reads_verified as usize)
                .sum()
        }),
    );
    if !plan.trace {
        return out;
    }

    // ---- Traced pass: the latency phase again with request spans on, then
    // the shortest phase again with spans off, which must reproduce the timed
    // pass's result exactly (the serving model has no wall clock in it).
    let mut tr = Tracer::new(true);
    let (li, latency_phase) = phases
        .iter()
        .enumerate()
        .find(|(_, p)| p.latency)
        .expect("one latency phase");
    if let Some(traced) = run_phase(
        &mut tr,
        &mut out,
        &service,
        latency_phase,
        requests_of(latency_phase),
        phase_seeds[li],
        true,
    ) {
        let mut waits: Vec<u64> = traced
            .result
            .traces
            .iter()
            .filter_map(|t| t.root.children.iter().find(|c| c.name == "queue"))
            .map(|queue| queue.end - queue.start)
            .collect();
        waits.sort_unstable();
        let p = &mut out.per_layer;
        p.insert(
            "serve.queue_wait_cycles_p50",
            if waits.is_empty() {
                0.0
            } else {
                percentile(&waits, 500) as f64
            },
        );
        p.insert(
            "harness.trace_overhead_frac",
            traced.wall_s / runs[li].wall_s - 1.0,
        );
        // Spans are pure observation: everything but the span trees matches.
        let mut unspanned = traced.result.clone();
        unspanned.traces.clear();
        unspanned.flight = runs[li].result.flight.clone();
        out.check(unspanned == runs[li].result, || {
            format!(
                "phase {}: spans changed the serve result",
                latency_phase.name
            )
        });
    }
    let (si, shortest) = phases
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.share.total_cmp(&b.share))
        .expect("at least one phase");
    if let Some(again) = run_phase(
        &mut tr,
        &mut out,
        &service,
        shortest,
        requests_of(shortest),
        phase_seeds[si],
        false,
    ) {
        out.check(again.result == runs[si].result, || {
            format!("phase {}: two runs of one trace differ", shortest.name)
        });
    }

    emplace_probe(&mut tr, &mut out, &service);
    if chaos {
        fault_probe(&mut tr, &mut out, &service, phase_seeds[0].1);
    }
    out.trace = Some(tr);
    out
}

/// What one dispatch pays outside `Chip::run`, which `serve` hides inside
/// itself: fresh chip, constants emplace, input write, logits read.
fn emplace_probe(tr: &mut Tracer, out: &mut Outcome, service: &Service) {
    const PROBES: usize = 50;
    let mut times = CallTimes::default();
    for i in 0..PROBES {
        let input = i % INPUTS;
        let probe = infer(
            tr,
            &service.ready,
            &service.images_q[input],
            &RunOptions::default(),
        );
        times.push(&probe);
        out.check(
            probe.report.is_ok() && service.is_golden(input, &probe.logits),
            || format!("dispatch probe {i}: logits differ from run_int8"),
        );
    }
    times.record(out);
    program_shape(out, &service.ready.model, &service.ready.decoded);
}

/// `faults.applied` / `faults.vacant`: `serve` does not report how many
/// planned fault events struck live state (and `run_resilient` only counts
/// attempts that survive), so the transient phase's planner is asked for its
/// first dispatches' plans and each is replayed through a timing-only run,
/// which applies the plan without an ECC check to die on.
fn fault_probe(tr: &mut Tracer, out: &mut Outcome, service: &Service, chaos_seed: u64) {
    const DISPATCHES: u64 = 32;
    let window = 0..ServeConfig::default().chaos_window;
    let planner = ChaosPlanner::new(chaos_spec(chaos_seed, (500, 0)));
    let (mut applied, mut vacant) = (0u64, 0u64);
    for ordinal in 0..DISPATCHES {
        let target = Some(service.batch.input_site());
        let ChaosStrike::Transient(plan) = planner.strike(0, ordinal, window.clone(), target)
        else {
            continue;
        };
        let options = RunOptions {
            functional: false,
            faults: plan,
            ..RunOptions::default()
        };
        let image_q = &service.images_q[ordinal as usize % INPUTS];
        match infer(tr, &service.ready, image_q, &options).report {
            Err(e) => out.fail(format!("fault probe {ordinal}: {e}")),
            Ok(r) => {
                applied += r.faults_applied;
                vacant += r.faults_vacant;
            }
        }
    }
    out.per_layer.insert("faults.applied", applied as f64);
    out.per_layer.insert("faults.vacant", vacant as f64);
}
