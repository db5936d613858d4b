//! End-to-end serving-layer behavior: admission control sheds structurally,
//! deadlines are enforced on the virtual clock, chaos-injected faults
//! degrade throughput without ever degrading answers (logits bit-identical
//! to a fault-free serial oracle), the circuit breaker quarantines a chip
//! drawing persistent faults, a pool member keeps the model resident from
//! batch to batch, and the whole accounting re-derives cleanly — for
//! hand-picked cases and for seeded random configurations alike.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tsp_arch::ChipConfig;
use tsp_nn::batch::{compile_batch_cached, BatchModel};
use tsp_nn::compile::CompileOptions;
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_nn::resilient::{run_resilient, ResilientOptions, RunOutcome};
use tsp_nn::resnet::resnet_tiny;
use tsp_nn::train::small_cnn;
use tsp_serve::{
    open_loop, serve, serve_trace_json, verify_accounting, HealthConfig, LoadSpec, Rejected,
    Request, ServeConfig, ServeError, ServeOutcome,
};
use tsp_sim::faults::ChaosSpec;
use tsp_telemetry::perfetto;

/// The shared workload: a small CNN with a handful of quantized inputs.
fn workload(max_batch: usize) -> (BatchModel, Vec<Vec<i8>>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile_batch_cached(&q, &CompileOptions::default(), max_batch);
    let images = data.images.iter().map(|i| q.quantize_image(i)).collect();
    (model, images)
}

/// Fault-free serial oracle logits per input index.
fn oracle(model: &BatchModel, inputs: &[Vec<i8>]) -> HashMap<usize, Vec<i8>> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, image)| {
            let report = run_resilient(
                &model.model,
                &ChipConfig::asic(),
                image,
                &ResilientOptions::default(),
                &mut None,
            )
            .expect("oracle run");
            (i, report.logits().expect("oracle completes").to_vec())
        })
        .collect()
}

/// One fault-free run's cycles — the natural time unit for deadlines.
fn service_cycles(model: &BatchModel, image: &[i8]) -> u64 {
    let report = run_resilient(
        &model.model,
        &ChipConfig::asic(),
        image,
        &ResilientOptions::default(),
        &mut None,
    )
    .expect("calibration run");
    match report.outcome {
        RunOutcome::Completed { cycles, .. } => cycles,
        RunOutcome::Exhausted { .. } => unreachable!("fault-free"),
    }
}

fn requests_at(arrivals: &[(u64, usize)], deadline: u64) -> Vec<Request> {
    arrivals
        .iter()
        .enumerate()
        .map(|(id, &(arrival, input))| Request {
            id: id as u64,
            arrival,
            deadline,
            input,
        })
        .collect()
}

#[test]
fn fault_free_serving_is_bit_identical_to_the_oracle_and_verifies() {
    let (model, inputs) = workload(3);
    let golden = oracle(&model, &inputs);
    let s = service_cycles(&model, &inputs[0]);
    let e = model.emplace_cycles();
    // 9 requests over 2 chips, arriving fast enough to queue and batch.
    let arrivals: Vec<(u64, usize)> = (0..9).map(|i| (i * s / 4, (i % 3) as usize)).collect();
    let requests = requests_at(&arrivals, 40 * (e + 3 * s));
    let config = ServeConfig {
        pool: 2,
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");

    assert_eq!(result.completed(), requests.len(), "everything completes");
    assert_eq!(result.good(), requests.len(), "generous deadlines all met");
    for response in &result.responses {
        let ServeOutcome::Completed {
            logits, attempts, ..
        } = &response.outcome
        else {
            panic!("fault-free must complete: {response:?}")
        };
        assert_eq!(*attempts, 1);
        assert_eq!(logits, &golden[&response.input], "oracle bit-identity");
    }
    // Responses come back sorted by id, and both chips saw work.
    for pair in result.responses.windows(2) {
        assert!(pair[0].id < pair[1].id);
    }
    assert!(result.chips.iter().all(|c| c.requests > 0), "pool balanced");
    assert!(result.chips.iter().all(|c| c.quarantined_at.is_none()));
    // The model is emplaced once per chip and stays resident after that.
    for chip in 0..config.pool {
        let emplaces: Vec<u64> = (result.batches.iter())
            .filter(|b| b.chip == chip)
            .map(|b| b.emplace)
            .collect();
        assert!(emplaces.len() > 1, "chip {chip} ran several batches");
        assert_eq!(emplaces[0], e, "chip {chip}'s first batch emplaces");
        assert!(emplaces[1..].iter().all(|&c| c == 0), "{emplaces:?}");
    }
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
}

/// A model whose reruns must restore rows (`resnet_tiny`) served on one chip
/// in two batches: the first batch emplaces, every later run is charged the
/// restore, and every answer is a fresh chip's.
#[test]
fn a_resident_model_pays_its_restore_on_every_rerun() {
    let data = synthetic(21, 32, 32, 3, 2, 2);
    let (g, params) = resnet_tiny(10, 3);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile_batch_cached(&q, &CompileOptions::default(), 2);
    let inputs: Vec<Vec<i8>> = data.images.iter().map(|i| q.quantize_image(i)).collect();
    let golden = oracle(&model, &inputs);
    let (e, r) = (model.emplace_cycles(), model.restore_cycles());
    assert!(r > 0 && r < e, "restore {r} vs emplace {e}");
    let requests = requests_at(&[(0, 0), (0, 1), (0, 1), (0, 0)], u64::MAX);
    let config = ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    let charges: Vec<(u64, Vec<u64>)> = (result.batches.iter())
        .map(|b| (b.emplace, b.served.iter().map(|row| row.restore).collect()))
        .collect();
    assert_eq!(charges, [(e, vec![0, r]), (0, vec![r, r])]);
    for response in &result.responses {
        let ServeOutcome::Completed { logits, .. } = &response.outcome else {
            panic!("fault-free must complete: {response:?}")
        };
        assert_eq!(logits, &golden[&response.input], "a fresh chip's logits");
    }
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
}

#[test]
fn admission_queue_sheds_queue_full_structurally() {
    let (model, inputs) = workload(1);
    // Four simultaneous arrivals against a depth-1 queue on one chip.
    let requests = requests_at(&[(0, 0), (0, 1), (0, 0), (0, 1)], 1_000_000);
    let config = ServeConfig {
        pool: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    assert_eq!(result.completed(), 1, "one admitted, one served");
    assert_eq!(result.shed_queue_full(), 3, "the burst sheds");
    for response in &result.responses[1..] {
        assert_eq!(
            response.outcome,
            ServeOutcome::Shed(Rejected::QueueFull { queue_depth: 1 }),
            "structured rejection"
        );
    }
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
}

#[test]
fn deadlines_expire_in_queue_and_misses_are_accounted() {
    let (model, inputs) = workload(1);
    let s = service_cycles(&model, &inputs[0]);
    let e = model.emplace_cycles();
    // Impossible deadline: even the unqueued head request (emplace + one
    // service) must blow it; the ones queued behind expire before dispatch.
    let requests = requests_at(&[(0, 0), (1, 0), (2, 0)], 2);
    let config = ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    assert_eq!(result.completed(), 1, "head request still runs");
    assert_eq!(result.good(), 0, "but misses its deadline");
    assert_eq!(result.deadline_missed(), 1);
    assert_eq!(result.shed_expired(), 2, "queued requests expire unserved");
    let head = &result.responses[0].outcome;
    let ServeOutcome::Completed {
        deadline_met,
        completed,
        ..
    } = head
    else {
        panic!("head completes: {head:?}")
    };
    assert!(!deadline_met);
    assert!(*completed >= e + s, "completion includes emplace + service");
    for response in &result.responses[1..] {
        let ServeOutcome::Shed(Rejected::Expired { at }) = response.outcome else {
            panic!("queued requests expire: {response:?}")
        };
        assert!(at > response.arrival + response.deadline);
    }
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
}

#[test]
fn chaos_transient_strikes_retry_to_bit_identical_logits() {
    let (model, inputs) = workload(2);
    let golden = oracle(&model, &inputs);
    let requests = requests_at(
        &[(0, 0), (0, 1), (0, 2), (0, 0), (0, 1), (0, 2)],
        100_000_000,
    );
    let config = ServeConfig {
        pool: 2,
        chaos: Some(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            targeted_double: true,
            ..ChaosSpec::off(0xC0FFEE)
        }),
        // Keep the breaker out of this test's way: every chip-0 dispatch
        // draws a strike, and we want them all served anyway.
        health: HealthConfig {
            trip_score: 1_000_000,
        },
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    assert_eq!(result.completed(), requests.len(), "transients all recover");
    let mut retried = 0u32;
    for response in &result.responses {
        let ServeOutcome::Completed {
            logits,
            attempts,
            retried_sram,
            ..
        } = &response.outcome
        else {
            panic!("must complete: {response:?}")
        };
        retried += retried_sram;
        assert!(*attempts <= config.max_attempts);
        assert_eq!(
            logits, &golden[&response.input],
            "recovered logits bit-identical to the fault-free oracle"
        );
    }
    assert!(retried > 0, "the chaos strikes actually caused retries");
    assert!(result.chips[0].retries_sram > 0, "attributed to chip 0");
    assert_eq!(result.chips[1].retries_sram, 0, "chip 1 ran clean");
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
}

#[test]
fn persistent_faults_quarantine_the_chip_and_drain_to_healthy_ones() {
    let (model, inputs) = workload(2);
    let golden = oracle(&model, &inputs);
    let requests = requests_at(
        &[
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
        ],
        100_000_000,
    );
    let config = ServeConfig {
        pool: 3,
        max_attempts: 2,
        chaos: Some(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            persistent_per_mille: 1000,
            targeted_double: true,
            ..ChaosSpec::off(0xDEAD)
        }),
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");

    // Chip 0's first batch exhausts its retry budget and trips the breaker.
    assert!(
        result.chips[0].quarantined_at.is_some(),
        "chip 0 quarantined: {:?}",
        result.chips[0]
    );
    assert_eq!(result.chips[0].batches, 1, "no work offered after the trip");
    assert_eq!(result.failed(), 2, "exactly the struck batch's members");
    assert_eq!(
        result.completed(),
        requests.len() - 2,
        "everything else drains to the healthy chips"
    );
    for response in &result.responses {
        match &response.outcome {
            ServeOutcome::Completed { logits, chip, .. } => {
                assert_ne!(*chip, 0, "completions never ran on the struck chip");
                assert_eq!(logits, &golden[&response.input], "never a wrong answer");
            }
            ServeOutcome::Failed {
                chip,
                attempts,
                error,
                ..
            } => {
                assert_eq!(*chip, 0);
                assert_eq!(*attempts, 2, "budget exhausted at its bound");
                assert!(!error.is_empty());
            }
            ServeOutcome::Shed(_) => panic!("nothing sheds here: {response:?}"),
        }
    }
    assert!(result.chips[1].requests + result.chips[2].requests >= 10);
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");

    // The whole run — chaos, quarantine, drain — is deterministic.
    let again = serve(&model, &config, &inputs, &requests).expect("serves again");
    assert_eq!(result, again, "same config + requests, same result");
}

#[test]
fn verify_accounting_detects_tampering() {
    let (model, inputs) = workload(2);
    let requests = requests_at(&[(0, 0), (10, 1), (20, 2)], 100_000_000);
    let config = ServeConfig {
        pool: 2,
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    verify_accounting(&requests, &result, &model, &config).expect("clean result verifies");

    let mut forged = result.clone();
    forged.horizon += 1;
    let violations = verify_accounting(&requests, &forged, &model, &config)
        .expect_err("forged horizon must be caught");
    assert!(
        violations.iter().any(|v| v.contains("horizon")),
        "{violations:?}"
    );

    let mut forged = result.clone();
    forged.batches[0].served[0].completed += 1;
    assert!(
        verify_accounting(&requests, &forged, &model, &config).is_err(),
        "forged completion cycle must be caught"
    );

    // Residency: a chip's first batch must pay the emplace, and a batch on a
    // chip that kept the model must not.
    let mut forged = result.clone();
    forged.batches[0].emplace = 0;
    let violations = verify_accounting(&requests, &forged, &model, &config)
        .expect_err("a cold batch without its emplace must be caught");
    assert!(
        violations
            .iter()
            .any(|v| v.contains("emplace 0 != derived")),
        "{violations:?}"
    );
    let warm = (result.batches.iter())
        .position(|b| b.emplace == 0)
        .expect("a chip ran a second batch");
    let mut forged = result.clone();
    forged.batches[warm].emplace = model.emplace_cycles();
    let violations = verify_accounting(&requests, &forged, &model, &config)
        .expect_err("a warm batch charged an emplace must be caught");
    assert!(
        violations.iter().any(|v| v.contains("on a warm chip")),
        "{violations:?}"
    );

    let mut forged = result;
    if let ServeOutcome::Completed { deadline_met, .. } = &mut forged.responses[0].outcome {
        *deadline_met = !*deadline_met;
    }
    assert!(
        verify_accounting(&requests, &forged, &model, &config).is_err(),
        "forged deadline verdict must be caught"
    );
}

#[test]
fn structural_errors_are_rejected_up_front() {
    let (model, inputs) = workload(2);
    let config = ServeConfig {
        pool: 2,
        ..ServeConfig::default()
    };
    let unsorted = vec![
        Request {
            id: 0,
            arrival: 10,
            deadline: 100,
            input: 0,
        },
        Request {
            id: 1,
            arrival: 5,
            deadline: 100,
            input: 0,
        },
    ];
    assert_eq!(
        serve(&model, &config, &inputs, &unsorted).unwrap_err(),
        ServeError::BadRequestOrder(1)
    );
    let out_of_range = vec![Request {
        id: 7,
        arrival: 0,
        deadline: 100,
        input: inputs.len(),
    }];
    assert_eq!(
        serve(&model, &config, &inputs, &out_of_range).unwrap_err(),
        ServeError::InputOutOfRange {
            id: 7,
            input: inputs.len()
        }
    );
    // Out-of-range bounds: no chips, more chips than can be allocated, a
    // budget a persistent fault would burn 2^32 simulations of, and an empty
    // batch, which dispatches nothing forever to a request without deadline.
    let requests = requests_at(&[(0, 0)], u64::MAX);
    for (pool, max_attempts, max_batch) in
        [(0, 3, 2), (usize::MAX, 3, 2), (2, u32::MAX, 2), (2, 3, 0)]
    {
        let bad = ServeConfig {
            pool,
            max_attempts,
            ..ServeConfig::default()
        };
        let model = BatchModel {
            max_batch,
            ..model.clone()
        };
        let outcome = serve(&model, &bad, &inputs, &requests);
        assert!(
            matches!(outcome, Err(ServeError::BadConfig(_))),
            "{pool} {max_attempts} {max_batch}"
        );
    }
}

/// A backoff of `u64::MAX` cycles on a request whose every attempt fails:
/// the virtual clock saturates — in the accounting, its re-derivation, the
/// span timeline and the exported trace — instead of overflowing.
#[test]
fn a_saturated_clock_is_accounted_and_traced() {
    let (model, inputs) = workload(1);
    let requests = requests_at(&[(0, 0)], u64::MAX);
    let config = ServeConfig {
        pool: 1,
        max_attempts: 2,
        backoff_base: u64::MAX,
        backoff_cap: u64::MAX,
        spans: true,
        chaos: Some(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            persistent_per_mille: 1000,
            targeted_double: true,
            ..ChaosSpec::off(7)
        }),
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    let ServeOutcome::Failed {
        completed,
        attempts,
        ..
    } = result.responses[0].outcome
    else {
        panic!("every attempt fails: {:?}", result.responses[0])
    };
    assert_eq!(
        (completed, attempts, result.horizon),
        (u64::MAX, 2, u64::MAX)
    );
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
    let stats = perfetto::validate(&serve_trace_json(&result)).expect("trace validates");
    assert_eq!(stats.max_ts, u64::MAX);
    // Doubling a base past half the range reaches the cap, not a wrap.
    let doubled = ServeConfig {
        backoff_base: 1 << 63,
        ..config
    };
    assert_eq!(doubled.backoff(1), u64::MAX);
}

/// A request with no deadline (`u64::MAX` cycles) is served and meets it:
/// its due cycle saturates instead of wrapping into the past, where a
/// release build would shed it as `Expired` on arrival.
#[test]
fn a_request_without_a_deadline_is_served_in_time() {
    let (model, inputs) = workload(1);
    let requests = requests_at(&[(1, 0)], u64::MAX);
    let config = ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &requests).expect("serves");
    assert!(result.responses[0].good(), "{:?}", result.responses[0]);
    verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
}

/// A mean gap too large for the cycle clock (huge or infinite) saturates
/// the arrival clock instead of wrapping it: the trace stays sorted by
/// `(arrival, id)` with the late arrivals at `u64::MAX`, and `serve` accepts
/// it and accounts it.
#[test]
fn a_huge_mean_gap_saturates_the_arrival_clock() {
    let (model, inputs) = workload(4);
    let config = ServeConfig {
        pool: 1,
        ..ServeConfig::default()
    };
    for mean_interarrival in [1e30, f64::INFINITY] {
        let requests = open_loop(&LoadSpec {
            seed: 1,
            requests: 3,
            mean_interarrival,
            deadline: 10,
            inputs: 1,
        });
        for pair in requests.windows(2) {
            assert!((pair[0].arrival, pair[0].id) < (pair[1].arrival, pair[1].id));
        }
        assert_eq!(requests.last().map(|r| r.arrival), Some(u64::MAX));
        let result = serve(&model, &config, &inputs, &requests).expect("serves");
        assert_eq!(result.responses.len(), requests.len());
        verify_accounting(&requests, &result, &model, &config).expect("accounting re-derives");
    }
}

/// A splitmix64 stream: the random serving cases grow from one seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn pick<T: Copy>(&mut self, menu: &[T]) -> T {
        menu[(self.next() % menu.len() as u64) as usize]
    }
}

/// Seeded random pools, queue bounds, retry budgets, batch bounds,
/// backoffs, chaos windows, chaos specs, deadlines and tracing settings —
/// drawn from menus holding 0, 1 and each type's maximum — over short
/// open-loop traces. Every fourth case breaks one bound, each in turn, and
/// `serve` must refuse it with a `BadConfig`. It serves every other case
/// without panicking: completed logits are the oracle's, the accounting
/// re-derives, and with spans on every request has a trace and the exported
/// document validates.
#[test]
fn random_configurations_serve_or_are_refused() {
    let (shared, inputs) = workload(4);
    let golden = oracle(&shared, &inputs);
    let breaks: [fn(&mut ServeConfig, &mut BatchModel); 6] = [
        |c, _| c.pool = 0,
        |c, _| c.pool = usize::MAX,
        |c, _| c.queue_depth = 0,
        |c, _| c.max_attempts = 0,
        |c, _| c.max_attempts = u32::MAX,
        |_, m| m.max_batch = 0,
    ];
    let mut draw = Draw(13);
    let mut unbounded = 0;
    for case in 0..24 {
        let pool = draw.pick(&[1, 1, 2, 3, 4]);
        // Struck chips: any of the pool's, and one past its end.
        let chaos = (!draw.next().is_multiple_of(3)).then(|| ChaosSpec {
            chips: (0..=pool).filter(|_| draw.coin()).collect(),
            strike_per_mille: draw.pick(&[0, 1, 500, 1000, u32::MAX]),
            persistent_per_mille: draw.pick(&[0, 1, 500, 1000, u32::MAX]),
            targeted_double: draw.pick(&[true, true, false]),
            ..ChaosSpec::off(draw.next())
        });
        let mut config = ServeConfig {
            pool,
            queue_depth: draw.pick(&[1, 2, 8, 64, usize::MAX]),
            max_attempts: draw.pick(&[1, 2, 3, 4]),
            backoff_base: draw.pick(&[0, 1, 256, u64::MAX]),
            backoff_cap: draw.pick(&[0, 1, 2048, u64::MAX]),
            chaos_window: draw.pick(&[0, 1, 2048, u64::MAX]),
            chaos,
            spans: draw.coin(),
            flight_capacity: draw.pick(&[0, 1, 64, usize::MAX]),
            ..ServeConfig::default()
        };
        let mut model = BatchModel {
            model: Arc::clone(&shared.model),
            max_batch: draw.pick(&[1, 2, 4, usize::MAX]),
        };
        if case % 4 == 0 {
            breaks[case / 4](&mut config, &mut model);
        }
        let mut requests = open_loop(&LoadSpec {
            seed: draw.next(),
            requests: (draw.next() % 13) as usize,
            mean_interarrival: draw.pick(&[1.0, 250.0, 2500.0]),
            deadline: 0,
            inputs: inputs.len(),
        });
        for r in &mut requests {
            r.deadline = draw.pick(&[0, 1, 3_000, 30_000, 300_000, u64::MAX]);
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve(&model, &config, &inputs, &requests)
        }))
        .unwrap_or_else(|_| panic!("case {case} panicked: {config:?}, {requests:?}"));
        match (outcome, case % 4 == 0) {
            (Err(ServeError::BadConfig(_)), true) => {}
            (Ok(result), false) => {
                for r in &result.responses {
                    if let ServeOutcome::Completed { logits, .. } = &r.outcome {
                        assert_eq!(logits, &golden[&r.input], "case {case}: request {}", r.id);
                    }
                }
                if let Err(violations) = verify_accounting(&requests, &result, &model, &config) {
                    panic!("case {case}: {violations:?}");
                }
                if config.spans {
                    assert_eq!(result.traces.len(), result.responses.len(), "case {case}");
                    let trace = serve_trace_json(&result);
                    perfetto::validate(&trace).unwrap_or_else(|e| panic!("case {case}: {e}"));
                }
                unbounded += requests.iter().filter(|r| r.deadline == u64::MAX).count();
            }
            (outcome, refused) => panic!(
                "case {case}: {:?} (refused: {refused}) for {config:?}",
                outcome.map(|r| r.responses.len())
            ),
        }
    }
    assert!(unbounded > 0, "no served request without a deadline");
}
