//! Host-level graceful degradation: uncorrectable faults trigger bounded
//! retry-from-weights with a populated `ResilienceReport`, recovered logits
//! are bit-identical to the fault-free run, and non-transient errors still
//! propagate (retrying a compiler bug would loop forever). Strikes are
//! stated as a `ChaosStrike`: a transient one hits attempt 1 only, a
//! persistent one every attempt. A clean run leaves its chip resident for the
//! next run of the same model; a struck one leaves none.

use tsp_arch::ChipConfig;
use tsp_nn::compile::{compile, CompileOptions, CompiledModel, InputKind};
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_nn::resilient::{
    run_resilient, transient, ResidentChip, ResilienceReport, ResilientOptions, RunOutcome,
    TransientKind,
};
use tsp_nn::train::small_cnn;
use tsp_sim::chip::RunOptions;
use tsp_sim::faults::{ChaosStrike, FaultEvent, FaultKind, FaultPlan};
use tsp_sim::SimError;

fn model_and_image() -> (CompiledModel, Vec<i8>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile(&q, &CompileOptions::default());
    let image = q.quantize_image(&data.images[0]);
    (model, image)
}

/// A double-bit (uncorrectable) fault on the first word of the model's
/// input storage — struck at cycle 0, detected when the schedule streams it.
fn uncorrectable_input_fault(model: &CompiledModel) -> FaultPlan {
    let target = match &model.input {
        InputKind::Map(fm) => &fm.parts[0][0],
        InputKind::Im2col { chunks, .. } => &chunks[0],
    };
    let (hemisphere, slice, word) = target.layout.blocks[0];
    let flip = |lane, bit| FaultEvent {
        cycle: 0,
        kind: FaultKind::SramData {
            hemisphere,
            slice,
            word,
            lane,
            bit,
        },
    };
    // Two flips in one 16-byte superlane word: beyond SECDED correction.
    FaultPlan::from_events(0, vec![flip(0, 1), flip(3, 6)])
}

/// `run_resilient` of the shared model under `strike` with `max_attempts`.
fn run_struck(
    model: &CompiledModel,
    image: &[i8],
    strike: ChaosStrike,
    max_attempts: u32,
) -> ResilienceReport {
    let options = ResilientOptions {
        max_attempts,
        strike,
        ..ResilientOptions::default()
    };
    run_resilient(model, &ChipConfig::asic(), image, &options, &mut None)
        .expect("transient faults must not surface as Err")
}

#[test]
fn fault_free_inference_completes_first_try() {
    let (model, image) = model_and_image();
    let report = run_struck(&model, &image, ChaosStrike::None, 3);
    assert!(report.completed());
    assert_eq!(report.attempts, 1);
    assert_eq!(report.detected, 0);
    assert!(report.retry_causes.is_empty());
    assert!(report.logits().is_some());
}

#[test]
fn uncorrectable_fault_triggers_retry_from_weights() {
    let (model, image) = model_and_image();
    let golden = run_struck(&model, &image, ChaosStrike::None, 3);
    let plan = uncorrectable_input_fault(&model);
    let report = run_struck(&model, &image, ChaosStrike::Transient(plan), 3);
    assert!(report.completed(), "retry must recover: {report:?}");
    assert_eq!(report.attempts, 2);
    assert!(report.detected >= 1, "the double-bit detection is counted");
    assert_eq!(report.retry_causes.len(), 1);
    assert!(report.wasted_cycles > 0, "the dead attempt burned cycles");
    assert_eq!(
        report.retry_causes[0].cycle, report.wasted_cycles,
        "the cause names the cycle the attempt died at"
    );
    assert_eq!(
        report.logits(),
        golden.logits(),
        "recovered logits must be bit-identical to the fault-free run"
    );
}

/// The mapping itself: a transient strike fails attempt 1 only and the run
/// completes on attempt 2 with the fault-free logits; the same plan as a
/// persistent strike fails every attempt of the budget.
#[test]
fn strike_kind_decides_which_attempts_are_struck() {
    let (model, image) = model_and_image();
    let golden = run_struck(&model, &image, ChaosStrike::None, 3);
    let plan = uncorrectable_input_fault(&model);

    let once = run_struck(&model, &image, ChaosStrike::Transient(plan.clone()), 3);
    let attempts: Vec<u32> = once.retry_causes.iter().map(|c| c.attempt).collect();
    assert_eq!(attempts, [0], "only attempt 1 is struck");
    assert_eq!(once.attempts, 2);
    assert_eq!(once.logits(), golden.logits(), "bit-identical on attempt 2");

    let always = run_struck(&model, &image, ChaosStrike::Persistent(plan), 3);
    let attempts: Vec<u32> = always.retry_causes.iter().map(|c| c.attempt).collect();
    assert_eq!(attempts, [0, 1, 2], "every attempt is struck");
    assert_eq!(always.attempts, 3);
    assert!(always.logits().is_none());
    assert_eq!(
        always.wasted_cycles,
        3 * once.wasted_cycles,
        "each attempt dies where the transient one did"
    );
}

#[test]
fn retry_budget_exhaustion_is_reported_not_panicked() {
    let (model, image) = model_and_image();
    let plan = uncorrectable_input_fault(&model);
    let report = run_struck(&model, &image, ChaosStrike::Persistent(plan), 3);
    assert!(!report.completed());
    assert_eq!(report.attempts, 3);
    assert_eq!(report.retry_causes.len(), 3);
    assert!(report.logits().is_none());
    match &report.outcome {
        RunOutcome::Exhausted { last_error } => {
            assert!(transient(last_error).is_some(), "{last_error}");
        }
        RunOutcome::Completed { .. } => panic!("must not complete"),
    }
}

#[test]
fn permanent_fault_exhausts_its_bound_with_structured_causes() {
    // A *permanent* strike (the plan recurs on every attempt) must make
    // `run_resilient` give up after exactly `max_attempts` runs — no loop,
    // no panic — and say why in `retry_causes`, one entry per dead attempt,
    // so a circuit breaker can act on the site class.
    let (model, image) = model_and_image();
    let plan = uncorrectable_input_fault(&model);
    let report = run_struck(&model, &image, ChaosStrike::Persistent(plan), 4);
    assert!(!report.completed());
    assert_eq!(report.attempts, 4, "attempts == bound");
    assert_eq!(
        report.retry_causes.len(),
        4,
        "every dead attempt attributed"
    );
    for (k, cause) in report.retry_causes.iter().enumerate() {
        assert_eq!(cause.attempt, k as u32, "causes in attempt order");
        assert_eq!(cause.kind, TransientKind::Ecc, "SRAM-shaped, not link");
        assert!(!cause.kind.is_link());
        assert_eq!(cause.kind.name(), "ecc");
    }
    assert!(report.logits().is_none());
    match &report.outcome {
        RunOutcome::Exhausted { last_error } => {
            assert_eq!(
                transient(last_error).map(|(kind, _)| kind),
                Some(TransientKind::Ecc)
            );
        }
        RunOutcome::Completed { .. } => panic!("a persistent fault must never complete"),
    }
}

#[test]
fn non_transient_errors_propagate() {
    let (model, image) = model_and_image();
    let options = ResilientOptions {
        base: RunOptions {
            cycle_limit: 1, // guarantees a (deterministic) CycleLimit error
            ..RunOptions::default()
        },
        ..ResilientOptions::default()
    };
    let err = run_resilient(&model, &ChipConfig::asic(), &image, &options, &mut None)
        .expect_err("deterministic errors must not be retried");
    assert!(matches!(err, SimError::CycleLimit { .. }), "{err}");
    assert!(transient(&err).is_none());
}

#[test]
fn a_clean_run_leaves_its_chip_resident_and_a_struck_one_does_not() {
    let (model, image) = model_and_image();
    let config = ChipConfig::asic();
    let golden = run_struck(&model, &image, ChaosStrike::None, 1);
    let mut resident = None;
    let run = |strike, resident: &mut Option<ResidentChip>| {
        let options = ResilientOptions {
            strike,
            ..ResilientOptions::default()
        };
        run_resilient(&model, &config, &image, &options, resident).expect("transient only")
    };
    assert!(!ResidentChip::holds(resident.as_ref(), &model, &config));
    run(ChaosStrike::None, &mut resident);
    let held = ResidentChip::holds(resident.as_ref(), &model, &config);
    assert!(held, "the chip stays, tagged");
    // The rerun restores and matches the fresh chip's run bit for bit.
    let again = run(ChaosStrike::None, &mut resident);
    assert_eq!(again.logits(), golden.logits());
    assert_eq!(again.telemetry, golden.telemetry);
    assert!(resident.is_some());

    // Another compile's constants are not these, even of the same graph.
    let (other, _) = model_and_image();
    assert!(!ResidentChip::holds(resident.as_ref(), &other, &config));
    let mut slow = config.clone();
    slow.clock_hz /= 2.0;
    assert!(!ResidentChip::holds(resident.as_ref(), &model, &slow));

    // A struck attempt that completes may leave latent damage: no chip stays.
    let mut late = uncorrectable_input_fault(&model).events().to_vec();
    late.iter_mut().for_each(|e| e.cycle = 10 * model.cycles);
    let vacant = ChaosStrike::Transient(FaultPlan::from_events(0, late));
    let struck = run(vacant, &mut resident);
    assert_eq!(
        (struck.attempts, struck.faults_vacant),
        (1, 2),
        "struck, unharmed"
    );
    assert!(resident.is_none(), "a struck attempt hands back no chip");
    // A retry emplaces onto a new chip, runs clean, and that chip stays.
    let retried = run(
        ChaosStrike::Transient(uncorrectable_input_fault(&model)),
        &mut resident,
    );
    assert_eq!(retried.attempts, 2);
    assert!(ResidentChip::holds(resident.as_ref(), &model, &config));
    let persistent = ChaosStrike::Persistent(uncorrectable_input_fault(&model));
    assert!(!run(persistent, &mut resident).completed());
    assert!(
        resident.is_none(),
        "an exhausted request hands back no chip"
    );
}
