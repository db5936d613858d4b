//! Tier-1 promotion of the E15 `ecc_faults` bench: SECDED end to end
//! through the full stream path. Single-bit SRAM faults — injected directly
//! or replayed from a seeded fault plan — are corrected by the
//! consumer-side check with data intact and logged in the CSR; double-bit
//! faults are detected and surface as a diagnosable error.

use tsp::isa::MemAddr;
use tsp::mem::GlobalAddress;
use tsp::prelude::*;
use tsp::sim::faults::{ChaosStrike, FaultEvent, FaultKind, FaultPlan};

/// Compiles a 64-row copy (East → West), injects `single` single-bit faults
/// (and optionally one double-bit fault) into the source storage, runs, and
/// reports (run result, corrected count, data-intact?).
fn run_copy_with_faults(single: usize, double: bool) -> (Result<u64, String>, u64, bool) {
    let mut sched = Scheduler::new();
    let n = 64u32;
    let src = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), n, 320, BankPolicy::Low, 4096)
        .unwrap();
    let (dst, _) = copy(&mut sched, &src, Hemisphere::West, BankPolicy::High, 0);
    let program = sched.into_program().unwrap();

    let mut chip = Chip::new(ChipConfig::asic());
    for r in 0..n {
        chip.memory.write(src.row(r), Vector::splat(0x5A));
    }
    let (h, s, base) = src.layout.blocks[0];
    for i in 0..single {
        chip.memory.slice_mut(h, s).inject_fault(
            MemAddr::new(base + i as u16),
            (i * 37) % 320,
            (i % 8) as u8,
        );
    }
    if double {
        chip.memory
            .slice_mut(h, s)
            .inject_fault(MemAddr::new(base), 0, 0);
        chip.memory
            .slice_mut(h, s)
            .inject_fault(MemAddr::new(base), 1, 1);
    }
    match chip.run(&program, &RunOptions::default()) {
        Ok(report) => {
            let clean = (0..n).all(|r| {
                chip.memory.read_unchecked(GlobalAddress::new(
                    dst.layout.blocks[0].0,
                    dst.layout.blocks[0].1,
                    MemAddr::new(dst.layout.blocks[0].2 + r as u16),
                )) == Vector::splat(0x5A)
            });
            (Ok(report.cycles), report.ecc_corrected, clean)
        }
        Err(e) => (Err(e.to_string()), chip.memory.errors.corrected(), false),
    }
}

#[test]
fn single_bit_sram_faults_are_corrected_end_to_end() {
    for faults in [0usize, 1, 8, 32] {
        let (result, corrected, clean) = run_copy_with_faults(faults, false);
        assert!(result.is_ok(), "{faults} faults: {result:?}");
        assert_eq!(corrected as usize, faults, "every fault hits the CSR");
        assert!(clean, "{faults} faults: copied data must be bit-exact");
    }
}

#[test]
fn double_bit_sram_fault_is_detected_and_diagnosable() {
    let (result, _, _) = run_copy_with_faults(0, true);
    let message = result.expect_err("double-bit faults must be detected");
    assert!(message.contains("cycle"), "diagnosable: {message}");
    assert!(message.contains("CSR"), "diagnosable: {message}");
}

#[test]
fn planned_faults_replay_through_run_options() {
    // The same injection, driven by the deterministic fault-plan path the
    // campaign uses (`RunOptions::faults`) rather than direct pokes.
    let mut sched = Scheduler::new();
    let src = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), 8, 320, BankPolicy::Low, 4096)
        .unwrap();
    let (dst, _) = copy(&mut sched, &src, Hemisphere::West, BankPolicy::High, 0);
    let program = sched.into_program().unwrap();

    let mut chip = Chip::new(ChipConfig::asic());
    for r in 0..8 {
        chip.memory.write(src.row(r), Vector::splat(0x5A));
    }
    let (hemisphere, slice, word) = src.layout.blocks[0];
    let plan = FaultPlan::from_events(
        0,
        vec![FaultEvent {
            cycle: 0,
            kind: FaultKind::SramData {
                hemisphere,
                slice,
                word,
                lane: 7,
                bit: 2,
            },
        }],
    );
    let report = chip
        .run(
            &program,
            &RunOptions {
                faults: plan,
                ..RunOptions::default()
            },
        )
        .expect("single-bit plan must be corrected");
    assert_eq!(report.faults_applied, 1);
    assert_eq!(report.ecc_corrected, 1);
    let copied = chip.memory.read_unchecked(GlobalAddress::new(
        dst.layout.blocks[0].0,
        dst.layout.blocks[0].1,
        MemAddr::new(dst.layout.blocks[0].2),
    ));
    assert_eq!(copied, Vector::splat(0x5A));
}

/// A net whose second conv is K-packed: a 3×3 stem (64 channels, written as
/// three lane copies) feeding a 3×3 conv that fetches its activations with
/// MEM `Gather`. Layers are fenced, so a fault planned at the stem's last
/// cycle strikes a finished activation word before any gather reads it.
/// Returns the model, a quantized image, and the plan flipping `flips`
/// `(lane, bit)`s of the stem's pixel (1, 1) in the replica chunk 0 gathers.
fn packed_conv_with_struck_activation(
    flips: &[(u16, u8)],
) -> (tsp::nn::CompiledModel, Vec<i8>, FaultPlan) {
    use tsp::nn::compile::Probe;
    use tsp::nn::graph::{ConvW, DenseW};
    use tsp::nn::{quantize, ConvSpec, Graph, Op, Params};

    let mut g = Graph::with_input(12, 12, 3);
    let mut params = Params::default();
    let ramp = |n: u32| {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 400.0)
            .collect()
    };
    for (name, ci, co) in [("stem", 3, 64), ("packed", 64, 32)] {
        let spec = ConvSpec {
            c_out: co,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let id = g.push(Op::Conv(spec), vec![g.nodes.len() - 1], name);
        let w = ramp(co * ci * 9);
        params.conv.insert(id, ConvW { w, co, ci, k: 3 });
    }
    let gap = g.push(Op::GlobalAvgPool, vec![2], "gap");
    let fc = g.push(
        Op::Dense {
            out: 5,
            relu: false,
        },
        vec![gap],
        "fc",
    );
    let w = ramp(5 * 32);
    params.dense.insert(fc, DenseW { w, out: 5, inp: 32 });

    let data = tsp::nn::data::synthetic(5, 12, 12, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile(&q, &CompileOptions { overlap: false });
    let Probe::Map(stem) = &model.probes[1] else {
        panic!("the stem writes a feature map")
    };
    let struck = stem.parts[0][0].row(stem.row_index(1, 1));
    let events = flips.iter().map(|&(lane, bit)| FaultEvent {
        cycle: model.layer_spans[1].end,
        kind: FaultKind::SramData {
            hemisphere: struck.hemisphere,
            slice: struck.slice,
            word: struck.word.word(),
            lane,
            bit,
        },
    });
    let plan = FaultPlan::from_events(0, events.collect());
    (model, q.quantize_image(&data.images[0]), plan)
}

/// `Gather` forwards the stored check bits of every superlane it assembles,
/// so a single-bit upset under a gathered word is corrected by the consumer
/// (the MXM) — not laundered into freshly encoded, silently wrong data.
#[test]
fn single_bit_fault_under_a_gathered_word_is_corrected() {
    use tsp::nn::{run_resilient, ResilientOptions};
    // Lane 70: superlane 4, i.e. the second lane copy of channel 6.
    let (model, image, plan) = packed_conv_with_struck_activation(&[(70, 5)]);
    let config = ChipConfig::asic();
    let clean = run_resilient(
        &model,
        &config,
        &image,
        &ResilientOptions::default(),
        &mut None,
    )
    .unwrap();
    let struck = run_resilient(
        &model,
        &config,
        &image,
        &ResilientOptions {
            strike: ChaosStrike::Transient(plan),
            ..ResilientOptions::default()
        },
        &mut None,
    )
    .unwrap();
    assert_eq!((struck.attempts, struck.faults_applied), (1, 1));
    assert!(struck.corrected >= 1, "the gathered word's upset is logged");
    assert_eq!(clean.telemetry.mem_reads_verified, 0);
    assert!(
        struck.telemetry.mem_reads_verified >= 1,
        "a gather verified"
    );
    assert_eq!(struck.logits(), clean.logits(), "logits unchanged");
}

/// Two flips in one superlane of a gathered word are detected at the
/// consumer; the host retries from weights and completes.
#[test]
fn double_bit_fault_under_a_gathered_word_is_detected_and_retried() {
    use tsp::nn::resilient::TransientKind;
    use tsp::nn::{run_resilient, ResilientOptions};
    let (model, image, plan) = packed_conv_with_struck_activation(&[(70, 5), (71, 0)]);
    let config = ChipConfig::asic();
    let clean = run_resilient(
        &model,
        &config,
        &image,
        &ResilientOptions::default(),
        &mut None,
    )
    .unwrap();
    let struck = run_resilient(
        &model,
        &config,
        &image,
        &ResilientOptions {
            strike: ChaosStrike::Transient(plan),
            ..ResilientOptions::default()
        },
        &mut None,
    )
    .unwrap();
    assert_eq!((struck.attempts, struck.detected), (2, 1));
    assert_eq!(struck.retry_causes[0].kind, TransientKind::Ecc);
    assert!(struck.retry_causes[0].cycle > model.layer_spans[1].end);
    assert_eq!(struck.logits(), clean.logits(), "the retry completes clean");
}

/// `Scatter` re-encodes only the superlanes it overwrites. A lane-packed max
/// pool (24×24×64 → 12×12, five pixels a VXM row) scatters pixel (1, 1) into
/// lane group 1 of its word; a bit of that word flipped *before* the pool
/// runs, in lane group 3, is a latent error under a superlane the scatter
/// leaves alone — it must survive the merge with its stored check bits and be
/// corrected where the word is consumed (the 1×1 conv's MXM feed), once.
#[test]
fn single_bit_fault_under_an_untouched_superlane_of_a_scattered_word_is_corrected() {
    use tsp::nn::compile::Probe;
    use tsp::nn::graph::{ConvW, DenseW};
    use tsp::nn::{quantize, run_resilient, ConvSpec, Graph, Op, Params, ResilientOptions};

    let mut g = Graph::with_input(24, 24, 3);
    let mut params = Params::default();
    let ramp = |n: u32| {
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 400.0)
            .collect()
    };
    let conv = |c_out, k| ConvSpec {
        c_out,
        k,
        stride: 1,
        pad: k / 2,
        relu: true,
    };
    let stem = g.push(Op::Conv(conv(64, 3)), vec![0], "stem");
    let w = ramp(64 * 3 * 9);
    params.conv.insert(
        stem,
        ConvW {
            w,
            co: 64,
            ci: 3,
            k: 3,
        },
    );
    let pool = g.push(
        Op::MaxPool {
            k: 3,
            stride: 2,
            pad: 1,
        },
        vec![stem],
        "pool",
    );
    let point = g.push(Op::Conv(conv(32, 1)), vec![pool], "point");
    let w = ramp(32 * 64);
    params.conv.insert(
        point,
        ConvW {
            w,
            co: 32,
            ci: 64,
            k: 1,
        },
    );
    let gap = g.push(Op::GlobalAvgPool, vec![point], "gap");
    let fc = g.push(
        Op::Dense {
            out: 5,
            relu: false,
        },
        vec![gap],
        "fc",
    );
    let w = ramp(5 * 32);
    params.dense.insert(fc, DenseW { w, out: 5, inp: 32 });

    let data = tsp::nn::data::synthetic(5, 24, 24, 3, 2, 2);
    let q = quantize(&g, &params, &data.images[..2]);
    // Fenced: nothing of the pool has run when its span starts.
    let model = compile(&q, &CompileOptions { overlap: false });
    let Probe::Map(pooled) = &model.probes[pool] else {
        panic!("the pool writes a feature map")
    };
    assert_eq!(
        pooled.layout.lane_skew, 5,
        "the pool packs five pixels a row"
    );
    // Pixel (1, 1) of the replica the conv's first chain streams; lane 200
    // is in lane group 3, the pixel itself in group 1.
    let struck = pooled.parts[0][0].row(pooled.row_index(1, 1));
    let plan = FaultPlan::from_events(
        0,
        vec![FaultEvent {
            cycle: model.layer_spans[pool].start,
            kind: FaultKind::SramData {
                hemisphere: struck.hemisphere,
                slice: struck.slice,
                word: struck.word.word(),
                lane: 200,
                bit: 4,
            },
        }],
    );

    let image = q.quantize_image(&data.images[0]);
    let config = ChipConfig::asic();
    let clean = run_resilient(
        &model,
        &config,
        &image,
        &ResilientOptions::default(),
        &mut None,
    )
    .unwrap();
    let struck = run_resilient(
        &model,
        &config,
        &image,
        &ResilientOptions {
            strike: ChaosStrike::Transient(plan),
            ..ResilientOptions::default()
        },
        &mut None,
    )
    .unwrap();
    assert_eq!((struck.attempts, struck.faults_applied), (1, 1));
    assert_eq!(struck.corrected, 1, "corrected once, where it is consumed");
    assert_eq!(struck.logits(), clean.logits(), "logits unchanged");
}
