//! `resnet50_b1` and `resnet50_timing`: ResNet-50 224×224 batch-1 through
//! one compiled program, with the data path computed (`functional`) or
//! skipped (timing-only). Same layer, used two ways: a kernel speed-up moves
//! the first and must not move the second; a dispatch change moves both.

use tsp_nn::graph::{Graph, Params};
use tsp_nn::reference::{final_flat_q, run_int8};
use tsp_nn::resnet::{resnet, Widths};
use tsp_sim::chip::{RunOptions, RunReport};

use super::model::{infer, program_shape, set_up, CallTimes, SetupTimes};
use super::{
    closed_loop_end_to_end, micro, record, repeat_setup, timed_loop, trace_overhead, Plan,
};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{image, median_of, SplitMix64};

/// The paper's ResNet-50 batch-1 result, images per second at 900 MHz.
const PAPER_IPS: f64 = 20_400.0;
const CLOCK_HZ: f64 = 900e6;
/// `CompiledModel::cycles` may differ from the simulated count by the drain.
pub const PREDICTION_TOLERANCE: u64 = 4;

/// The ResNet-50 every bench bin of the repo uses (weight seed 7).
pub fn resnet50() -> (Graph, Params) {
    resnet(50, 224, 1000, &Widths::standard(), 7)
}

pub fn run(workload: &'static str, plan: &Plan, functional: bool) -> Outcome {
    let mut out = Outcome::new(workload, plan.seed, plan.seconds());
    let mut rng = SplitMix64::new(plan.seed);
    // Two images, cycled (one at smoke size: each costs an oracle run).
    let images: Vec<Vec<f32>> = (0..plan.size(2, 1))
        .map(|_| image(&mut rng, 224, 224, 3))
        .collect();
    let n = images.len();

    let mut silent = Tracer::new(false);
    let mut stages = SetupTimes::default();
    let options = RunOptions {
        functional,
        ..RunOptions::default()
    };
    // A set-up ends when the first two inferences have run: caches have
    // filled and lazy initialisation is over, as before any user's third.
    let (ready, setups) = repeat_setup(plan, || {
        let ready = set_up(&mut silent, &mut stages, resnet50, &images[..1]);
        let warm = ready.q.quantize_image(&images[0]);
        for _ in 0..plan.size(2, 0) {
            let _ = infer(&mut silent, &ready, &warm, &options);
        }
        ready
    });
    stages.record(&mut out);
    let images_q: Vec<Vec<i8>> = images.iter().map(|i| ready.q.quantize_image(i)).collect();

    // The oracle. Functional: the logits of the interpreted dispatch path,
    // the repo's line-for-line reference executor, for both images.
    // (`tsp_nn::reference::run_int8` would be the independent choice, but at
    // this commit the standard-width ResNet-50 disagrees with it — see
    // `nn.reference_mismatch_logits` — and a benchmark cannot fail every op.)
    // Both modes: the other mode's cycle, instruction and NOP counts (timing
    // never depends on data), plus the compiler's predicted cycles.
    let interpreted = RunOptions {
        decoded: false,
        ..RunOptions::default()
    };
    let mut expect: Vec<Vec<i8>> = Vec::new();
    for image_q in images_q.iter().take(if functional { n } else { 0 }) {
        let reference = infer(&mut silent, &ready, image_q, &interpreted);
        if let Err(e) = reference.report {
            out.fail(format!("interpreted reference run failed: {e}"));
            return out;
        }
        expect.push(reference.logits);
    }
    let other_mode = RunOptions {
        functional: !functional,
        ..RunOptions::default()
    };
    let mut other_times = CallTimes::default();
    let golden = infer(&mut silent, &ready, &images_q[0], &other_mode);
    other_times.push(&golden);
    let golden = match golden.report {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("reference run failed: {e}"));
            return out;
        }
    };

    let mut times = CallTimes::default();
    let mut last: Option<RunReport> = None;
    let ops = timed_loop(plan, &mut out, |i, out| {
        let op = infer(&mut silent, &ready, &images_q[i % n], &options);
        times.push(&op);
        match op.report {
            Err(e) => out.fail(format!("op {i}: {e}")),
            Ok(r) => {
                let counts = (r.cycles, r.instructions, r.nops);
                out.check(
                    counts == (golden.cycles, golden.instructions, golden.nops),
                    || {
                        let other = if functional { "timing-only" } else { "functional" };
                        format!("op {i}: cycles/instructions/nops {counts:?} differ from the {other} run's")
                    },
                );
                out.check(
                    r.cycles.abs_diff(ready.model.cycles) <= PREDICTION_TOLERANCE,
                    || {
                        format!(
                            "op {i}: simulated {} vs compiler-predicted {} cycles",
                            r.cycles, ready.model.cycles
                        )
                    },
                );
                if functional {
                    out.check(op.logits == expect[i % n], || {
                        format!("op {i}: logits differ from the interpreted path's")
                    });
                }
                last = Some(r);
            }
        }
        op.secs
    });
    let Some(report) = last else { return out };
    closed_loop_end_to_end(&mut out, &setups, &ops, report.cycles);

    let run_p50 = record(&mut out, "sim.run_s", &times.run);
    out.per_layer
        .insert("sim.mcycles_per_s", report.cycles as f64 / 1e6 / run_p50);
    times.record(&mut out);
    if !plan.trace {
        return out;
    }

    // ---- Traced pass: spans on, then the one-op variants and direct calls.
    let mut tr = Tracer::new(true);
    let traced: Vec<_> = (0..plan.size(3, 1))
        .map(|i| infer(&mut tr, &ready, &images_q[i % n], &options))
        .collect();
    let traced_secs: Vec<f64> = traced.iter().map(|op| op.secs).collect();
    out.per_layer.insert(
        "harness.trace_overhead_frac",
        trace_overhead(&traced_secs, median_of(&ops.raw)),
    );

    // The other mode, so both halves of `sim.datapath_share` come from one
    // process (the reference run above was its first sample).
    for _ in 0..plan.size(2, 0) {
        other_times.push(&infer(&mut tr, &ready, &images_q[0], &other_mode));
    }
    let other_p50 = median_of(&other_times.run);
    let (functional_s, timing_s) = if functional {
        (run_p50, other_p50)
    } else {
        (other_p50, run_p50)
    };
    let events = (report.instructions + report.nops) as f64;
    let p = &mut out.per_layer;
    p.insert("sim.run_functional_s", functional_s);
    p.insert("sim.run_timing_s", timing_s);
    p.insert("sim.datapath_share", 1.0 - timing_s / functional_s);
    p.insert("sim.host_ns_per_instruction", run_p50 * 1e9 / events);
    p.insert(
        "sim.host_ns_per_macc_wave",
        run_p50 * 1e9 / report.telemetry.macc_waves().max(1) as f64,
    );

    // Decode cache, counters, event trace and layer slicing, priced by
    // difference against `sim.run_s`: one op each.
    let variants: [(&'static str, RunOptions); 4] = [
        (
            "sim.run_interpreted_s",
            RunOptions {
                decoded: false,
                ..options.clone()
            },
        ),
        (
            "sim.run_nocounters_s",
            RunOptions {
                counters: false,
                ..options.clone()
            },
        ),
        (
            "sim.run_trace_s",
            RunOptions {
                trace: true,
                ..options.clone()
            },
        ),
        (
            "sim.run_layers_s",
            RunOptions {
                layers: ready.model.layer_marks(),
                ..options.clone()
            },
        ),
    ];
    // (At smoke size, only the two variants that feed other metrics.)
    for (name, variant) in variants.into_iter().skip(plan.size(0, 2)) {
        let op = infer(&mut tr, &ready, &images_q[0], &variant);
        out.per_layer.insert(name, op.run_secs());
        match op.report {
            Err(e) => out.fail(format!("{name}: {e}")),
            Ok(r) => {
                out.check(r.cycles == report.cycles, || {
                    format!("{name}: cycles moved to {}", r.cycles)
                });
                if variant.trace {
                    micro::telemetry_exports(&mut tr, &mut out, &r);
                }
                if !variant.layers.is_empty() {
                    layer_breakdown(&mut out, &r);
                }
            }
        }
    }
    super::sim_counters(&mut out, &report);
    program_shape(&mut out, &ready.model, &ready.decoded);
    let p = &mut out.per_layer;
    p.insert(
        "nn.predicted_cycle_error",
        ready.model.cycles.abs_diff(report.cycles) as f64,
    );
    p.insert(
        "nn.paper_ips_ratio",
        CLOCK_HZ / report.cycles as f64 / PAPER_IPS,
    );
    if functional {
        // Accuracy against the repo's one independent model of the network,
        // the host int8 executor: how many logits of image 0 differ.
        let (values, secs) = tr.span("nn.reference_int8", |_| run_int8(&ready.q, &images_q[0]));
        let differing = traced[0]
            .logits
            .iter()
            .zip(final_flat_q(&values))
            .filter(|(got, want)| got != want)
            .count();
        out.per_layer.insert("nn.reference_int8_s", secs);
        out.per_layer
            .insert("nn.reference_mismatch_logits", differing as f64);
        micro::sim_kernels(&mut tr, &mut out);
        micro::ecc(&mut tr, &mut out);
    }
    out.trace = Some(tr);
    out
}

/// `stage.*` and `kind.*`: the simulated cycles of one inference split by
/// ResNet stage and by layer kind, from the layer slices.
fn layer_breakdown(out: &mut Outcome, report: &RunReport) {
    const STAGES: [&str; 6] = [
        "stage.stem.cycles",
        "stage.s2.cycles",
        "stage.s3.cycles",
        "stage.s4.cycles",
        "stage.s5.cycles",
        "stage.head.cycles",
    ];
    const KINDS: [(&str, &str, &str); 4] = [
        ("_b", "kind.conv3x3.cycles", "kind.conv3x3.waves_per_cycle"),
        ("_a", "kind.conv1x1.cycles", "kind.conv1x1.waves_per_cycle"),
        ("_proj", "kind.proj.cycles", "kind.proj.waves_per_cycle"),
        ("_add", "kind.add.cycles", ""),
    ];
    let mut stage_cycles = [0u64; 6];
    let mut kind_cycles = [0u64; 4];
    let mut kind_waves = [0u64; 4];
    for slice in &report.layers {
        let name: &str = &slice.name;
        let stage = match name.get(..2) {
            Some("s2") => 1,
            Some("s3") => 2,
            Some("s4") => 3,
            Some("s5") => 4,
            _ if name == "gap" || name == "fc" => 5,
            _ => 0,
        };
        stage_cycles[stage] += slice.cycles();
        // `_c` is the block's second 1×1 conv: same kind as `_a`.
        let suffix = name.rfind('_').map_or("", |i| &name[i..]);
        let suffix = if suffix == "_c" { "_a" } else { suffix };
        if let Some(k) = KINDS.iter().position(|(s, _, _)| *s == suffix) {
            kind_cycles[k] += slice.cycles();
            kind_waves[k] += slice.telemetry.macc_waves();
        }
    }
    // The slices tile `[0, last mark)`; the pipeline drain after the last
    // mark belongs to the head. With that, the stages sum to the run's
    // cycles by construction — provided the slices really are contiguous.
    let mut at = 0;
    let contiguous = report
        .layers
        .iter()
        .all(|s| std::mem::replace(&mut at, s.end) == s.start);
    out.check(contiguous && at <= report.cycles, || {
        format!(
            "layer slices do not tile [0, {at}) within the run's {} cycles",
            report.cycles
        )
    });
    stage_cycles[5] += report.cycles.saturating_sub(at);
    let p = &mut out.per_layer;
    for (name, cycles) in STAGES.iter().zip(stage_cycles) {
        p.insert(name, cycles as f64);
    }
    for (k, (_, cycles_name, waves_name)) in KINDS.iter().enumerate() {
        p.insert(cycles_name, kind_cycles[k] as f64);
        if !waves_name.is_empty() {
            p.insert(
                waves_name,
                kind_waves[k] as f64 / kind_cycles[k].max(1) as f64,
            );
        }
    }
}
