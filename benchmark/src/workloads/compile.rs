//! `compile_resnet50`: cold `tsp_nn::compile` of the quantized ResNet-50,
//! then encode → decode → lower of every instruction queue. `tsp-compiler`,
//! `tsp-nn::compile` and `tsp-isa` do all the work and `tsp-sim` none, so
//! simulator work must not move it — and a new conv lowering moves its time,
//! its instruction count and its `sim_cycles_p50` together.

use tsp_arch::ChipConfig;
use tsp_isa::encode::{decode_sequence, encode_sequence};
use tsp_nn::compile::{compile, compile_cached, CompileOptions, CompiledModel};
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, DecodedProgram};

use super::model::{program_shape, quantized, SetupTimes};
use super::resnet::{resnet50, PREDICTION_TOLERANCE};
use super::{closed_loop_end_to_end, micro, repeat_setup, timed_loop, trace_overhead, Plan};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{image, median_of, SplitMix64};

#[derive(Default)]
struct OpTimes {
    compile: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    decoded_lower: Vec<f64>,
}

struct Compiled {
    model: CompiledModel,
    decoded: DecodedProgram,
    program_bytes: usize,
    /// `decode_sequence(encode_sequence(q)) == q` held for every queue.
    round_trips: bool,
}

fn compile_op(tr: &mut Tracer, times: &mut OpTimes, q: &tsp_nn::QuantGraph) -> (Compiled, f64) {
    tr.next_op();
    tr.span("op", |tr| {
        let (model, s) = tr.span("nn.compile", |_| compile(q, &CompileOptions::default()));
        times.compile.push(s);
        let (encoded, s) = tr.span("isa.encode", |_| {
            model
                .program
                .queues()
                .map(|(_, queue)| encode_sequence(queue))
                .collect::<Vec<_>>()
        });
        times.encode.push(s);
        let (decoded_queues, s) = tr.span("isa.decode", |_| {
            encoded
                .iter()
                .map(|bytes| decode_sequence(bytes))
                .collect::<Vec<_>>()
        });
        times.decode.push(s);
        let (decoded, s) = tr.span("isa.decoded_lower", |_| {
            DecodedProgram::decode(&model.program)
        });
        times.decoded_lower.push(s);
        let round_trips = model
            .program
            .queues()
            .zip(&decoded_queues)
            .all(|((_, queue), back)| matches!(back, Ok(b) if b.as_slice() == queue));
        Compiled {
            program_bytes: encoded.iter().map(Vec::len).sum(),
            model,
            decoded,
            round_trips,
        }
    })
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new("compile_resnet50", plan.seed, plan.seconds());
    let mut rng = SplitMix64::new(plan.seed);
    let calibration = [image(&mut rng, 224, 224, 3)];

    let mut silent = Tracer::new(false);
    let mut stages = SetupTimes::default();
    // A set-up ends when the first compile has run.
    let (q, setups) = repeat_setup(plan, || {
        let q = quantized(&mut silent, &mut stages, resnet50, &calibration);
        for _ in 0..plan.size(1, 0) {
            let _ = compile_op(&mut silent, &mut OpTimes::default(), &q);
        }
        q
    });
    stages.record(&mut out);

    let mut times = OpTimes::default();
    let mut last: Option<Compiled> = None;
    let ops = timed_loop(plan, &mut out, |i, out| {
        let (compiled, secs) = compile_op(&mut silent, &mut times, &q);
        out.check(compiled.round_trips, || {
            format!("op {i}: decode(encode(queue)) != queue")
        });
        out.check(
            last.as_ref()
                .is_none_or(|l| l.model.cycles == compiled.model.cycles),
            || format!("op {i}: compiled cycles moved to {}", compiled.model.cycles),
        );
        last = Some(compiled);
        secs
    });
    let Some(compiled) = last else { return out };

    // The product's quality is part of the result: one untimed timing-only
    // run of the compiled program gives the workload's simulated cycles.
    let confirm = Chip::new(ChipConfig::asic()).run_decoded(
        &compiled.decoded,
        &RunOptions {
            functional: false,
            ..RunOptions::default()
        },
    );
    let report = match confirm {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("compiled program does not run: {e}"));
            return out;
        }
    };
    out.check(
        report.cycles.abs_diff(compiled.model.cycles) <= PREDICTION_TOLERANCE,
        || {
            format!(
                "simulated {} vs compiler-predicted {} cycles",
                report.cycles, compiled.model.cycles
            )
        },
    );
    closed_loop_end_to_end(&mut out, &setups, &ops, report.cycles);

    let p = &mut out.per_layer;
    p.insert("nn.compile_s", median_of(&times.compile));
    p.insert("isa.encode_s", median_of(&times.encode));
    p.insert("isa.decode_s", median_of(&times.decode));
    p.insert("isa.decoded_lower_s", median_of(&times.decoded_lower));
    p.insert("isa.program_bytes", compiled.program_bytes as f64);
    if !plan.trace {
        return out;
    }

    let mut tr = Tracer::new(true);
    let mut traced = Vec::new();
    for _ in 0..plan.size(3, 1) {
        traced.push(compile_op(&mut tr, &mut OpTimes::default(), &q).1);
    }
    out.per_layer.insert(
        "harness.trace_overhead_frac",
        trace_overhead(&traced, median_of(&ops.raw)),
    );

    // The memoized path every bench bin takes: the first call fills the
    // cache, the rest price a hit (fingerprinting the graph, one lookup).
    let _ = compile_cached(&q, &CompileOptions::default());
    let hits: Vec<f64> = (0..5)
        .map(|_| {
            tr.span("nn.compile_cached_hit", |_| {
                compile_cached(&q, &CompileOptions::default())
            })
            .1
        })
        .collect();
    out.per_layer
        .insert("nn.compile_cached_hit_s", median_of(&hits));

    program_shape(&mut out, &compiled.model, &compiled.decoded);
    out.per_layer.insert(
        "nn.predicted_cycle_error",
        compiled.model.cycles.abs_diff(report.cycles) as f64,
    );
    micro::compiler_kernels(&mut tr, &mut out);
    out.trace = Some(tr);
    out
}
