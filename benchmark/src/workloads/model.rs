//! What the workloads that run a compiled network share: the set-up
//! (graph → quantize → compile → decode), one inference on a fresh chip, and
//! the shape of the compiled program.

use std::sync::Arc;

use tsp_arch::ChipConfig;
use tsp_isa::{IcuOp, Instruction};
use tsp_nn::compile::{compile, CompileOptions, CompiledModel};
use tsp_nn::graph::{Graph, Params};
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::{Chip, DecodedProgram};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median_of;

/// What set-up leaves behind.
pub struct Ready {
    pub q: QuantGraph,
    pub model: Arc<CompiledModel>,
    pub decoded: Arc<DecodedProgram>,
}

/// Wall seconds of each set-up stage, one entry per set-up.
#[derive(Default)]
pub struct SetupTimes {
    graph_build: Vec<f64>,
    quantize: Vec<f64>,
    compile: Vec<f64>,
    decoded_lower: Vec<f64>,
}

impl SetupTimes {
    /// The stage medians, as `nn.*_s` / `isa.decoded_lower_s`.
    pub fn record(&self, out: &mut Outcome) {
        let p = &mut out.per_layer;
        p.insert("nn.graph_build_s", median_of(&self.graph_build));
        p.insert("nn.quantize_s", median_of(&self.quantize));
        if !self.compile.is_empty() {
            p.insert("nn.compile_s", median_of(&self.compile));
            p.insert("isa.decoded_lower_s", median_of(&self.decoded_lower));
        }
    }
}

/// Graph build → calibrate/quantize: all of the compile workload's set-up
/// (it times the rest as its op), the first half of the others'.
pub fn quantized(
    tr: &mut Tracer,
    times: &mut SetupTimes,
    build: impl FnOnce() -> (Graph, Params),
    calibration: &[Vec<f32>],
) -> QuantGraph {
    let ((g, params), secs) = tr.span("nn.graph_build", |_| build());
    times.graph_build.push(secs);
    let (q, secs) = tr.span("nn.quantize", |_| quantize(&g, &params, calibration));
    times.quantize.push(secs);
    q
}

/// Graph build → quantize → cold compile → decode, as a user pays them
/// before the first inference. (`compile_cached` would make every set-up
/// after the first a cache hit.)
pub fn set_up(
    tr: &mut Tracer,
    times: &mut SetupTimes,
    build: impl FnOnce() -> (Graph, Params),
    calibration: &[Vec<f32>],
) -> Ready {
    let q = quantized(tr, times, build, calibration);
    let (model, secs) = tr.span("nn.compile", |_| compile(&q, &CompileOptions::default()));
    times.compile.push(secs);
    let (decoded, secs) = tr.span("isa.decoded_lower", |_| model.decoded());
    times.decoded_lower.push(secs);
    Ready {
        q,
        model: Arc::new(model),
        decoded,
    }
}

/// One inference's result and the wall seconds of each call in it.
pub struct Inference {
    pub report: Result<RunReport, String>,
    pub logits: Vec<i8>,
    /// The whole op.
    pub secs: f64,
    calls: [f64; 5],
}

impl Inference {
    /// The run call alone.
    pub fn run_secs(&self) -> f64 {
        self.calls[3]
    }
}

/// Per-call wall seconds over many inferences.
#[derive(Default)]
pub struct CallTimes {
    chip_new: Vec<f64>,
    load_constants: Vec<f64>,
    write_input: Vec<f64>,
    pub run: Vec<f64>,
    read_logits: Vec<f64>,
}

impl CallTimes {
    pub fn push(&mut self, inference: &Inference) {
        let [chip_new, load_constants, write_input, run, read_logits] = inference.calls;
        self.chip_new.push(chip_new);
        self.load_constants.push(load_constants);
        self.write_input.push(write_input);
        self.run.push(run);
        self.read_logits.push(read_logits);
    }

    /// The medians of everything around the run call, as `sim.chip_new_s` and
    /// `nn.*_s`: what one dispatch pays outside `Chip::run`.
    pub fn record(&self, out: &mut Outcome) {
        let p = &mut out.per_layer;
        p.insert("sim.chip_new_s", median_of(&self.chip_new));
        p.insert("nn.load_constants_s", median_of(&self.load_constants));
        p.insert("nn.write_input_s", median_of(&self.write_input));
        p.insert("nn.read_logits_s", median_of(&self.read_logits));
    }
}

/// One inference: fresh chip → emplace → input → run → logits.
pub fn infer(tr: &mut Tracer, ready: &Ready, image_q: &[i8], options: &RunOptions) -> Inference {
    tr.next_op();
    let ((report, logits, calls), secs) = tr.span("op", |tr| {
        let (mut chip, chip_new) = tr.span("sim.chip_new", |_| Chip::new(ChipConfig::asic()));
        let ((), load) = tr.span("nn.load_constants", |_| {
            ready.model.load_constants(&mut chip)
        });
        let ((), write) = tr.span("nn.write_input", |_| {
            ready.model.write_input(&mut chip, image_q)
        });
        let (report, run) = tr.span("sim.run", |_| {
            if options.decoded {
                chip.run_decoded(&ready.decoded, options)
            } else {
                chip.run_interpreted(&ready.model.program, options)
            }
        });
        let (logits, read) = tr.span("nn.read_logits", |_| ready.model.read_logits(&chip));
        (
            report.map_err(|e| e.to_string()),
            logits,
            [chip_new, load, write, run, read],
        )
    });
    Inference {
        report,
        logits,
        secs,
        calls,
    }
}

/// `compiler.*`, `isa.decoded_ops` and `nn.constant_vectors` of a program.
pub fn program_shape(out: &mut Outcome, model: &CompiledModel, decoded: &DecodedProgram) {
    let nops = model
        .program
        .queues()
        .flat_map(|(_, q)| q)
        .filter(|i| matches!(i, Instruction::Icu(IcuOp::Nop { .. })))
        .count();
    let constants: usize = model.constants.iter().map(|(_, rows)| rows.len()).sum();
    let p = &mut out.per_layer;
    p.insert("compiler.instructions", model.program.len() as f64);
    p.insert("compiler.nops", nops as f64);
    p.insert("compiler.queue_span", model.program.queue_span() as f64);
    p.insert("isa.decoded_ops", decoded.len() as f64);
    p.insert("nn.constant_vectors", constants as f64);
}
