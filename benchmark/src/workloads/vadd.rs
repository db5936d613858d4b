//! `stream_vadd`: Fig. 3's `Z = sat(X + Y)` over 1000 vectors, a fresh chip
//! per op. MEM + VXM only — no MXM, no `tsp-nn` — so it is bound by dispatch
//! and `Chip::new`, and bypasses everything `resnet50_b1` is dominated by.

use tsp_arch::{ChipConfig, Hemisphere, Vector};
use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::kernels::binary_ew;
use tsp_compiler::{Scheduler, TensorHandle};
use tsp_isa::BinaryAluOp;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::{Chip, DecodedProgram, Program};

use super::{
    closed_loop_end_to_end, micro, record, repeat_setup, timed_loop, trace_overhead, Plan,
};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median_of, SplitMix64};

const VECTORS: u32 = 1000;

struct Ready {
    program: Program,
    decoded: DecodedProgram,
    x: TensorHandle,
    y: TensorHandle,
    z: TensorHandle,
}

/// The same program `simspeed`'s `vector_add_stream` row runs.
fn set_up(tr: &mut Tracer) -> Ready {
    let ((program, x, y, z), _) = tr.span("compiler.schedule", |_| {
        let mut sched = Scheduler::new();
        let mut operand = |hemisphere| {
            sched
                .alloc
                .alloc_in(Some(hemisphere), VECTORS, 320, BankPolicy::Low, 4096)
                .expect("an empty chip holds 1000 vectors per hemisphere")
        };
        let x = operand(Hemisphere::East);
        let y = operand(Hemisphere::West);
        let (z, _) = binary_ew(
            &mut sched,
            BinaryAluOp::AddSat,
            &x,
            &y,
            Hemisphere::East,
            BankPolicy::High,
            0,
        );
        let program = sched
            .into_program()
            .expect("the vector-add schedule is legal");
        (program, x, y, z)
    });
    let (decoded, _) = tr.span("isa.decoded_lower", |_| DecodedProgram::decode(&program));
    Ready {
        program,
        decoded,
        x,
        y,
        z,
    }
}

#[derive(Default)]
struct OpTimes {
    chip_new: Vec<f64>,
    run: Vec<f64>,
}

/// One op: fresh chip → write X and Y → run → read Z back.
fn vadd(
    tr: &mut Tracer,
    times: &mut OpTimes,
    ready: &Ready,
    (x, y): (&[Vector], &[Vector]),
    options: &RunOptions,
) -> (Result<RunReport, String>, Vec<Vector>, f64) {
    tr.next_op();
    let ((report, z), secs) = tr.span("op", |tr| {
        let (mut chip, s) = tr.span("sim.chip_new", |_| Chip::new(ChipConfig::asic()));
        times.chip_new.push(s);
        tr.span("mem.write_inputs", |_| {
            for (handle, rows) in [(&ready.x, x), (&ready.y, y)] {
                for (r, v) in rows.iter().enumerate() {
                    chip.memory.write(handle.row(r as u32), v.clone());
                }
            }
        });
        let (report, s) = tr.span("sim.run", |_| {
            if options.decoded {
                chip.run_decoded(&ready.decoded, options)
            } else {
                chip.run_interpreted(&ready.program, options)
            }
        });
        times.run.push(s);
        let (z, _) = tr.span("mem.read_outputs", |_| {
            (0..VECTORS)
                .map(|r| chip.memory.read_unchecked(ready.z.row(r)))
                .collect::<Vec<_>>()
        });
        (report.map_err(|e| e.to_string()), z)
    });
    (report, z, secs)
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new("stream_vadd", plan.seed, plan.seconds());
    let mut rng = SplitMix64::new(plan.seed);
    let mut vectors = || -> Vec<Vector> {
        (0..VECTORS)
            .map(|_| {
                let mut words = [0u64; 40];
                words.fill_with(|| rng.next_u64());
                Vector::from_fn(|lane| words[lane / 8].to_le_bytes()[lane % 8])
            })
            .collect()
    };
    let (x, y) = (vectors(), vectors());
    // The oracle: the host's own saturating int8 add of the seeded X, Y.
    let expect: Vec<Vector> = x
        .iter()
        .zip(&y)
        .map(|(a, b)| a.zip_map_i8(b, i8::saturating_add))
        .collect();

    let mut silent = Tracer::new(false);
    let options = RunOptions::default();
    // A set-up ends when the first 200 ops have run (a fifth of a second).
    let (ready, setups) = repeat_setup(plan, || {
        let ready = set_up(&mut silent);
        for _ in 0..plan.size(200, 0) {
            let _ = vadd(
                &mut silent,
                &mut OpTimes::default(),
                &ready,
                (&x, &y),
                &options,
            );
        }
        ready
    });

    let mut times = OpTimes::default();
    let mut last: Option<RunReport> = None;
    let ops = timed_loop(plan, &mut out, |i, out| {
        let (report, z, secs) = vadd(&mut silent, &mut times, &ready, (&x, &y), &options);
        match report {
            Err(e) => out.fail(format!("op {i}: {e}")),
            Ok(r) => {
                out.check(z == expect, || {
                    format!("op {i}: Z differs from the host's saturating add")
                });
                out.check(last.as_ref().is_none_or(|l| l.cycles == r.cycles), || {
                    format!("op {i}: cycles moved to {}", r.cycles)
                });
                last = Some(r);
            }
        }
        secs
    });
    let Some(report) = last else { return out };
    closed_loop_end_to_end(&mut out, &setups, &ops, report.cycles);

    let run_p50 = record(&mut out, "sim.run_s", &times.run);
    let p = &mut out.per_layer;
    p.insert("sim.mcycles_per_s", report.cycles as f64 / 1e6 / run_p50);
    p.insert("sim.chip_new_s", median_of(&times.chip_new));
    if !plan.trace {
        return out;
    }

    let mut tr = Tracer::new(true);
    let mut traced = Vec::new();
    for _ in 0..plan.size(200, 1) {
        traced.push(vadd(&mut tr, &mut OpTimes::default(), &ready, (&x, &y), &options).2);
    }
    out.per_layer.insert(
        "harness.trace_overhead_frac",
        trace_overhead(&traced, median_of(&ops.raw)),
    );

    let variants: [(&'static str, RunOptions); 5] = [
        (
            "sim.run_timing_s",
            RunOptions {
                functional: false,
                ..options.clone()
            },
        ),
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
        // One mark at the end of time: the cost of slicing, with one slice.
        (
            "sim.run_layers_s",
            RunOptions {
                layers: vec![tsp_sim::LayerMark {
                    name: "vadd".into(),
                    end: u64::MAX,
                }],
                ..options.clone()
            },
        ),
    ];
    for (name, variant) in variants {
        let mut t = OpTimes::default();
        let mut traced_report = None;
        for _ in 0..plan.size(50, 1) {
            match vadd(&mut tr, &mut t, &ready, (&x, &y), &variant).0 {
                Err(e) => out.fail(format!("{name}: {e}")),
                Ok(r) => {
                    out.check(r.cycles == report.cycles, || {
                        format!("{name}: cycles moved to {}", r.cycles)
                    });
                    traced_report = Some(r);
                }
            }
        }
        out.per_layer.insert(name, median_of(&t.run));
        if let (true, Some(r)) = (variant.trace, traced_report) {
            micro::telemetry_exports(&mut tr, &mut out, &r);
        }
    }
    let timing_s = out.per_layer["sim.run_timing_s"];
    let events = (report.instructions + report.nops) as f64;
    let p = &mut out.per_layer;
    p.insert("sim.run_functional_s", run_p50);
    p.insert("sim.datapath_share", 1.0 - timing_s / run_p50);
    p.insert("sim.host_ns_per_instruction", run_p50 * 1e9 / events);
    p.insert("compiler.instructions", ready.program.len() as f64);
    p.insert("compiler.queue_span", ready.program.queue_span() as f64);
    p.insert("isa.decoded_ops", ready.decoded.len() as f64);
    super::sim_counters(&mut out, &report);
    out.trace = Some(tr);
    out
}
