//! Direct calls into single layers, run in the traced pass only: the
//! compiler's public kernels on a fresh `Scheduler`, the simulator's data-path
//! kernels, SECDED encode/check, and the telemetry exporters. They price a
//! layer in isolation; the workloads say what that is worth end to end.

use std::sync::Arc;

use tsp_arch::{Hemisphere, Position, StreamId, Vector};
use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::kernels::conv::alloc_feature_map;
use tsp_compiler::kernels::{
    conv2d, emplace_conv_weights, matmul, max_pool, Conv2dParams, MatmulOpts, MaxPoolParams,
    WeightSet,
};
use tsp_compiler::Scheduler;
use tsp_isa::{BinaryAluOp, DataType};
use tsp_sim::chip::RunReport;
use tsp_sim::mxm_unit::MxmPlane;
use tsp_sim::stream_file::{StreamFile, StreamWord};
use tsp_sim::vxm_unit;

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median_of;

/// Schedulings per compiler kernel; the median is reported.
const KERNEL_REPS: usize = 9;

/// Schedules a `k`×`k` convolution of a 14×14 map with `c` channels in and
/// out on a fresh scheduler, returning the scheduler and the `conv2d` wall.
fn schedule_conv(tr: &mut Tracer, name: &'static str, k: usize, c: usize) -> (Scheduler, f64) {
    let mut sched = Scheduler::new();
    let pad = (k / 2) as u32;
    let input = alloc_feature_map(&mut sched, 14, 14, c as u32, pad, Hemisphere::East, 4);
    let weights = emplace_conv_weights(&mut sched, &vec![vec![vec![vec![1i8; k]; k]; c]; c], 1);
    let params = Conv2dParams {
        pad,
        requant_shift: 6,
        relu: true,
        ..Conv2dParams::default()
    };
    let (_, secs) = tr.span(name, |_| conv2d(&mut sched, &input, &weights, &params));
    (sched, secs)
}

/// `compiler.*_s`: host seconds to schedule one kernel of each kind.
pub fn compiler_kernels(tr: &mut Tracer, out: &mut Outcome) {
    let mut conv3x3 = Vec::new();
    let mut into_program = Vec::new();
    for _ in 0..KERNEL_REPS {
        let (sched, secs) = schedule_conv(tr, "compiler.conv3x3_64", 3, 64);
        conv3x3.push(secs);
        let (program, secs) = tr.span("compiler.into_program", |_| sched.into_program());
        into_program.push(secs);
        out.check(program.is_ok(), || {
            "conv3x3 schedule is illegal".to_string()
        });
    }
    let conv1x1: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| schedule_conv(tr, "compiler.conv1x1_256", 1, 256).1)
        .collect();
    let matmul_320: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let mut sched = Scheduler::new();
            let weights = sched.add_constant(vec![Vector::splat(1); 320], 320, BankPolicy::Low, 20);
            let x = sched
                .alloc
                .alloc_in(Some(Hemisphere::West), 512, 320, BankPolicy::High, 4096)
                .expect("an empty chip holds 512 activation rows");
            let wset = WeightSet {
                k: 320,
                m: 320,
                parts: vec![vec![vec![weights]]],
            };
            let opts = MatmulOpts {
                requant_shift: 4,
                relu: true,
                out_hemisphere: Hemisphere::East,
                ..MatmulOpts::default()
            };
            tr.span("compiler.matmul_320", |_| {
                matmul(&mut sched, &[vec![x]], &wset, &opts)
            })
            .1
        })
        .collect();
    let maxpool: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let mut sched = Scheduler::new();
            let input = alloc_feature_map(&mut sched, 12, 12, 32, 1, Hemisphere::East, 9);
            let params = MaxPoolParams {
                kernel: 3,
                stride: 2,
                pad: 1,
                out_pad: 0,
                out_hemisphere: Hemisphere::West,
                out_replicas: 1,
                not_before: 0,
            };
            tr.span("compiler.maxpool3x3", |_| {
                max_pool(&mut sched, &input, &params)
            })
            .1
        })
        .collect();
    let p = &mut out.per_layer;
    p.insert("compiler.conv3x3_64_s", median_of(&conv3x3));
    p.insert("compiler.conv1x1_256_s", median_of(&conv1x1));
    p.insert("compiler.matmul_320_s", median_of(&matmul_320));
    p.insert("compiler.maxpool3x3_s", median_of(&maxpool));
    p.insert("compiler.into_program_s", median_of(&into_program));
}

/// `sim.mxm_feed_i8_gmacs`, `sim.vxm_add_sat_gops`,
/// `sim.stream_file_roundtrip_ns`: the data-path kernels, called directly.
pub fn sim_kernels(tr: &mut Tracer, out: &mut Outcome) {
    const WAVES: u64 = 4000;
    let mut plane = MxmPlane::new();
    for group in 0..20u8 {
        let rows: Vec<Vector> = (0..16).map(|j| Vector::splat(j as u8)).collect();
        plane.load_weight_rows(group, &rows);
    }
    plane.install(DataType::Int8);
    let act = Vector::from_fn(|i| i as u8);
    let ((), secs) = tr.span("sim.mxm_feed_i8", |_| {
        for t in 0..WAVES {
            plane.feed_activation_i8(t, &act);
            std::hint::black_box(plane.accumulate(t + 65, 0, false).is_some());
        }
    });
    // One activation wave is a 320×320 pass: 102,400 MACs.
    out.per_layer.insert(
        "sim.mxm_feed_i8_gmacs",
        (WAVES * 320 * 320) as f64 / secs / 1e9,
    );

    const ADDS: u64 = 20_000;
    let (a, b) = ([Vector::from_fn(|i| i as u8)], [Vector::splat(100)]);
    let ((), secs) = tr.span("sim.vxm_add_sat", |_| {
        for _ in 0..ADDS {
            let sum = vxm_unit::apply_binary(
                BinaryAluOp::AddSat,
                DataType::Int8,
                std::hint::black_box(&a),
                &b,
            );
            std::hint::black_box(sum.is_ok());
        }
    });
    out.per_layer
        .insert("sim.vxm_add_sat_gops", (ADDS * 320) as f64 / secs / 1e9);

    const ROUNDTRIPS: u64 = 200_000;
    let mut file = StreamFile::new();
    let word = Arc::new(StreamWord::protect(Vector::splat(7)));
    let ((), secs) = tr.span("sim.stream_file_roundtrip", |_| {
        for t in 0..ROUNDTRIPS {
            file.write(StreamId::east(3), Position(10), t, Arc::clone(&word));
            std::hint::black_box(file.read(StreamId::east(3), Position(20), t + 10));
        }
    });
    out.per_layer.insert(
        "sim.stream_file_roundtrip_ns",
        secs * 1e9 / ROUNDTRIPS as f64,
    );
}

/// `mem.ecc_encode_ns`, `mem.ecc_check_ns`: SECDED over one 16-byte word.
pub fn ecc(tr: &mut Tracer, out: &mut Outcome) {
    const WORDS: u64 = 200_000;
    let data = [0xA5u8; 16];
    let ((), secs) = tr.span("mem.ecc_encode", |_| {
        for _ in 0..WORDS {
            std::hint::black_box(tsp_mem::ecc::encode(std::hint::black_box(&data)));
        }
    });
    out.per_layer
        .insert("mem.ecc_encode_ns", secs * 1e9 / WORDS as f64);
    let check = tsp_mem::ecc::encode(&data);
    let ((), secs) = tr.span("mem.ecc_check", |_| {
        for _ in 0..WORDS {
            let mut word = std::hint::black_box(data);
            std::hint::black_box(tsp_mem::ecc::check_and_correct(&mut word, check).is_ok());
        }
    });
    out.per_layer
        .insert("mem.ecc_check_ns", secs * 1e9 / WORDS as f64);
}

/// `telemetry.*`: what exporting one traced run costs, and how big it is.
pub fn telemetry_exports(tr: &mut Tracer, out: &mut Outcome, traced: &RunReport) {
    let (json, to_json_s) = tr.span("telemetry.to_json", |_| traced.telemetry.to_json(0));
    let (doc, perfetto_s) = tr.span("telemetry.perfetto_export", |_| {
        tsp_sim::perfetto_json(&traced.trace)
    });
    out.check(tsp_telemetry::json::Json::parse(&json).is_ok(), || {
        "Telemetry::to_json is not JSON".to_string()
    });
    // The structural validator re-parses the document; on ResNet-50's
    // export that takes longer than the whole timed pass, so only documents
    // of `stream_vadd`'s size are validated here.
    const VALIDATE_MAX_BYTES: usize = 1 << 20;
    out.check(
        doc.len() > VALIDATE_MAX_BYTES || tsp_telemetry::perfetto::validate(&doc).is_ok(),
        || "perfetto export does not validate".to_string(),
    );
    let p = &mut out.per_layer;
    p.insert("telemetry.to_json_s", to_json_s);
    p.insert("telemetry.perfetto_export_s", perfetto_s);
    p.insert("telemetry.trace_events", traced.trace.events().len() as f64);
    p.insert(
        "telemetry.dropped_events",
        traced.telemetry.dropped_events as f64,
    );
}
