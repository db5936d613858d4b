//! The harness's shared reference workloads, spanning the simulator's
//! regimes: `tsp-prof` profiles where their simulated cycles go, and the
//! `decoded_equiv` / `telemetry_determinism` tests run them.

use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::kernels::binary_ew;
use tsp_compiler::kernels::matmul::PlaneChainBuilder;
use tsp_compiler::kernels::ActFeed;
use tsp_compiler::Scheduler;
use tsp_isa::{BinaryAluOp, Plane};
use tsp_nn::batch::{compile_batch_cached, BatchModel};
use tsp_nn::compile::{compile_cached, CompileOptions, CompiledModel};
use tsp_nn::data::synthetic;
use tsp_nn::quant::{quantize, QuantGraph};
use tsp_nn::resnet::{resnet, Widths};
use tsp_nn::train::small_cnn;
use tsp_sim::Program;

use std::sync::Arc;
use tsp_arch::Hemisphere;

/// Fig. 3's stream program: Z = X + Y over 1000 vectors (320k elements).
/// MEM/VXM bound; run functionally.
#[must_use]
pub fn vector_add_program() -> Program {
    let mut sched = Scheduler::new();
    let x = sched
        .alloc
        .alloc_in(Some(Hemisphere::East), 1000, 320, BankPolicy::Low, 4096)
        .unwrap();
    let y = sched
        .alloc
        .alloc_in(Some(Hemisphere::West), 1000, 320, BankPolicy::Low, 4096)
        .unwrap();
    let _ = binary_ew(
        &mut sched,
        BinaryAluOp::AddSat,
        &x,
        &y,
        Hemisphere::East,
        BankPolicy::High,
        0,
    );
    sched.into_program().unwrap()
}

/// Fig. 9's roofline program: `planes` planes each reusing one 320×320
/// weight set over `rows` activation rows. Its peak point, 4096 rows on all
/// four planes, saturates the MXM (usually run timing-only).
#[must_use]
pub fn roofline_program(rows: u32, planes: u8) -> Program {
    let mut sched = Scheduler::new();
    let row_ids: Vec<u32> = (0..rows).collect();
    for p in 0..planes {
        let w = sched
            .alloc
            .alloc(320, 320, BankPolicy::Low, 20)
            .expect("weights");
        let x = sched
            .alloc
            .alloc(rows, 320, BankPolicy::High, 4096)
            .expect("acts");
        let mut chain = PlaneChainBuilder::new(&sched, Plane::new(p), u64::from(rows), 0);
        PlaneChainBuilder::install(&mut sched, &w, std::slice::from_mut(&mut chain));
        chain.feed(&mut sched, ActFeed::Read(&x), &row_ids);
        let _ = chain.finish();
    }
    sched.into_program().unwrap()
}

/// ResNet-`depth` (50, 101 or 152) batch-1 at 224×224, quantized, with one
/// quantized input image — the image its calibration ran on.
#[must_use]
pub fn resnet_quant(depth: u32) -> (QuantGraph, Vec<i8>) {
    let data = synthetic(3, 224, 224, 3, 2, 1);
    let (g, params) = resnet(depth, 224, 1000, &Widths::standard(), 7);
    let q = quantize(&g, &params, &data.images[..1]);
    let image = q.quantize_image(&data.images[0]);
    (q, image)
}

/// ResNet-`depth` (50, 101 or 152) batch-1 at 224×224 — ResNet-50 is the
/// end-to-end functional worst case — compiled (through the compile cache)
/// with one quantized input image ([`resnet_quant`]).
#[must_use]
pub fn resnet_model(depth: u32) -> (Arc<CompiledModel>, Vec<i8>) {
    let (q, image) = resnet_quant(depth);
    (compile_cached(&q, &CompileOptions::default()), image)
}

/// The served model: `small_cnn` on 12×12×2 images, compiled for batches of
/// up to 4, with the 8 quantized inputs its requests index into.
#[must_use]
pub fn small_cnn_batch() -> (BatchModel, Vec<Vec<i8>>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile_batch_cached(&q, &CompileOptions::default(), 4);
    let images = data.images[..8]
        .iter()
        .map(|i| q.quantize_image(i))
        .collect();
    (model, images)
}
