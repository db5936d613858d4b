//! Pins the compiled program of every model the benches and `tsp-serve` run:
//! a refactor of the lowering must leave each fingerprint (queues, constants,
//! I/O handles — see `common::fingerprint`) and cycle count as they are; a
//! change that is *meant* to move programs updates the goldens here the way
//! it regenerates `results/*.txt`. The weights are synthetic: schedules do
//! not depend on them, the constants' bytes do.

mod common;

use tsp_nn::compile::{compile, CompileOptions};
use tsp_nn::graph::Graph;
use tsp_nn::resnet::{resnet, resnet_tiny, Widths};
use tsp_nn::train::small_cnn;

fn check(name: &str, graph: &Graph, cycles: u64, golden: u64) {
    let model = compile(&common::synthetic_quant(graph), &CompileOptions::default());
    assert_eq!(model.rollbacks, 0, "{name}: a kernel was rescheduled");
    assert_eq!(
        (model.cycles, common::fingerprint(&model)),
        (cycles, golden),
        "{name}'s program moved"
    );
}

fn standard_resnet(depth: u32) -> Graph {
    resnet(depth, 224, 1000, &Widths::standard(), 7).0
}

#[test]
fn resnet50_program_is_pinned() {
    check(
        "resnet50",
        &standard_resnet(50),
        47_818,
        5_628_478_271_483_619_722,
    );
}

#[test]
fn resnet101_program_is_pinned() {
    check(
        "resnet101",
        &standard_resnet(101),
        74_136,
        3_517_801_597_647_514_567,
    );
}

#[test]
fn resnet152_program_is_pinned() {
    check(
        "resnet152",
        &standard_resnet(152),
        112_971,
        358_544_181_919_883_068,
    );
}

#[test]
fn resnet_tiny_program_is_pinned() {
    check(
        "resnet_tiny",
        &resnet_tiny(10, 7).0,
        2_029,
        6_486_750_214_488_196_863,
    );
}

#[test]
fn small_cnn_program_is_pinned() {
    check(
        "small_cnn",
        &small_cnn(12, 16, 4, 5).0,
        1_200,
        8_247_276_815_083_673_461,
    );
}
