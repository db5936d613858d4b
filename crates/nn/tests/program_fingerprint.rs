//! Pins the compiled program of every model the benches and `tsp-serve` run:
//! a refactor of the lowering must leave each fingerprint (queues, constants,
//! I/O handles — see `common::fingerprint`) and cycle count as they are; a
//! change that is *meant* to move programs regenerates [`GOLDENS`] the way it
//! regenerates `results/*.txt` — `print_goldens` prints the table to paste.
//! The weights are synthetic: schedules do not depend on them, the
//! constants' bytes do.

mod common;

use tsp_nn::compile::{compile, CompileOptions};
use tsp_nn::graph::Graph;
use tsp_nn::resnet::{resnet, resnet_tiny, Widths};
use tsp_nn::train::small_cnn;

/// `(model, cycles, fingerprint)`.
const GOLDENS: [(&str, u64, u64); 5] = [
    ("resnet50", 42_381, 5_205_861_184_516_835_826),
    ("resnet101", 65_506, 1_640_226_068_994_973_281),
    ("resnet152", 101_640, 2_036_522_371_406_926_613),
    ("resnet_tiny", 2_050, 11_443_601_316_057_677_279),
    ("small_cnn", 1_200, 5_582_881_341_638_099_433),
];

fn graph(model: &str) -> Graph {
    let standard = |depth| resnet(depth, 224, 1000, &Widths::standard(), 7).0;
    match model {
        "resnet50" => standard(50),
        "resnet101" => standard(101),
        "resnet152" => standard(152),
        "resnet_tiny" => resnet_tiny(10, 7).0,
        "small_cnn" => small_cnn(12, 16, 4, 5).0,
        _ => panic!("no model {model}"),
    }
}

/// `model`'s compiled cycle count and program fingerprint.
fn measure(model: &str) -> (u64, u64) {
    let quant = common::synthetic_quant(&graph(model));
    let compiled = compile(&quant, &CompileOptions::default());
    assert_eq!(compiled.rollbacks, 0, "{model}: a kernel was rescheduled");
    (compiled.cycles, common::fingerprint(&compiled))
}

fn check(model: &str) {
    let golden = GOLDENS.iter().find(|g| g.0 == model).expect("a golden");
    assert_eq!(
        measure(model),
        (golden.1, golden.2),
        "{model}'s program moved"
    );
}

/// Blesses the goldens: prints [`GOLDENS`]' rows as they are now, with
/// `cargo test --release -p tsp-nn --test program_fingerprint -- --ignored
/// --nocapture`.
#[test]
#[ignore = "prints the goldens instead of checking them"]
fn print_goldens() {
    // 1234567 → 1_234_567.
    let grouped = |n: u64| {
        let digits = n.to_string();
        let groups: Vec<&str> = (digits.as_bytes().rchunks(3).rev())
            .map(|group| std::str::from_utf8(group).expect("ASCII digits"))
            .collect();
        groups.join("_")
    };
    for (model, ..) in GOLDENS {
        let (cycles, fingerprint) = measure(model);
        println!(
            "    (\"{model}\", {}, {}),",
            grouped(cycles),
            grouped(fingerprint)
        );
    }
}

#[test]
fn resnet50_program_is_pinned() {
    check("resnet50");
}

#[test]
fn resnet101_program_is_pinned() {
    check("resnet101");
}

#[test]
fn resnet152_program_is_pinned() {
    check("resnet152");
}

#[test]
fn resnet_tiny_program_is_pinned() {
    check("resnet_tiny");
}

#[test]
fn small_cnn_program_is_pinned() {
    check("small_cnn");
}
