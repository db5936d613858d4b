//! Telemetry is deterministic under host parallelism: fanning runs out over
//! `tsp_bench::fan_out` threads produces byte-identical `trace.json` exports
//! and identical `Telemetry` aggregates to serial execution — host
//! scheduling must never leak into the observed timeline.

use tsp_arch::ChipConfig;
use tsp_bench::fan_out;
use tsp_bench::workloads::vector_add_program;
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, Program, Telemetry};

fn traced_run(program: &Program) -> (u64, Telemetry, String) {
    let mut chip = Chip::new(ChipConfig::asic());
    let report = chip
        .run(
            program,
            &RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        )
        .expect("run");
    (
        report.cycles,
        report.telemetry.clone(),
        tsp_sim::perfetto_json(&report.trace),
    )
}

#[test]
fn serial_and_fan_out_telemetry_are_bit_identical() {
    let program = vector_add_program();
    let (cycles, telemetry, trace_json) = traced_run(&program);

    // More points than typical worker counts, so several land per thread
    // and the pool actually interleaves.
    let points: Vec<u32> = (0..8).collect();
    let parallel = fan_out(points, |_| traced_run(&program));

    for (i, (c, t, j)) in parallel.iter().enumerate() {
        assert_eq!(*c, cycles, "run {i}: cycle drift under fan_out");
        assert_eq!(*t, telemetry, "run {i}: telemetry drift under fan_out");
        assert_eq!(
            *j, trace_json,
            "run {i}: trace.json bytes drift under fan_out"
        );
    }

    // The export is also non-trivial: validated structure, ICU-named tracks.
    // (Span coalescing folds the 1000-vector bursts into a handful of spans —
    // one per contiguous same-kind run, not one per event.)
    let stats = tsp_telemetry::perfetto::validate(&trace_json).expect("valid");
    assert!(
        stats.span_events >= 4,
        "vector-add spans: {}",
        stats.span_events
    );
    assert!(stats.tracks.iter().all(|t| t.starts_with("icu.")));
    assert!(
        telemetry.sram_reads.iter().sum::<u64>() >= 2000,
        "1000 X + 1000 Y reads"
    );
}
