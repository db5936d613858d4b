//! Simulator host-throughput trajectory benchmark.
//!
//! Measures how fast the *host* simulates the TSP — simulated Mcycles per
//! wall-clock second and dispatched instructions per second — on three
//! workloads spanning the simulator's regimes (see [`tsp_bench::workloads`]):
//!
//! * `vector_add_stream` — the Fig. 3 producer-consumer stream program
//!   (MEM/VXM bound, functional);
//! * `roofline_point` — the Fig. 9 peak point (4 planes × 4096 rows,
//!   timing-only: the MXM-heavy fast path);
//! * `resnet50_functional` — ResNet-50 batch-1 with full data computation
//!   (the end-to-end worst case);
//! * `resnet101_functional` / `resnet152_functional` — the deeper standard
//!   ResNets (counters variant only): how host throughput scales with model
//!   depth.
//!
//! Each core workload runs in four **variants**: `counters` (the default
//! configuration), `nocounters` (utilization counters off — the baseline
//! that prices the counters' host overhead, budgeted ≤ 5%), `trace` (full
//! event tracing, the expensive observability ceiling) and `interpreted`
//! (the pre-decoded op cache bypassed — pricing the decoded dispatch path,
//! which every other variant uses).
//!
//! Results land in `BENCH_SIM.json` (schema `tsp-simspeed-v4`, documented in
//! DESIGN.md §6/§9/§10) so successive commits can be compared — the point is
//! the *trajectory*, not any single number. When the output file already
//! exists, its run is folded into the new report's `history` array and each
//! workload prints its throughput delta against it.
//!
//! Usage: `cargo run -p tsp-bench --bin simspeed [-- out.json] [--gate]`.
//! With `--gate`, exits nonzero if a `resnet50_functional` inference
//! (counters variant) takes more than [`GATE_REGRESSION`] longer on the host
//! than in the previous report, or longer than [`GATE_CEILING_SECONDS`] —
//! the CI perf floor. The gate holds **host seconds per inference**, not
//! Mcycles/s: a compiler change that removes simulated cycles at constant
//! host work lowers Mcycles/s while making nothing slower (the cycle count
//! has its own gate, `tests/integration_resnet.rs`).

use std::time::Instant;

use tsp::prelude::*;
use tsp_bench::report::{SimspeedReport, WorkloadSample};
use tsp_bench::workloads::{
    resnet101_model, resnet152_model, resnet50_model, roofline_program, vector_add_program,
};
use tsp_telemetry::Telemetry;

/// The gated workload: the end-to-end worst case, default telemetry.
const GATE_WORKLOAD: (&str, &str, &str) = ("resnet50_functional", "functional", "counters");

/// Maximum tolerated rise in host seconds per inference under `--gate`.
/// Generous because shared CI runners are noisy; real kernel regressions are
/// >2×.
const GATE_REGRESSION: f64 = 0.20;

/// Absolute `--gate` ceiling for the gated workload, in host seconds per
/// inference. Set from the pre-decoded execution baseline (~0.73 s on the
/// reference runner) with ~30% headroom for runner noise; before
/// pre-decoding the same inference took ~1.5 s, so any wholesale loss of the
/// decoded path trips this ceiling even if the committed baseline regresses
/// along with it.
const GATE_CEILING_SECONDS: f64 = 1.05;

/// Repeats `run` until at least `min_wall` seconds have elapsed (and at
/// least once), accumulating the reports' cycle/instruction/reliability
/// counters and merging their telemetry.
fn bench(
    name: &str,
    mode: &str,
    variant: &str,
    min_wall: f64,
    mut run: impl FnMut() -> RunReport,
) -> WorkloadSample {
    let start = Instant::now();
    let mut s = WorkloadSample {
        name: name.into(),
        mode: mode.into(),
        variant: variant.into(),
        runs: 0,
        sim_cycles: 0,
        instructions: 0,
        ecc_corrected: 0,
        faults_applied: 0,
        faults_vacant: 0,
        egress_words: 0,
        wall_seconds: 0.0,
        telemetry: Telemetry::new(),
    };
    while s.runs == 0 || start.elapsed().as_secs_f64() < min_wall {
        let r = run();
        s.runs += 1;
        s.sim_cycles += r.cycles;
        s.instructions += r.instructions + r.nops;
        s.ecc_corrected += r.ecc_corrected;
        s.faults_applied += r.faults_applied;
        s.faults_vacant += r.faults_vacant;
        s.egress_words += r.egress.len() as u64;
        s.telemetry.merge(&r.telemetry);
    }
    s.wall_seconds = start.elapsed().as_secs_f64();
    s
}

/// The four variants of one scenario: `(variant, options)` — the three
/// telemetry configurations (all on the decoded dispatch path, the default)
/// plus `interpreted`, which reruns the default configuration through the
/// per-dispatch re-decoding oracle path.
fn variants(base: RunOptions) -> [(&'static str, RunOptions); 4] {
    [
        ("counters", base.clone()),
        (
            "nocounters",
            RunOptions {
                counters: false,
                ..base.clone()
            },
        ),
        (
            "trace",
            RunOptions {
                trace: true,
                ..base.clone()
            },
        ),
        (
            "interpreted",
            RunOptions {
                decoded: false,
                ..base
            },
        ),
    ]
}

fn main() {
    let mut out_path = String::from("BENCH_SIM.json");
    let mut gate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--gate" => gate = true,
            other => out_path = other.into(),
        }
    }
    println!("# simspeed: host simulation throughput (trajectory benchmark)");
    println!();

    // The committed report (if any) is both the delta baseline and the next
    // history entry. An unreadable file is not fatal — the trajectory just
    // restarts — but `--gate` insists on a baseline to gate against.
    let previous = match std::fs::read_to_string(&out_path) {
        Ok(text) => match SimspeedReport::from_json(&text) {
            Ok(prev) => Some(prev),
            Err(e) => {
                eprintln!("warning: ignoring unparseable {out_path}: {e}");
                None
            }
        },
        Err(_) => None,
    };
    if gate && previous.is_none() {
        eprintln!("error: --gate needs a readable baseline at {out_path}");
        std::process::exit(1);
    }

    let mut report = SimspeedReport::default();

    let vadd = vector_add_program();
    for (variant, options) in variants(RunOptions::default()) {
        report.workloads.push(bench(
            "vector_add_stream",
            "functional",
            variant,
            1.0,
            || {
                let mut chip = Chip::new(ChipConfig::asic());
                chip.run(&vadd, &options).unwrap()
            },
        ));
    }

    let roofline = roofline_program();
    for (variant, options) in variants(RunOptions {
        functional: false,
        ..RunOptions::default()
    }) {
        report
            .workloads
            .push(bench("roofline_point", "timing", variant, 1.0, || {
                let mut chip = Chip::new(ChipConfig::paper_1ghz());
                chip.run(&roofline, &options).unwrap()
            }));
    }

    let (model, qi) = resnet50_model();
    let decoded = model.decoded();
    for (variant, options) in variants(RunOptions::default()) {
        report.workloads.push(bench(
            "resnet50_functional",
            "functional",
            variant,
            1.0,
            || {
                let mut chip = Chip::new(ChipConfig::asic());
                model.load_constants(&mut chip);
                model.write_input(&mut chip, &qi);
                if options.decoded {
                    chip.run_decoded(&decoded, &options).unwrap()
                } else {
                    chip.run_interpreted(&model.program, &options).unwrap()
                }
            },
        ));
    }

    // Depth-scaling rows: the deeper standard ResNets, default configuration
    // only (the variant matrix on ResNet-50 already prices telemetry and
    // dispatch; these rows track how throughput scales with model size).
    for (name, (model, qi)) in [
        ("resnet101_functional", resnet101_model()),
        ("resnet152_functional", resnet152_model()),
    ] {
        let decoded = model.decoded();
        let options = RunOptions::default();
        report
            .workloads
            .push(bench(name, "functional", "counters", 1.0, || {
                let mut chip = Chip::new(ChipConfig::asic());
                model.load_constants(&mut chip);
                model.write_input(&mut chip, &qi);
                chip.run_decoded(&decoded, &options).unwrap()
            }));
    }

    println!(
        "{:<22} {:<10} {:<10} {:>5} {:>12} {:>12} {:>10} {:>9}",
        "workload", "mode", "variant", "runs", "Mcycles/s", "instr/s", "wall s", "vs prev"
    );
    for s in &report.workloads {
        let delta = previous
            .as_ref()
            .and_then(|p| p.find(&s.name, &s.mode, &s.variant))
            .map_or_else(String::new, |p| {
                format!(
                    "{:>+8.1}%",
                    (s.mcycles_per_sec() / p.mcycles_per_sec() - 1.0) * 100.0
                )
            });
        println!(
            "{:<22} {:<10} {:<10} {:>5} {:>12.2} {:>12.0} {:>10.2} {:>9}",
            s.name,
            s.mode,
            s.variant,
            s.runs,
            s.mcycles_per_sec(),
            s.instructions_per_sec(),
            s.wall_seconds,
            delta
        );
    }

    // Counters-only overhead: default configuration vs counters-off, per
    // workload (budget: ≤ 5% host slowdown; the driver checks BENCH_SIM.json).
    println!();
    println!("counters-only overhead vs nocounters baseline:");
    for s in &report.workloads {
        if s.variant != "counters" {
            continue;
        }
        if let Some(base) = report
            .workloads
            .iter()
            .find(|b| b.variant == "nocounters" && b.name == s.name)
        {
            let overhead = base.mcycles_per_sec() / s.mcycles_per_sec() - 1.0;
            println!("  {:<22} {:>+6.1}%", s.name, overhead * 100.0);
        }
    }

    // Decoded dispatch speedup: default (decoded) vs the interpreted oracle.
    println!();
    println!("decoded dispatch speedup vs interpreted baseline:");
    for s in &report.workloads {
        if s.variant != "counters" {
            continue;
        }
        if let Some(base) = report
            .workloads
            .iter()
            .find(|b| b.variant == "interpreted" && b.name == s.name)
        {
            let speedup = s.mcycles_per_sec() / base.mcycles_per_sec();
            println!("  {:<22} {:>6.2}x", s.name, speedup);
        }
    }

    // Fold the previous run into the trajectory: its history survives, its
    // workloads become the newest history entry.
    if let Some(prev) = &previous {
        report.history = prev.history.clone();
        if !prev.workloads.is_empty() {
            report.push_history(prev.summarize());
        }
    }

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!();
    println!(
        "wrote {out_path} ({} prior run{} in history)",
        report.history.len(),
        if report.history.len() == 1 { "" } else { "s" }
    );

    if gate {
        let (name, mode, variant) = GATE_WORKLOAD;
        let now = report
            .find(name, mode, variant)
            .expect("gate workload always measured");
        let Some(base) = previous.as_ref().and_then(|p| p.find(name, mode, variant)) else {
            eprintln!("error: --gate baseline has no {name}/{mode}/{variant} sample");
            std::process::exit(1);
        };
        let ratio = now.seconds_per_run() / base.seconds_per_run();
        println!();
        println!(
            "perf gate: {name} {:.3} s/inference vs baseline {:.3} ({:+.1}%, limits {:+.0}% and {GATE_CEILING_SECONDS:.2} s absolute); {} cycles/inference vs baseline {}",
            now.seconds_per_run(),
            base.seconds_per_run(),
            (ratio - 1.0) * 100.0,
            GATE_REGRESSION * 100.0,
            now.cycles_per_run(),
            base.cycles_per_run(),
        );
        if ratio > 1.0 + GATE_REGRESSION {
            eprintln!(
                "error: perf gate failed — regression exceeds {:.0}%",
                GATE_REGRESSION * 100.0
            );
            std::process::exit(1);
        }
        if now.seconds_per_run() > GATE_CEILING_SECONDS {
            eprintln!(
                "error: perf gate failed — above the absolute ceiling of {GATE_CEILING_SECONDS:.2} s per inference"
            );
            std::process::exit(1);
        }
        println!("perf gate: PASS");
    }
}
