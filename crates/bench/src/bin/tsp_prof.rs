//! `tsp-prof` — run a workload with full tracing and profile where its
//! cycles go (DESIGN.md §8).
//!
//! ```text
//! cargo run --release -p tsp-bench --bin tsp-prof -- [workload] [--out trace.json] [--top N]
//! cargo run --release -p tsp-bench --bin tsp-prof -- resnet50|resnet101|resnet152 --stalls
//! cargo run --release -p tsp-bench --bin tsp-prof -- serve [--out serve_trace.json]
//! ```
//!
//! `workload` is `vector-add` (default), `roofline`, `resnet50`, `resnet101`
//! or `resnet152` — the shared reference workloads of
//! [`tsp_bench::workloads`]. The run emits:
//!
//! * a Chrome Trace Event Format file (`--out`, default `trace.json`) — open
//!   it at <https://ui.perfetto.dev> for the chip-wide timeline, one track
//!   per ICU grouped by functional slice;
//! * a text profile on stdout: the top-`N` busiest units, a utilization
//!   table against the paper's roofline capacities, and an idle-gap
//!   analysis of the busiest tracks.
//!
//! `--stalls` on a ResNet simulates nothing: it prints the MXM feed census of
//! the compiled program ([`tsp_bench::stalls`] — per layer and plane: feed
//! rows, in-chain stall, hand-over, when the border was cleared) and exits.
//!
//! `serve` shows one served run instead of one chip: `tsp-serve` with request
//! spans on, over a pool of four chips running `small_cnn`, chip 0 struck
//! by a persistent fault on every dispatch. It prints the report of
//! [`tsp_bench::serve_profile`] — the model's emplace and restore, the
//! service, how many of each chip's batches emplaced, the outcome counts, the p50/p99 latency and the flight recorder's non-success
//! requests, what `results/serve_profile.txt` pins — and writes the request
//! trace (`--out`, default `serve_trace.json`).
//!
//! Every trace is written only once it validates structurally
//! ([`perfetto::validate`]), and the tool exits 1 if it does not — CI uses
//! this as its trace smoke gate.

use tsp::prelude::*;
use tsp_bench::workloads::{resnet_model, roofline_program, vector_add_program};
use tsp_serve::serve_trace_json;
use tsp_telemetry::perfetto;
use tsp_telemetry::profile::{
    idle_gaps, render_idle_gaps, render_top_units, render_utilization, UnitStat, UtilRow,
};

/// int8 multiply-accumulate ops in one 320×320 MACC wave.
const OPS_PER_WAVE: f64 = 2.0 * 320.0 * 320.0;

fn usage() -> ! {
    eprintln!("usage: tsp-prof [vector-add|roofline|resnet50|resnet101|resnet152] [--out trace.json] [--top N]");
    eprintln!("       tsp-prof resnet50|resnet101|resnet152 --stalls");
    eprintln!("       tsp-prof serve [--out serve_trace.json]");
    std::process::exit(2);
}

/// Prints `message` and exits 1.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// `tsp-prof serve`: [`tsp_bench::serve_profile`]'s report, then the request
/// trace.
fn profile_serve(out_path: &str) {
    let (report, result) = tsp_bench::serve_profile::render();
    print!("{report}");
    write_trace(out_path, &serve_trace_json(&result));
}

/// Writes `text` to `out_path` once it validates as a Perfetto trace, and
/// says so; exits 1 if it does not validate or cannot be written.
fn write_trace(out_path: &str, text: &str) -> perfetto::TraceStats {
    let stats = perfetto::validate(text)
        .unwrap_or_else(|e| fail(&format!("emitted trace failed validation: {e}")));
    if let Err(e) = std::fs::write(out_path, text) {
        fail(&format!("cannot write {out_path}: {e}"));
    }
    println!(
        "wrote {out_path}: {} span events on {} tracks in {} processes, timeline end {} cycles",
        stats.span_events,
        stats.tracks.len(),
        stats.processes.len(),
        stats.max_ts
    );
    println!("open it at https://ui.perfetto.dev");
    stats
}

fn main() {
    let mut workload = String::from("vector-add");
    let mut out_path = None;
    let mut top = 8usize;
    let mut stalls = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--top" => {
                top = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--stalls" => stalls = true,
            "vector-add" | "roofline" | "resnet50" | "resnet101" | "resnet152" | "serve" => {
                workload = a;
            }
            _ => usage(),
        }
    }
    let depth = workload
        .strip_prefix("resnet")
        .map(|d| d.parse().expect("a depth"));
    if stalls {
        let Some(depth) = depth else { usage() };
        print!("{}", tsp_bench::stalls::render(&resnet_model(depth).0));
        return;
    }
    if workload == "serve" {
        profile_serve(out_path.as_deref().unwrap_or("serve_trace.json"));
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "trace.json".to_string());

    let options = RunOptions {
        trace: true,
        // roofline is a pure timing study; the other two compute real data.
        functional: workload != "roofline",
        ..RunOptions::default()
    };
    let cfg = if workload == "roofline" {
        ChipConfig::paper_1ghz()
    } else {
        ChipConfig::asic()
    };
    let mut chip = Chip::new(cfg.clone());
    let report = match (workload.as_str(), depth) {
        ("vector-add", _) => chip.run(&vector_add_program(), &options),
        ("roofline", _) => chip.run(&roofline_program(4096, 4), &options),
        (_, Some(depth)) => {
            let (model, image) = resnet_model(depth);
            model.load_constants(&mut chip);
            model.write_input(&mut chip, &image);
            // Layer-boundary marks from the compiler's layer spans: the run
            // report comes back with per-layer telemetry slices.
            let options = RunOptions {
                layers: model.layer_marks(),
                ..options.clone()
            };
            chip.run(&model.program, &options)
        }
        _ => usage(),
    }
    .unwrap_or_else(|e| fail(&format!("simulation failed: {e:?}")));

    let t = &report.telemetry;
    let cycles = report.cycles;
    println!("# tsp-prof: {workload}");
    println!(
        "cycles {}  instructions {}  nops {}  trace events {} ({} dropped)",
        cycles,
        report.instructions,
        report.nops,
        report.trace.total_recorded(),
        t.dropped_events,
    );
    println!();

    // Top-N busiest ICU tracks, from the coalesced timeline.
    let tracks = tsp_sim::timeline(&report.trace);
    let stats: Vec<UnitStat> = tracks
        .iter()
        .map(|tl| UnitStat {
            name: tl.icu.to_string(),
            busy: tl.busy_cycles(),
            events: tl.event_count(),
        })
        .collect();
    println!("{}", render_top_units(&stats, cycles, top));

    // Utilization against the paper's capacities (§II / Fig. 9): 4 MXM
    // planes (1 wave/cycle each), 16 VXM ALUs, 88 MEM slices, 2×16 SXM
    // lane shifters.
    let waves_per_cycle = t.macc_waves_per_cycle(cycles);
    let tops = waves_per_cycle * OPS_PER_WAVE * cfg.clock_hz / 1e12;
    let peak_tops = cfg.peak_int8_ops() / 1e12;
    let rows = vec![
        UtilRow {
            name: "MXM MACC waves".into(),
            used: t.macc_waves(),
            capacity: 4 * cycles,
            note: format!(
                "{waves_per_cycle:.3} waves/cycle = {tops:.1} TOP/s (peak {peak_tops:.1}, paper Fig. 9)"
            ),
        },
        UtilRow {
            name: "MXM plane busy".into(),
            used: t.mxm_busy_cycles(),
            capacity: 4 * cycles,
            note: "incl. weight install".into(),
        },
        UtilRow {
            name: "VXM ALU issue".into(),
            used: t.vxm_issue_total(),
            capacity: 16 * cycles,
            note: "16 ALUs".into(),
        },
        UtilRow {
            name: "MEM slice access".into(),
            used: t.sram_accesses(),
            capacity: 88 * cycles,
            note: format!("R/W W:{}/{} E:{}/{}", t.sram_reads[0], t.sram_writes[0], t.sram_reads[1], t.sram_writes[1]),
        },
        UtilRow {
            name: "SXM ops".into(),
            used: t.sxm_total(),
            capacity: 32 * cycles,
            note: format!("W:{} E:{}", t.sxm_ops[0], t.sxm_ops[1]),
        },
        UtilRow {
            name: "stream regs (peak)".into(),
            used: t.stream_high_water,
            capacity: tsp_sim::stream_file::STREAM_CAPACITY as u64,
            note: "high-water live diagonal slots".into(),
        },
        UtilRow {
            name: "ICU queue (peak)".into(),
            used: t.icu_queue_high_water,
            capacity: t.icu_queue_high_water.max(1),
            note: "deepest pending queue".into(),
        },
    ];
    println!("{}", render_utilization(&rows));

    // Per-layer attribution: each row is one compiler layer's exact share
    // of the whole-run counters (they sum bit-exactly; pinned by
    // `crates/sim/tests/layers.rs`), rendered against the same roofline
    // capacities as the whole-run table above.
    if !report.layers.is_empty() {
        println!("# per-layer attribution");
        println!(
            "{:<22} {:>9} {:>6} {:>8} {:>9} {:>6} {:>10} {:>10}",
            "layer", "cycles", "cyc%", "waves", "waves/cyc", "mxm%", "vxm-issue", "sram"
        );
        for s in &report.layers {
            let t = &s.telemetry;
            // Rates of a zero-width layer (the input; an add fused into its
            // conv) are undefined, not zero.
            let per_cycle = |n: u64, scale: f64, decimals: usize| match s.cycles() {
                0 => "-".to_string(),
                lc => format!("{:.decimals$}", scale * n as f64 / lc as f64),
            };
            println!(
                "{:<22} {:>9} {:>6.1} {:>8} {:>9} {:>6} {:>10} {:>10}",
                s.name,
                s.cycles(),
                100.0 * s.cycles() as f64 / cycles.max(1) as f64,
                t.macc_waves(),
                per_cycle(t.macc_waves(), 1.0, 3),
                per_cycle(t.macc_waves(), 25.0, 1),
                t.vxm_issue_total(),
                t.sram_accesses(),
            );
        }
        let covered: u64 = report.layers.iter().map(|s| s.cycles()).sum();
        println!(
            "{:<22} {:>9} {:>6.1} (marked-region share of {} run cycles)\n",
            "= layers",
            covered,
            100.0 * covered as f64 / cycles.max(1) as f64,
            cycles
        );
    }

    // Idle-gap analysis on the busiest tracks: where does the critical
    // resource wait?
    let mut ranked: Vec<&tsp_sim::IcuTimeline> = tracks.iter().collect();
    ranked.sort_by(|a, b| {
        b.busy_cycles()
            .cmp(&a.busy_cycles())
            .then_with(|| a.icu.cmp(&b.icu))
    });
    for tl in ranked.iter().take(3) {
        let spans: Vec<(u64, u64)> = tl.spans.iter().map(|s| (s.start, s.dur)).collect();
        let gaps = idle_gaps(&spans, cycles);
        println!(
            "{}",
            render_idle_gaps(&tl.icu.to_string(), &gaps, cycles, 5)
        );
    }

    // Emit and smoke-validate the Perfetto trace (layer track included
    // when the workload carries layer marks).
    let text = tsp_sim::perfetto_json_with_layers(&report.trace, &report.layers);
    let stats = write_trace(&out_path, &text);
    assert!(
        (stats.tracks.iter()).all(|n| n.starts_with("icu.") || n == "layers"),
        "unexpected track in trace"
    );
}
