//! E16 / §II-D — chip-wide fault-injection campaign.
//!
//! Sweeps seeded fault plans over every protected site (SRAM data bits,
//! SRAM check bits, stream registers, C2C wires) at increasing fault rates,
//! runs each trial through the resilient host layer, and classifies the
//! outcome against the fault-free golden logits. The machine's claim: every
//! trial lands in masked / corrected / detected-recovered — **never** SDC.
//!
//! Usage: `cargo run -p tsp-bench --bin fault_campaign [-- out.json] [--smoke]`
//!
//! Any SDC exits non-zero. `--smoke` runs the small CI configuration and
//! also exits non-zero on an unrecovered trial; the default is the full
//! sweep for EXPERIMENTS.md.
//! Results land in `BENCH_FAULTS.json` (schema `tsp-faults-v3`); the report
//! is bit-identical for a given seed, serial or parallel.

use tsp_bench::campaign::{run_campaign, CampaignConfig, TrialClass};

fn main() {
    let mut out_path = String::from("BENCH_FAULTS.json");
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let config = if smoke {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::full()
    };

    println!(
        "# E16: fault-injection campaign ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "# seed {:#x}, rates {:?}, {} trials/point",
        config.seed, config.rates, config.trials_per_point
    );
    println!();

    let report = run_campaign(&config);

    println!(
        "{:<12} {:>5} {:>7} {:>8} {:>10} {:>10} {:>12} {:>5}",
        "site", "rate", "trials", "masked", "corrected", "det-recov", "det-unrecov", "sdc"
    );
    for p in report.summaries() {
        println!(
            "{:<12} {:>5} {:>7} {:>8} {:>10} {:>10} {:>12} {:>5}",
            p.site,
            p.rate,
            p.trials,
            p.classes[0],
            p.classes[1],
            p.classes[2],
            p.classes[3],
            p.classes[4],
        );
    }
    println!();
    match report.fast_path_retention() {
        Some(r) => println!(
            "fast-path retention: {:.2}% of MEM reads stayed on the pristine lazy-ECC path",
            r * 100.0
        ),
        None => println!("fast-path retention: n/a (no MEM reads observed)"),
    }
    println!();

    if let Err(e) = std::fs::write(&out_path, report.to_json().pretty(0) + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    let sdc = report.sdc_count();
    let unrecovered = report
        .trials
        .iter()
        .filter(|t| t.class == TrialClass::DetectedUnrecovered)
        .count();
    println!();
    if sdc == 0 {
        println!(
            "PASS: zero silent data corruptions across {} trials",
            report.trials.len()
        );
    } else {
        println!("FAIL: {sdc} silent data corruption(s)");
    }
    if sdc > 0 || (smoke && unrecovered > 0) {
        eprintln!("gate: sdc={sdc}, unrecovered={unrecovered}");
        std::process::exit(1);
    }
}
