//! E16 / §II-D — chip-wide fault-injection campaign.
//!
//! Sweeps seeded fault plans over every protected site (SRAM data bits,
//! SRAM check bits, stream registers, C2C wires) at increasing fault rates,
//! runs each trial through the resilient host layer, and classifies the
//! outcome against the fault-free golden logits. The machine's claim: every
//! trial lands in masked / corrected / detected-recovered — **never** SDC.
//!
//! Usage: `cargo run --release -p tsp-bench --bin fault_campaign`
//!
//! The output is deterministic for the campaign's seed, serial or parallel,
//! and committed as `results/fault_campaign.txt`. Any SDC exits non-zero.

use tsp_bench::campaign::{run_campaign, CampaignConfig};

fn main() {
    let config = CampaignConfig::full();

    println!("# E16: fault-injection campaign");
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

    let sdc = report.sdc_count();
    if sdc == 0 {
        println!(
            "PASS: zero silent data corruptions across {} trials",
            report.trials.len()
        );
    } else {
        println!("FAIL: {sdc} silent data corruption(s)");
        std::process::exit(1);
    }
}
