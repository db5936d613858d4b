//! One served run, reported: what `tsp-prof serve` prints and
//! `results/serve_profile.txt` pins — `tsp-serve` with request spans on, over
//! a pool of four chips running [`small_cnn_batch`], chip 0 struck by a
//! persistent fault on every dispatch (so the breaker quarantines it).
//!
//! Every number in the report is simulated — the model's emplace and restore,
//! the service time, each layer's span of a run, how many of each chip's
//! batches emplaced (their head request was charged the emplace; the model
//! stays resident after the first), the good / shed / failed / missed /
//! quarantined counts, the p50 / p99 latency and the flight recorder's
//! non-success requests — so the report is byte-identical run to run, and a
//! change that moves serving shows in the capture's diff.

use std::fmt::Write as _;

use tsp_arch::ChipConfig;
use tsp_serve::{open_loop, render_flight, serve, BatchRecord, LoadSpec, ServeConfig, ServeResult};
use tsp_sim::chip::RunOptions;
use tsp_sim::faults::ChaosSpec;
use tsp_sim::Chip;

use crate::workloads::small_cnn_batch;

/// Chips in the served pool.
const POOL: usize = 4;

/// Serves 48 open-loop requests at half the pool's capacity, with a deadline
/// of eight batches, and returns the report and the run (whose request trace
/// `tsp-prof` writes).
///
/// # Panics
///
/// Panics if the fault-free calibration run or `serve` itself fails.
#[must_use]
pub fn render() -> (String, ServeResult) {
    let (model, inputs) = small_cnn_batch();
    // The schedule fixes a run's cycles whatever the data: one fault-free
    // run times every request's service.
    let mut chip = Chip::new(ChipConfig::asic());
    model.model.load_constants(&mut chip);
    model.model.write_input(&mut chip, &inputs[0]);
    let service = chip
        .run(&model.model.program, &RunOptions::default())
        .expect("the fault-free calibration run")
        .cycles;
    let emplace = model.model.emplace_cycles();
    let batch_cycles = emplace + model.max_batch as u64 * service;
    let spec = LoadSpec {
        seed: 0x5EED_0011,
        requests: 48,
        mean_interarrival: 2.0 * batch_cycles as f64 / (POOL * model.max_batch) as f64,
        deadline: 8 * batch_cycles,
        inputs: inputs.len(),
    };
    let config = ServeConfig {
        pool: POOL,
        queue_depth: 32,
        spans: true,
        chaos: Some(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            persistent_per_mille: 1000,
            targeted_double: true,
            ..ChaosSpec::off(0xCAFF)
        }),
        ..ServeConfig::default()
    };
    let result = serve(&model, &config, &inputs, &open_loop(&spec)).expect("a valid serve");

    let mut out = String::from("# tsp-prof: serve\n");
    let _ = writeln!(
        out,
        "pool {POOL} × batch {}, emplace {emplace}, restore {}, service {service} cycles; \
         {} requests, mean gap {:.1} cycles, deadline {}; chip 0 struck persistently",
        model.max_batch,
        model.model.restore_cycles(),
        spec.requests,
        spec.mean_interarrival,
        spec.deadline
    );
    // Where a run's cycles go: each layer's span on the compiled schedule
    // (layers lowered inside another, like the im2col input, take none).
    let spans: Vec<String> = (model.model.layer_spans.iter())
        .filter(|span| span.end > span.start)
        .map(|span| format!("{} {}..{}", span.name, span.start, span.end))
        .collect();
    let _ = writeln!(out, "layers: {}", spans.join("  "));
    let per_chip: Vec<String> = (0..POOL)
        .map(|chip| {
            let batches = result.batches.iter().filter(|b| b.chip == chip);
            let cold = |b: &BatchRecord| b.served.first().is_some_and(|r| r.ready == emplace);
            let (emplaced, all) =
                batches.fold((0, 0), |(e, n), b| (e + usize::from(cold(b)), n + 1));
            format!("{emplaced}/{all}")
        })
        .collect();
    let _ = writeln!(
        out,
        "emplaces per chip (of its batches): {}",
        per_chip.join(" ")
    );
    let _ = writeln!(
        out,
        "good {}  shed {}  failed {}  missed {}  quarantined {}",
        result.good(),
        result.shed_queue_full() + result.shed_expired(),
        result.failed(),
        result.deadline_missed(),
        (result.chips.iter())
            .filter(|c| c.quarantined_at.is_some())
            .count(),
    );
    // Nearest rank: the ⌈q·n⌉-th smallest latency of the completed requests.
    let latencies = result.latencies();
    let rank = |q: f64| {
        let at = ((q * latencies.len() as f64).ceil() as usize).max(1);
        latencies
            .get(at - 1)
            .map_or("-".to_string(), u64::to_string)
    };
    let _ = writeln!(
        out,
        "latency p50 {}  p99 {} cycles, arrival to completion",
        rank(0.5),
        rank(0.99)
    );
    out.push_str(&render_flight(&result.flight));
    (out, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The served model's head is not all zero: every input it serves gives
    /// nonzero logits, and not all the same ones — so a corrupted feature
    /// map shows in the logits every serving check compares.
    #[test]
    fn served_inputs_give_nonzero_distinct_logits() {
        let (model, inputs) = small_cnn_batch();
        let logits: Vec<Vec<i8>> = (inputs.iter())
            .map(|input| {
                let mut chip = Chip::new(ChipConfig::asic());
                model.model.load_constants(&mut chip);
                model.model.write_input(&mut chip, input);
                chip.run(&model.model.program, &RunOptions::default())
                    .expect("clean run");
                model.model.read_logits(&chip)
            })
            .collect();
        assert_eq!(logits.len(), 8);
        for (i, l) in logits.iter().enumerate() {
            assert!(l.iter().any(|&v| v != 0), "input {i}: all-zero logits");
        }
        let mut distinct = logits.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() >= 2, "every input gives {:?}", logits[0]);
    }
}
