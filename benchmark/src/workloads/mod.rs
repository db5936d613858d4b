//! The six workloads. Each builds its inputs from the seed, sets the system
//! up (timed, several times), runs an untraced timed pass that yields the
//! end-to-end metrics, checks every output against an independent oracle,
//! and — when tracing is asked for — runs a traced pass that yields the
//! per-layer metrics.

pub mod compile;
pub mod micro;
pub mod model;
pub mod resnet;
pub mod serve;
pub mod vadd;

use std::time::Instant;

use crate::host;
use crate::report::Outcome;
use crate::stats::{median_of, Timing};

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Measure for this many seconds (the contract's `--seconds`).
    Seconds(f64),
    /// The harness tests' size: 2 ops, 40 requests per phase, one set-up,
    /// one op of each kind in the traced pass.
    Smoke,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub budget: Budget,
    /// Run the traced pass and collect the per-layer metrics.
    pub trace: bool,
}

impl Plan {
    pub fn seconds(&self) -> f64 {
        match self.budget {
            Budget::Seconds(s) => s,
            Budget::Smoke => 0.0,
        }
    }

    pub fn smoke(&self) -> bool {
        self.budget == Budget::Smoke
    }

    /// A count that shrinks at smoke size: warm-up ops, traced-pass ops.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke() {
            smoke
        } else {
            full
        }
    }
}

/// Wall times of like items (set-ups, ops, serve phases), raw and at the
/// calibrator's nominal speed.
pub struct Samples {
    /// Wall seconds as measured.
    pub raw: Vec<f64>,
    /// Wall seconds × nominal tick ÷ the mean of the calibration ticks taken
    /// either side of the item: what the item would have taken had the
    /// machine run the calibration loop at its nominal speed throughout.
    pub nominal: Vec<f64>,
}

/// Times a sequence of like items with calibration ticks between them: a
/// tick before every item, or every quarter second for items shorter than
/// that, and one after the last.
pub struct Paced {
    calibrator: host::Calibrator,
    ticks: Vec<f64>,
    /// For each item, the index of the tick taken before it.
    tick_before: Vec<usize>,
    raw: Vec<f64>,
    total: f64,
}

impl Paced {
    pub fn new() -> Paced {
        let mut calibrator = host::Calibrator::new();
        calibrator.tick(); // touch the buffer's pages before anything is timed
        let first = calibrator.tick();
        Paced {
            calibrator,
            ticks: vec![first],
            tick_before: Vec::new(),
            raw: Vec::new(),
            total: 0.0,
        }
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Seconds of items timed so far.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Runs one item. `item` returns its product and its own wall seconds
    /// (it knows where its timed region starts and ends).
    pub fn item<T>(&mut self, item: impl FnOnce() -> (T, f64)) -> T {
        self.ticks.extend(self.calibrator.refresh());
        self.tick_before.push(self.ticks.len() - 1);
        let (product, secs) = item();
        self.raw.push(secs);
        self.total += secs;
        product
    }

    pub fn finish(mut self) -> Samples {
        self.ticks.push(self.calibrator.tick());
        let nominal = self
            .raw
            .iter()
            .zip(&self.tick_before)
            .map(|(secs, &t)| {
                secs * host::NOMINAL_TICK_S / ((self.ticks[t] + self.ticks[t + 1]) / 2.0)
            })
            .collect();
        Samples {
            raw: self.raw,
            nominal,
        }
    }
}

/// Fewest set-ups per run whose median is reported as `setup_s`.
const MIN_SETUPS: usize = 3;
/// Cheap set-ups (milliseconds) repeat until they have been timed for this
/// long in total, so their median is not a single scheduler hiccup.
const MIN_SETUP_SECONDS: f64 = 0.4;
const MAX_SETUPS: usize = 2000;

/// Runs `setup` several times, returning the last product and every wall
/// time. A smoke run sets up once.
pub fn repeat_setup<T>(plan: &Plan, mut setup: impl FnMut() -> T) -> (T, Samples) {
    let mut paced = Paced::new();
    loop {
        let product = paced.item(|| {
            let start = Instant::now();
            let product = setup();
            (product, start.elapsed().as_secs_f64())
        });
        let enough = paced.len() >= MIN_SETUPS
            && (paced.total() >= MIN_SETUP_SECONDS || paced.len() >= MAX_SETUPS);
        if plan.smoke() || enough {
            return (product, paced.finish());
        }
    }
}

/// Fewest ops a timed pass measures, however slow the op.
const MIN_OPS: usize = 3;

/// The closed loop, one client: runs `op(i)` back to back for the plan's
/// budget; `op` returns its own wall seconds. Also fills in the noise guard.
pub fn timed_loop(
    plan: &Plan,
    out: &mut Outcome,
    mut op: impl FnMut(usize, &mut Outcome) -> f64,
) -> Samples {
    let mut paced = Paced::new();
    let guard = host::NoiseGuard::start();
    let start = Instant::now();
    loop {
        let done = match plan.budget {
            Budget::Smoke => paced.len() >= 2,
            Budget::Seconds(s) => paced.len() >= MIN_OPS && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let i = paced.len();
        paced.item(|| ((), op(i, out)));
    }
    out.attempted = paced.len() as u64;
    guard.finish(out);
    paced.finish()
}

/// Stores a timing's summary and returns its median.
pub fn record(out: &mut Outcome, name: &'static str, samples: &[f64]) -> f64 {
    let t = Timing::of(samples);
    out.timings.insert(name, t);
    t.p50
}

/// The two host timings every workload reports the same way: the gated
/// medians at nominal speed, the raw medians beside them.
pub fn host_end_to_end(out: &mut Outcome, setups: &Samples, ops: &Samples) {
    let setup_raw = record(out, "setup_raw_s", &setups.raw);
    let op_raw = record(out, "host_op_raw_s", &ops.raw);
    let setup = record(out, "setup_s", &setups.nominal);
    let op = record(out, "host_op_s", &ops.nominal);
    out.per_layer.insert("harness.setup_raw_s", setup_raw);
    out.per_layer.insert("harness.host_op_raw_s", op_raw);
    let e = &mut out.end_to_end;
    e.insert("setup_s", setup);
    e.insert("host_op_s_p50", op);
    e.insert("peak_rss_mb", host::peak_rss_mb());
}

/// The end-to-end metrics every closed-loop workload derives the same way.
pub fn closed_loop_end_to_end(out: &mut Outcome, setups: &Samples, ops: &Samples, sim_cycles: u64) {
    host_end_to_end(out, setups, ops);
    let e = &mut out.end_to_end;
    // The machine is deterministic: every op takes the same simulated
    // cycles, so the simulated p99 is the p50. (The serve workloads, where
    // queueing adds a tail, are where the two part.)
    e.insert("sim_cycles_p50", sim_cycles as f64);
    e.insert("sim_cycles_p99", sim_cycles as f64);
    e.insert(
        "goodput_fraction",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
    );
}

/// `harness.trace_overhead_frac`: traced-pass op wall ÷ untraced median − 1.
pub fn trace_overhead(traced_ops: &[f64], untraced_p50: f64) -> f64 {
    median_of(traced_ops) / untraced_p50 - 1.0
}

/// The simulated side of `tsp-sim` and `tsp-mem`: exact counts of one op,
/// read from the `RunReport` the op already returns.
pub fn sim_counters(out: &mut Outcome, report: &tsp_sim::RunReport) {
    let t = &report.telemetry;
    let p = &mut out.per_layer;
    p.insert("sim.instructions", report.instructions as f64);
    p.insert("sim.nops", report.nops as f64);
    p.insert("sim.mxm_macc_waves", t.macc_waves() as f64);
    p.insert(
        "sim.mxm_waves_per_cycle",
        t.macc_waves_per_cycle(report.cycles),
    );
    p.insert("sim.vxm_alu_issue", t.vxm_issue_total() as f64);
    p.insert("sim.sram_reads", t.sram_reads.iter().sum::<u64>() as f64);
    p.insert("sim.sram_writes", t.sram_writes.iter().sum::<u64>() as f64);
    p.insert("sim.stream_high_water", t.stream_high_water as f64);
    p.insert("sim.icu_queue_high_water", t.icu_queue_high_water as f64);
    p.insert("mem.reads_pristine", t.mem_reads_pristine as f64);
    p.insert("mem.reads_verified", t.mem_reads_verified as f64);
}
