//! Chip-wide fault-injection campaigns.
//!
//! A campaign sweeps seeded fault plans over the fault **sites** the machine
//! defends (SRAM data bits, SRAM check bits, in-flight stream registers, and
//! C2C wires), runs each trial through the resilient host layer
//! ([`tsp_nn::resilient`]) and classifies the outcome against the fault-free
//! golden run:
//!
//! * **masked** — the strike hit vacant or never-consumed state; nothing
//!   observed anything;
//! * **corrected** — SECDED (or a CRC-triggered link retransmission)
//!   repaired every strike in place; logits bit-identical, no retry;
//! * **detected-recovered** — an uncorrectable detection killed the run and
//!   the host's bounded retry-from-weights recovered bit-identical logits;
//! * **detected-unrecovered** — detection, but the retry budget ran out;
//! * **sdc** — silent data corruption: the run completed with *wrong*
//!   logits. The whole protection stack exists to keep this row at zero.
//!
//! Trials are independent simulations of a deterministic machine, so the
//! campaign is reproducible bit-for-bit from its seed, serially or fanned
//! out over host threads ([`fan_out`]) — asserted by
//! `tests/campaign_determinism.rs`. The `fault_campaign` bin prints the full
//! sweep, committed as `results/fault_campaign.txt`.

use std::sync::Arc;

use tsp_arch::{ChipConfig, Hemisphere, Slice, StreamId, Vector};
use tsp_isa::{C2cOp, LinkId, MemAddr, MemOp};
use tsp_mem::GlobalAddress;
use tsp_nn::compile::{compile_cached, CompileOptions, CompiledModel};
use tsp_nn::data::synthetic;
use tsp_nn::quant::quantize;
use tsp_nn::resilient::{run_resilient, transient, ResilientOptions};
use tsp_nn::train::small_cnn;
use tsp_sim::faults::{ChaosStrike, FaultPlan, LinkFaultPlan, LinkPlanSpec, PlanSpec};
use tsp_sim::{Chip, IcuId, Program};

use crate::fan_out;
use tsp_c2c::{Fabric, Wire};

/// The fault sites a campaign sweeps.
pub const SITES: [&str; 4] = ["sram-data", "sram-check", "stream", "link"];

/// Outcome class of one trial (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialClass {
    /// Strike hit vacant/never-consumed state.
    Masked,
    /// Repaired in place (SECDED correction or link retransmission).
    Corrected,
    /// Uncorrectable detection, recovered by host retry-from-weights.
    DetectedRecovered,
    /// Detection, but the retry budget ran out.
    DetectedUnrecovered,
    /// Silent data corruption — completed with wrong results.
    Sdc,
}

/// One classified trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// Fault site (one of [`SITES`]).
    pub site: &'static str,
    /// Faults injected in this trial.
    pub rate: u32,
    /// Trial index within its (site, rate) point.
    pub index: u32,
    /// The trial's derived plan seed.
    pub seed: u64,
    /// Outcome class.
    pub class: TrialClass,
    /// Runs the host performed (1 = no retry).
    pub attempts: u32,
    /// In-place repairs (ECC corrections, or link retransmissions).
    pub corrected: u64,
    /// Uncorrectable detections across attempts.
    pub detected: u64,
    /// Planned faults that struck live state (completing attempt).
    pub faults_applied: u64,
    /// Planned faults that hit vacant state.
    pub faults_vacant: u64,
    /// Simulated cycles thrown away by failed attempts.
    pub wasted_cycles: u64,
    /// Vectors that left on C2C links during the completing attempt.
    pub egress_words: u64,
    /// MEM `Read`s of the completing attempt whose stored word was still on
    /// the pristine (lazily-deferred ECC) fast path.
    pub mem_pristine: u64,
    /// MEM `Read`s of the completing attempt that needed a full SECDED
    /// verify (fault-suspect words).
    pub mem_verified: u64,
}

/// Aggregate of one (site, rate) sweep point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointSummary {
    /// Fault site.
    pub site: &'static str,
    /// Faults per trial.
    pub rate: u32,
    /// Trials run.
    pub trials: u32,
    /// Count per class, in [`TrialClass`] declaration order.
    pub classes: [u32; 5],
}

/// A finished campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Every classified trial, in sweep order.
    pub trials: Vec<Trial>,
}

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every trial's plan seed derives from it.
    pub seed: u64,
    /// Fault counts to sweep per site.
    pub rates: Vec<u32>,
    /// Trials per (site, rate) point.
    pub trials_per_point: u32,
    /// Fan trials out over host threads (bit-identical to serial).
    pub parallel: bool,
}

impl CampaignConfig {
    /// A small configuration that still covers every site.
    #[must_use]
    pub fn smoke() -> CampaignConfig {
        CampaignConfig {
            seed: 0x7E5_7E5,
            rates: vec![1, 2],
            trials_per_point: 2,
            parallel: true,
        }
    }

    /// The full sweep reported in EXPERIMENTS.md.
    #[must_use]
    pub fn full() -> CampaignConfig {
        CampaignConfig {
            seed: 0x7E5_7E5,
            rates: vec![1, 2, 4],
            trials_per_point: 4,
            parallel: true,
        }
    }
}

/// SplitMix64-style finalizer: decorrelates trial seeds drawn from the
/// master seed and the (site, rate, index) coordinates.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn trial_seed(master: u64, site: usize, rate: u32, index: u32) -> u64 {
    mix(master ^ mix(site as u64 + 1) ^ mix((u64::from(rate) << 32) | u64::from(index)))
}

/// The campaign workload: a small trained CNN, compiled once and shared.
fn workload() -> (Arc<CompiledModel>, Vec<i8>) {
    let data = synthetic(11, 12, 12, 2, 4, 6);
    let (g, params) = small_cnn(12, 16, 4, 5);
    let q = quantize(&g, &params, &data.images[..2]);
    let model = compile_cached(&q, &CompileOptions::default());
    let image = q.quantize_image(&data.images[0]);
    (model, image)
}

fn chip_plan(site: &str, rate: u32, seed: u64, cycles: u64) -> FaultPlan {
    let spec = PlanSpec {
        cycles: 0..cycles.max(1),
        sram_data: if site == "sram-data" { rate } else { 0 },
        sram_check: if site == "sram-check" { rate } else { 0 },
        stream_upsets: if site == "stream" { rate } else { 0 },
        sram_words: 64,
    };
    FaultPlan::generate(seed, &spec)
}

/// One chip-site trial through the resilient host layer.
fn chip_trial(
    model: &CompiledModel,
    image: &[i8],
    golden: &[i8],
    site: &'static str,
    rate: u32,
    index: u32,
    seed: u64,
) -> Trial {
    let options = ResilientOptions {
        strike: ChaosStrike::Transient(chip_plan(site, rate, seed, model.cycles)),
        ..ResilientOptions::default()
    };
    let report = run_resilient(model, &ChipConfig::asic(), image, &options, &mut None)
        .expect("campaign faults are transient by construction");
    let class = match report.logits() {
        None => TrialClass::DetectedUnrecovered,
        Some(logits) if logits != golden => TrialClass::Sdc,
        Some(_) if report.attempts > 1 => TrialClass::DetectedRecovered,
        Some(_) if report.corrected > 0 => TrialClass::Corrected,
        Some(_) => TrialClass::Masked,
    };
    Trial {
        site,
        rate,
        index,
        seed,
        class,
        attempts: report.attempts,
        corrected: report.corrected,
        detected: report.detected,
        faults_applied: report.faults_applied,
        faults_vacant: report.faults_vacant,
        wasted_cycles: report.wasted_cycles,
        egress_words: report.egress_words,
        mem_pristine: report.telemetry.mem_reads_pristine,
        mem_verified: report.telemetry.mem_reads_verified,
    }
}

fn ga(h: Hemisphere, s: u8, w: u16) -> GlobalAddress {
    GlobalAddress::new(h, s, MemAddr::new(w))
}

/// A two-chip payload relay: chip 0 sends one vector on a C2C link, chip 1
/// receives it (with slack for [`tsp_c2c::MAX_LINK_RETRIES`] retransmission
/// round trips) and writes it to MEM_E20[9].
fn link_relay(payload: &Vector) -> (Fabric, Vec<Program>) {
    let mut fabric = Fabric::new();
    fabric.add_chip(Chip::new(ChipConfig::asic()));
    fabric.add_chip(Chip::new(ChipConfig::asic()));
    fabric.connect(Wire {
        from_chip: 0,
        from_link: LinkId::new(3),
        to_chip: 1,
        to_link: LinkId::new(5),
        latency: 21,
    });
    fabric
        .chip_mut(0)
        .memory
        .write(ga(Hemisphere::East, 10, 0), payload.clone());

    let mut ps = Program::new();
    ps.builder(IcuId::Mem {
        hemisphere: Hemisphere::East,
        index: 10,
    })
    .push(MemOp::Read {
        addr: MemAddr::new(0),
        stream: StreamId::east(0),
    });
    let mem10 = Slice::mem(Hemisphere::East, 10).position();
    let edge = Slice::Mxm(Hemisphere::East).position();
    let t_send = 5 + u64::from(edge.0 - mem10.0);
    ps.builder(IcuId::C2c { port: 1 }).push_at(
        t_send,
        C2cOp::Send {
            link: LinkId::new(3),
            stream: StreamId::east(0),
        },
    );

    // Receive well after the worst repaired arrival:
    // t_send + 21 + MAX_LINK_RETRIES · (2·21 + DESKEW_RESYNC_CYCLES) ≈ 379.
    let t_recv = 420u64;
    let mut pr = Program::new();
    pr.builder(IcuId::C2c { port: 1 }).push_at(
        t_recv,
        C2cOp::Receive {
            link: LinkId::new(5),
            stream: StreamId::west(7),
        },
    );
    let mem20 = Slice::mem(Hemisphere::East, 20).position();
    let t_write = t_recv + 2 + u64::from(edge.0 - mem20.0);
    pr.builder(IcuId::Mem {
        hemisphere: Hemisphere::East,
        index: 20,
    })
    .push_at(
        t_write,
        MemOp::Write {
            addr: MemAddr::new(9),
            stream: StreamId::west(7),
        },
    );

    (fabric, vec![ps, pr])
}

/// One link-site trial: inject `rate` faults on the wire's first word, with
/// one host retry-from-weights if the link gives up — the fabric analogue of
/// [`run_resilient`].
fn link_trial(rate: u32, index: u32, seed: u64) -> Trial {
    let payload = Vector::from_fn(|i| (i as u8) ^ 0xA5);
    let plan = LinkFaultPlan::generate(
        seed,
        &LinkPlanSpec {
            wires: 1,
            words_per_wire: 1,
            corruptions: rate,
            drops: 0,
        },
    );
    let mut trial = Trial {
        site: "link",
        rate,
        index,
        seed,
        class: TrialClass::DetectedUnrecovered,
        attempts: 0,
        corrected: 0,
        detected: 0,
        faults_applied: u64::from(rate),
        faults_vacant: 0,
        wasted_cycles: 0,
        egress_words: 0,
        mem_pristine: 0,
        mem_verified: 0,
    };
    // Attempt 0 with the plan, one clean retry (transient faults don't
    // recur); each attempt rebuilds the fabric from host state.
    for attempt in 0..2u32 {
        let (mut fabric, programs) = link_relay(&payload);
        let faults = if attempt == 0 {
            plan.clone()
        } else {
            LinkFaultPlan::empty()
        };
        trial.attempts += 1;
        match fabric.run_with_faults(&programs, &tsp_sim::chip::RunOptions::default(), &faults) {
            Ok(report) => {
                let delivered = fabric
                    .chip(1)
                    .memory
                    .read_unchecked(ga(Hemisphere::East, 20, 9));
                trial.corrected += report.links[0].retried;
                trial.egress_words = report.reports.iter().map(|r| r.egress.len() as u64).sum();
                trial.class = if delivered != payload {
                    TrialClass::Sdc
                } else if trial.attempts > 1 {
                    TrialClass::DetectedRecovered
                } else if report.links[0].retried > 0 {
                    TrialClass::Corrected
                } else {
                    TrialClass::Masked
                };
                return trial;
            }
            Err(error) => {
                let (_, cycle) = transient(&error)
                    .unwrap_or_else(|| panic!("link campaign hit a non-transient error: {error}"));
                trial.detected += 1;
                trial.wasted_cycles += cycle;
            }
        }
    }
    trial // both attempts died: detected-unrecovered
}

/// Runs a campaign. Bit-identical for a given config regardless of
/// `parallel` (trials are independent and results land in sweep order).
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let (model, image) = workload();
    let golden = run_resilient(
        &model,
        &ChipConfig::asic(),
        &image,
        &ResilientOptions::default(),
        &mut None,
    )
    .expect("golden run")
    .logits()
    .expect("golden run completes")
    .to_vec();

    let mut points: Vec<(usize, u32, u32)> = Vec::new();
    for (si, _) in SITES.iter().enumerate() {
        for &rate in &config.rates {
            for index in 0..config.trials_per_point {
                points.push((si, rate, index));
            }
        }
    }

    let runner = |(si, rate, index): (usize, u32, u32)| {
        let site = SITES[si];
        let seed = trial_seed(config.seed, si, rate, index);
        if site == "link" {
            link_trial(rate, index, seed)
        } else {
            chip_trial(&model, &image, &golden, site, rate, index, seed)
        }
    };
    let trials = if config.parallel {
        fan_out(points, runner)
    } else {
        points.into_iter().map(runner).collect()
    };
    CampaignReport { trials }
}

impl CampaignReport {
    /// Per-(site, rate) aggregates, in sweep order.
    #[must_use]
    pub fn summaries(&self) -> Vec<PointSummary> {
        let mut out: Vec<PointSummary> = Vec::new();
        for t in &self.trials {
            let point = match out
                .iter_mut()
                .find(|p| p.site == t.site && p.rate == t.rate)
            {
                Some(p) => p,
                None => {
                    out.push(PointSummary {
                        site: t.site,
                        rate: t.rate,
                        trials: 0,
                        classes: [0; 5],
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            point.trials += 1;
            point.classes[t.class as usize] += 1;
        }
        out
    }

    /// Campaign-wide fast-path retention: the fraction of all MEM reads
    /// (across every trial's completing attempt) served from the pristine
    /// lazy-ECC path rather than a full SECDED verify. `None` if no trial
    /// observed MEM reads.
    #[must_use]
    pub fn fast_path_retention(&self) -> Option<f64> {
        let pristine: u64 = self.trials.iter().map(|t| t.mem_pristine).sum();
        let verified: u64 = self.trials.iter().map(|t| t.mem_verified).sum();
        let total = pristine + verified;
        (total > 0).then(|| pristine as f64 / total as f64)
    }

    /// Silent-data-corruption trials — the number that must be zero.
    #[must_use]
    pub fn sdc_count(&self) -> u64 {
        self.trials
            .iter()
            .filter(|t| t.class == TrialClass::Sdc)
            .count() as u64
    }
}
