//! The registry: every workload and metric the benchmark reports, by name.
//! `BENCHMARK.json` at the repository root declares the same names, units and
//! directions (a test holds the two together); `README.md` explains them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number is read from. Simulated numbers and counts repeat
/// exactly for one seed; host numbers carry the machine's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time or memory of the simulator process.
    Host,
    /// Cycles of the modelled chip, or of the serving layer's virtual clock.
    Simulated,
    /// An event count or a ratio of counts: exact, clock-free.
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
            Clock::Count => "count",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Open loop on the virtual clock (the serve workloads); the rest are
    /// closed loops of one client.
    pub open_loop: bool,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate on the inference/serving path this metric belongs to.
    pub layer: &'static str,
    pub clock: Clock,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "resnet50_b1",
        why: "ResNet-50 224x224 batch-1 functional inference, the paper's headline: tsp-sim's data path (MXM, streams, MEM) does most of the work",
        open_loop: false,
    },
    Workload {
        name: "resnet50_timing",
        why: "same program with the data path skipped: dispatch and timing bookkeeping only, so a kernel speed-up must not move it",
        open_loop: false,
    },
    Workload {
        name: "stream_vadd",
        why: "Fig. 3 Z=sat(X+Y) over 1000 vectors on a fresh chip: MEM+VXM, no MXM, no tsp-nn; bound by dispatch and Chip::new",
        open_loop: false,
    },
    Workload {
        name: "compile_resnet50",
        why: "cold compile, encode, decode and lower of ResNet-50: tsp-compiler, tsp-nn::compile and tsp-isa only, no simulation in the op",
        open_loop: false,
    },
    Workload {
        name: "serve_steady",
        why: "tsp-serve fault-free at 60/90/120% of capacity, rates frozen in cycles: admission, batching and per-dispatch emplace",
        open_loop: true,
    },
    Workload {
        name: "serve_chaos",
        why: "the 60% rate with chip 0 struck transiently (breaker held open), then permanently: retry, backoff, re-emplace and the circuit breaker",
        open_loop: true,
    },
];

use Better::{Higher, Lower};
use Clock::{Count, Host, Simulated};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        clock: Host,
    },
    EndToEnd {
        name: "host_op_s_p50",
        unit: "s",
        better: Lower,
        bound: 0.25,
        clock: Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
        clock: Host,
    },
    EndToEnd {
        name: "sim_cycles_p50",
        unit: "cycles",
        better: Lower,
        bound: 0.20,
        clock: Simulated,
    },
    EndToEnd {
        name: "sim_cycles_p99",
        unit: "cycles",
        better: Lower,
        bound: 0.25,
        clock: Simulated,
    },
    EndToEnd {
        name: "goodput_fraction",
        unit: "fraction",
        better: Higher,
        bound: 0.05,
        clock: Count,
    },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    clock: Clock,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        clock,
    }
}

pub const PER_LAYER: [PerLayer; 106] = [
    // tsp-nn
    pl("nn.graph_build_s", "s", Lower, "tsp-nn", Host),
    pl("nn.quantize_s", "s", Lower, "tsp-nn", Host),
    pl("nn.reference_int8_s", "s", Lower, "tsp-nn", Host),
    pl("nn.compile_s", "s", Lower, "tsp-nn", Host),
    pl("nn.compile_cached_hit_s", "s", Lower, "tsp-nn", Host),
    pl("nn.load_constants_s", "s", Lower, "tsp-nn", Host),
    pl("nn.write_input_s", "s", Lower, "tsp-nn", Host),
    pl("nn.read_logits_s", "s", Lower, "tsp-nn", Host),
    pl("nn.constant_vectors", "count", Lower, "tsp-nn", Count),
    pl(
        "nn.predicted_cycle_error",
        "cycles",
        Lower,
        "tsp-nn",
        Simulated,
    ),
    pl(
        "nn.paper_ips_ratio",
        "fraction",
        Higher,
        "tsp-nn",
        Simulated,
    ),
    pl(
        "nn.reference_mismatch_logits",
        "count",
        Lower,
        "tsp-nn",
        Count,
    ),
    // tsp-compiler
    pl("compiler.conv3x3_64_s", "s", Lower, "tsp-compiler", Host),
    pl("compiler.conv1x1_256_s", "s", Lower, "tsp-compiler", Host),
    pl("compiler.matmul_320_s", "s", Lower, "tsp-compiler", Host),
    pl("compiler.maxpool3x3_s", "s", Lower, "tsp-compiler", Host),
    pl("compiler.into_program_s", "s", Lower, "tsp-compiler", Host),
    pl(
        "compiler.instructions",
        "count",
        Lower,
        "tsp-compiler",
        Count,
    ),
    pl("compiler.nops", "count", Lower, "tsp-compiler", Count),
    pl(
        "compiler.queue_span",
        "cycles",
        Lower,
        "tsp-compiler",
        Simulated,
    ),
    // tsp-isa
    pl("isa.encode_s", "s", Lower, "tsp-isa", Host),
    pl("isa.decode_s", "s", Lower, "tsp-isa", Host),
    pl("isa.decoded_lower_s", "s", Lower, "tsp-isa", Host),
    pl("isa.program_bytes", "bytes", Lower, "tsp-isa", Count),
    pl("isa.decoded_ops", "count", Lower, "tsp-isa", Count),
    // tsp-sim, host side
    pl("sim.mcycles_per_s", "Mcycles/s", Higher, "tsp-sim", Host),
    pl("sim.chip_new_s", "s", Lower, "tsp-sim", Host),
    pl("sim.run_functional_s", "s", Lower, "tsp-sim", Host),
    pl("sim.run_timing_s", "s", Lower, "tsp-sim", Host),
    pl("sim.datapath_share", "fraction", Lower, "tsp-sim", Host),
    pl("sim.run_interpreted_s", "s", Lower, "tsp-sim", Host),
    pl("sim.run_nocounters_s", "s", Lower, "tsp-sim", Host),
    pl("sim.run_trace_s", "s", Lower, "tsp-sim", Host),
    pl("sim.run_layers_s", "s", Lower, "tsp-sim", Host),
    pl("sim.host_ns_per_instruction", "ns", Lower, "tsp-sim", Host),
    pl("sim.host_ns_per_macc_wave", "ns", Lower, "tsp-sim", Host),
    pl("sim.mxm_feed_i8_gmacs", "GMAC/s", Higher, "tsp-sim", Host),
    pl("sim.vxm_add_sat_gops", "Gop/s", Higher, "tsp-sim", Host),
    pl("sim.stream_file_roundtrip_ns", "ns", Lower, "tsp-sim", Host),
    // tsp-sim, simulated side
    pl("sim.instructions", "count", Lower, "tsp-sim", Count),
    pl("sim.nops", "count", Lower, "tsp-sim", Count),
    pl("sim.mxm_macc_waves", "count", Lower, "tsp-sim", Count),
    pl(
        "sim.mxm_waves_per_cycle",
        "1/cycle",
        Higher,
        "tsp-sim",
        Simulated,
    ),
    pl("sim.vxm_alu_issue", "count", Lower, "tsp-sim", Count),
    pl("sim.sram_reads", "count", Lower, "tsp-sim", Count),
    pl("sim.sram_writes", "count", Lower, "tsp-sim", Count),
    pl("sim.stream_high_water", "count", Lower, "tsp-sim", Count),
    pl("sim.icu_queue_high_water", "count", Lower, "tsp-sim", Count),
    pl("stage.stem.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl("stage.s2.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl("stage.s3.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl("stage.s4.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl("stage.s5.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl("stage.head.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl("kind.conv3x3.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl(
        "kind.conv3x3.waves_per_cycle",
        "1/cycle",
        Higher,
        "tsp-sim",
        Simulated,
    ),
    pl("kind.conv1x1.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl(
        "kind.conv1x1.waves_per_cycle",
        "1/cycle",
        Higher,
        "tsp-sim",
        Simulated,
    ),
    pl("kind.proj.cycles", "cycles", Lower, "tsp-sim", Simulated),
    pl(
        "kind.proj.waves_per_cycle",
        "1/cycle",
        Higher,
        "tsp-sim",
        Simulated,
    ),
    pl("kind.add.cycles", "cycles", Lower, "tsp-sim", Simulated),
    // tsp-mem
    pl("mem.ecc_encode_ns", "ns", Lower, "tsp-mem", Host),
    pl("mem.ecc_check_ns", "ns", Lower, "tsp-mem", Host),
    pl("mem.reads_pristine", "count", Higher, "tsp-mem", Count),
    pl("mem.reads_verified", "count", Lower, "tsp-mem", Count),
    // tsp-serve
    pl("serve.load60.wall_s", "s", Lower, "tsp-serve", Host),
    pl("serve.load60.good", "count", Higher, "tsp-serve", Count),
    pl(
        "serve.load60.p99_cycles",
        "cycles",
        Lower,
        "tsp-serve",
        Simulated,
    ),
    pl("serve.load90.wall_s", "s", Lower, "tsp-serve", Host),
    pl("serve.load90.good", "count", Higher, "tsp-serve", Count),
    pl(
        "serve.load90.p99_cycles",
        "cycles",
        Lower,
        "tsp-serve",
        Simulated,
    ),
    pl("serve.load120.wall_s", "s", Lower, "tsp-serve", Host),
    pl("serve.load120.good", "count", Higher, "tsp-serve", Count),
    pl(
        "serve.load120.p99_cycles",
        "cycles",
        Lower,
        "tsp-serve",
        Simulated,
    ),
    pl("serve.transient.wall_s", "s", Lower, "tsp-serve", Host),
    pl("serve.transient.good", "count", Higher, "tsp-serve", Count),
    pl(
        "serve.transient.p99_cycles",
        "cycles",
        Lower,
        "tsp-serve",
        Simulated,
    ),
    pl("serve.persistent.wall_s", "s", Lower, "tsp-serve", Host),
    pl("serve.persistent.good", "count", Higher, "tsp-serve", Count),
    pl(
        "serve.persistent.p99_cycles",
        "cycles",
        Lower,
        "tsp-serve",
        Simulated,
    ),
    pl(
        "serve.host_requests_per_s",
        "1/s",
        Higher,
        "tsp-serve",
        Host,
    ),
    pl("serve.max_load_ok_pct", "%", Higher, "tsp-serve", Simulated),
    pl("serve.batches", "count", Lower, "tsp-serve", Count),
    pl("serve.mean_batch_size", "count", Higher, "tsp-serve", Count),
    pl(
        "serve.queue_wait_cycles_p50",
        "cycles",
        Lower,
        "tsp-serve",
        Simulated,
    ),
    pl("serve.shed_queue_full", "count", Lower, "tsp-serve", Count),
    pl("serve.shed_expired", "count", Lower, "tsp-serve", Count),
    pl("serve.deadline_missed", "count", Lower, "tsp-serve", Count),
    pl("serve.retries_sram", "count", Lower, "tsp-serve", Count),
    pl("serve.retries_link", "count", Lower, "tsp-serve", Count),
    pl("serve.failed", "count", Lower, "tsp-serve", Count),
    pl(
        "serve.quarantined_chips",
        "count",
        Lower,
        "tsp-serve",
        Count,
    ),
    pl(
        "serve.chip_utilization_min",
        "fraction",
        Higher,
        "tsp-serve",
        Simulated,
    ),
    pl("serve.verify_accounting_s", "s", Lower, "tsp-serve", Host),
    pl("serve.open_loop_s", "s", Lower, "tsp-serve", Host),
    // tsp-faults
    pl("faults.applied", "count", Higher, "tsp-faults", Count),
    pl("faults.vacant", "count", Lower, "tsp-faults", Count),
    // tsp-telemetry, and the harness's own tracing
    pl("telemetry.to_json_s", "s", Lower, "tsp-telemetry", Host),
    pl(
        "telemetry.perfetto_export_s",
        "s",
        Lower,
        "tsp-telemetry",
        Host,
    ),
    pl(
        "telemetry.trace_events",
        "count",
        Lower,
        "tsp-telemetry",
        Count,
    ),
    pl(
        "telemetry.dropped_events",
        "count",
        Lower,
        "tsp-telemetry",
        Count,
    ),
    pl(
        "harness.trace_overhead_frac",
        "fraction",
        Lower,
        "tsp-telemetry",
        Host,
    ),
    pl("harness.host_op_raw_s", "s", Lower, "harness", Host),
    pl("harness.setup_raw_s", "s", Lower, "harness", Host),
    // tsp-host
    pl("host.threads", "count", Higher, "tsp-host", Count),
    pl("host.runq_wait_frac", "fraction", Lower, "tsp-host", Host),
];

pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_telemetry::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` is what the driver reads; the registry is what the
    /// harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<_> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let declared: Vec<_> = workloads
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let registry: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, registry);

        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        let declared: Vec<_> = e2e
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let registry: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(declared, registry);

        let per_layer = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        let declared: Vec<_> = per_layer
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let registry: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(declared, registry);

        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(
            doc.get("paths")
                .and_then(Json::as_array)
                .map(|p| p.iter().filter_map(Json::as_str).collect::<Vec<_>>()),
            Some(vec!["benchmark"])
        );
    }

    /// The glossary in `README.md` names every workload and metric.
    #[test]
    fn readme_names_everything() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not explain `{name}`"
            );
        }
    }
}
