//! # tsp-telemetry — the observability substrate
//!
//! Dependency-free foundation for seeing where cycles go inside a TSP run
//! (DESIGN.md §8):
//!
//! * [`Telemetry`] — cheap per-unit utilization/occupancy counters the
//!   simulator aggregates on every run, even when full event tracing is off.
//!   The counters are plain integers bumped on the dispatch path; they never
//!   influence simulated results or cycle counts (enforced by test).
//! * [`perfetto`] — a Chrome/Perfetto Trace Event Format builder and a
//!   structural validator, so a run's timeline can be inspected in
//!   `ui.perfetto.dev`.
//! * [`profile`] — text-profile rendering: top-N busiest units, utilization
//!   tables, idle-gap analysis.
//! * [`json`] — a minimal JSON value with one printer and a parser (the
//!   build environment has no crates.io access, hence no serde): every
//!   report is built as a [`json::Json`] and printed by it, and emitted
//!   traces are validated by parsing them back.
//! * [`span`] — virtual-cycle-clock span trees (request/layer tracing, no
//!   wall time anywhere) that render onto Perfetto tracks.
//!
//! Per-layer attribution rides the same counters: the compiler emits
//! [`LayerMark`] boundaries, the simulator snapshots [`Telemetry`] at each
//! boundary crossing, and [`Telemetry::delta_since`] turns consecutive
//! snapshots into [`LayerSlice`]s whose merge reproduces the whole-run
//! counters **bit-exactly**.
//!
//! This crate is a leaf on purpose: the simulator, the fabric, and the bench
//! harness all depend on it, so it cannot know about any of them. Identity
//! mapping (which ICU feeds which counter) lives with the simulator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod perfetto;
pub mod profile;
pub mod span;

use std::sync::Arc;

use json::Json;

/// A compiler-emitted layer boundary: work dispatched at cycles `< end` (and
/// at or after the previous mark's `end`) belongs to the named layer. Marks
/// are contiguous and sorted by `end`; the simulator slices its counters at
/// these boundaries (`RunOptions::layers` in `tsp-sim`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMark {
    /// Layer name (shared, so per-run clones are cheap).
    pub name: Arc<str>,
    /// First cycle **past** the layer: the boundary.
    pub end: u64,
}

/// One layer's slice of a run's counters: the [`Telemetry`] delta between
/// two consecutive boundary snapshots. Count fields hold only this layer's
/// events; high-water fields hold the running maximum *up to* the layer's
/// end, so folding every slice of a run with [`Telemetry::merge`] reproduces
/// the whole-run counters bit-exactly (counts sum, running maxima max to the
/// final maximum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSlice {
    /// Layer name.
    pub name: Arc<str>,
    /// First cycle of the layer (the previous mark's `end`, 0 for the first).
    pub start: u64,
    /// The layer's boundary cycle.
    pub end: u64,
    /// This layer's share of the run counters.
    pub telemetry: Telemetry,
}

impl LayerSlice {
    /// Layer length in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// Number of MXM planes contributing busy-cycle counters.
pub const MXM_PLANES: usize = 4;
/// Number of VXM per-lane ALUs contributing issue-slot counters.
pub const VXM_ALUS: usize = 16;
/// Number of hemispheres (West = 0, East = 1).
pub const HEMISPHERES: usize = 2;

/// Per-unit utilization and occupancy counters for one run.
///
/// Semantics (DESIGN.md §8): every counter is an *event count at dispatch
/// granularity* — one increment per architectural event, scaled nowhere.
/// High-water marks are point-in-time maxima sampled at the events that can
/// raise them. Counting is O(1) per event and allocation-free, so it stays
/// on even for production runs; `RunOptions { counters: false }` exists only
/// to measure the (bounded ≤ 5%) overhead itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Busy cycles per MXM plane: weight loads, installs, activation waves
    /// and accumulator readouts all occupy the plane for their cycle.
    pub mxm_plane_busy: [u64; MXM_PLANES],
    /// MACC waves per plane (one 320×320 pass each) — the roofline numerator.
    pub mxm_macc_waves: [u64; MXM_PLANES],
    /// Issue slots used per VXM ALU (paper: 16 per-lane ALUs, 4×4 mesh).
    pub vxm_alu_issue: [u64; VXM_ALUS],
    /// SRAM read accesses per hemisphere (gathers count as reads).
    pub sram_reads: [u64; HEMISPHERES],
    /// MEM `Read`s whose stored word was pristine (`check == encode(data)`
    /// by construction), forwarded without a consumer-side ECC verify — the
    /// fault-free fast path. With `mem_reads_verified` this yields the
    /// fast-path retention rate the fault campaigns report.
    pub mem_reads_pristine: u64,
    /// MEM `Read`s whose stored word carried explicit check bits (touched by
    /// a fault path), forwarded for real consumer-side verification.
    pub mem_reads_verified: u64,
    /// SRAM write accesses per hemisphere (scatters count as writes).
    pub sram_writes: [u64; HEMISPHERES],
    /// SXM vector transforms per hemisphere.
    pub sxm_ops: [u64; HEMISPHERES],
    /// Vectors that left on C2C links.
    pub c2c_sends: u64,
    /// Vectors that arrived on C2C links.
    pub c2c_receives: u64,
    /// Instruction-fetch blocks decoded (640 B each).
    pub ifetches: u64,
    /// High-water mark of live stream-register diagonals chip-wide —
    /// stream-register-file occupancy pressure.
    pub stream_high_water: u64,
    /// High-water mark of pending instructions in any single ICU queue
    /// (sampled at program load and after every `Ifetch` refill).
    pub icu_queue_high_water: u64,
    /// Trace events discarded by the event-capacity cap (0 when tracing is
    /// off or the trace fit).
    pub dropped_events: u64,
}

impl Telemetry {
    /// An all-zero counter set.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Folds another counter set into this one: counts add, high-water marks
    /// take the maximum. Used to aggregate across repeated runs of one
    /// workload and across the chips of a fabric.
    pub fn merge(&mut self, other: &Telemetry) {
        for (a, b) in self.mxm_plane_busy.iter_mut().zip(&other.mxm_plane_busy) {
            *a += b;
        }
        for (a, b) in self.mxm_macc_waves.iter_mut().zip(&other.mxm_macc_waves) {
            *a += b;
        }
        for (a, b) in self.vxm_alu_issue.iter_mut().zip(&other.vxm_alu_issue) {
            *a += b;
        }
        for (a, b) in self.sram_reads.iter_mut().zip(&other.sram_reads) {
            *a += b;
        }
        self.mem_reads_pristine += other.mem_reads_pristine;
        self.mem_reads_verified += other.mem_reads_verified;
        for (a, b) in self.sram_writes.iter_mut().zip(&other.sram_writes) {
            *a += b;
        }
        for (a, b) in self.sxm_ops.iter_mut().zip(&other.sxm_ops) {
            *a += b;
        }
        self.c2c_sends += other.c2c_sends;
        self.c2c_receives += other.c2c_receives;
        self.ifetches += other.ifetches;
        self.stream_high_water = self.stream_high_water.max(other.stream_high_water);
        self.icu_queue_high_water = self.icu_queue_high_water.max(other.icu_queue_high_water);
        self.dropped_events += other.dropped_events;
    }

    /// The counter delta since `baseline`, where `baseline` is an earlier
    /// snapshot of *this* counter stream (every count field of `self` must be
    /// ≥ its `baseline` value — snapshots are monotone prefixes).
    ///
    /// Count fields subtract; high-water fields (and `dropped_events`' peers
    /// among them: `stream_high_water`, `icu_queue_high_water`) carry the
    /// **running** maximum from `self`, not a windowed one — maxima are not
    /// invertible, and carrying the running value is exactly what makes a
    /// fold of consecutive deltas with [`Telemetry::merge`] reproduce the
    /// final counter set bit-exactly.
    #[must_use]
    pub fn delta_since(&self, baseline: &Telemetry) -> Telemetry {
        let sub_arr =
            |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
        let fixed = |v: Vec<u64>| -> [u64; MXM_PLANES] { v.try_into().expect("length") };
        let fixed2 = |v: Vec<u64>| -> [u64; HEMISPHERES] { v.try_into().expect("length") };
        Telemetry {
            mxm_plane_busy: fixed(sub_arr(&self.mxm_plane_busy, &baseline.mxm_plane_busy)),
            mxm_macc_waves: fixed(sub_arr(&self.mxm_macc_waves, &baseline.mxm_macc_waves)),
            vxm_alu_issue: sub_arr(&self.vxm_alu_issue, &baseline.vxm_alu_issue)
                .try_into()
                .expect("length"),
            sram_reads: fixed2(sub_arr(&self.sram_reads, &baseline.sram_reads)),
            mem_reads_pristine: self.mem_reads_pristine - baseline.mem_reads_pristine,
            mem_reads_verified: self.mem_reads_verified - baseline.mem_reads_verified,
            sram_writes: fixed2(sub_arr(&self.sram_writes, &baseline.sram_writes)),
            sxm_ops: fixed2(sub_arr(&self.sxm_ops, &baseline.sxm_ops)),
            c2c_sends: self.c2c_sends - baseline.c2c_sends,
            c2c_receives: self.c2c_receives - baseline.c2c_receives,
            ifetches: self.ifetches - baseline.ifetches,
            stream_high_water: self.stream_high_water,
            icu_queue_high_water: self.icu_queue_high_water,
            dropped_events: self.dropped_events - baseline.dropped_events,
        }
    }

    /// Total MXM busy cycles across the four planes.
    #[must_use]
    pub fn mxm_busy_cycles(&self) -> u64 {
        self.mxm_plane_busy.iter().sum()
    }

    /// Total MACC waves across the four planes.
    #[must_use]
    pub fn macc_waves(&self) -> u64 {
        self.mxm_macc_waves.iter().sum()
    }

    /// Fraction of MXM plane-cycles that were busy over a run of `cycles`
    /// (1.0 = all four planes occupied every cycle).
    #[must_use]
    pub fn mxm_busy_fraction(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.mxm_busy_cycles() as f64 / (MXM_PLANES as u64 * cycles) as f64
    }

    /// MACC waves per cycle (the roofline's attained-throughput axis;
    /// peak = 4.0, one wave per plane per cycle).
    #[must_use]
    pub fn macc_waves_per_cycle(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.macc_waves() as f64 / cycles as f64
    }

    /// Total VXM ALU issue slots used.
    #[must_use]
    pub fn vxm_issue_total(&self) -> u64 {
        self.vxm_alu_issue.iter().sum()
    }

    /// Total SRAM accesses (reads + writes, both hemispheres).
    #[must_use]
    pub fn sram_accesses(&self) -> u64 {
        self.sram_reads.iter().sum::<u64>() + self.sram_writes.iter().sum::<u64>()
    }

    /// Total SXM transforms (both hemispheres).
    #[must_use]
    pub fn sxm_total(&self) -> u64 {
        self.sxm_ops.iter().sum()
    }

    /// The counters as a JSON document (deterministic field order, no
    /// host-dependent values), laid out by [`Json::pretty`] with its closing
    /// brace at column `indent`.
    #[must_use]
    pub fn to_json(&self, indent: usize) -> String {
        let counts = |xs: &[u64]| xs.iter().copied().collect::<Json>();
        Json::obj([
            ("mxm_plane_busy", counts(&self.mxm_plane_busy)),
            ("mxm_macc_waves", counts(&self.mxm_macc_waves)),
            ("vxm_alu_issue", counts(&self.vxm_alu_issue)),
            ("sram_reads", counts(&self.sram_reads)),
            ("mem_reads_pristine", self.mem_reads_pristine.into()),
            ("mem_reads_verified", self.mem_reads_verified.into()),
            ("sram_writes", counts(&self.sram_writes)),
            ("sxm_ops", counts(&self.sxm_ops)),
            ("c2c_sends", self.c2c_sends.into()),
            ("c2c_receives", self.c2c_receives.into()),
            ("ifetches", self.ifetches.into()),
            ("stream_high_water", self.stream_high_water.into()),
            ("icu_queue_high_water", self.icu_queue_high_water.into()),
            ("dropped_events", self.dropped_events.into()),
        ])
        .pretty(indent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Telemetry {
        Telemetry {
            mxm_plane_busy: [10, 20, 30, 40],
            mxm_macc_waves: [8, 16, 24, 32],
            vxm_alu_issue: core::array::from_fn(|i| i as u64),
            sram_reads: [100, 200],
            mem_reads_pristine: 290,
            mem_reads_verified: 10,
            sram_writes: [50, 60],
            sxm_ops: [7, 9],
            c2c_sends: 3,
            c2c_receives: 4,
            ifetches: 5,
            stream_high_water: 77,
            icu_queue_high_water: 12,
            dropped_events: 1,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let t = sample();
        let text = t.to_json(4);
        let doc = Json::parse(&text).expect("well-formed");
        assert_eq!(
            doc.get("sram_reads").map(ToString::to_string).as_deref(),
            Some("[100,200]")
        );
        assert_eq!(
            doc.get("stream_high_water").and_then(Json::as_u64),
            Some(77)
        );
        assert_eq!(
            doc.pretty(4),
            text,
            "printing the parsed document is a fixed point"
        );
        assert!(
            text.ends_with("\n    }"),
            "closing brace at the indent: {text}"
        );
    }

    #[test]
    fn merge_sums_counts_and_maxes_high_water() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.mxm_plane_busy, [20, 40, 60, 80]);
        assert_eq!(a.sram_reads, [200, 400]);
        assert_eq!(a.mem_reads_pristine, 580);
        assert_eq!(a.mem_reads_verified, 20);
        assert_eq!(a.c2c_sends, 6);
        // High-water marks take the max, not the sum.
        assert_eq!(a.stream_high_water, 77);
        assert_eq!(a.icu_queue_high_water, 12);
        assert_eq!(a.dropped_events, 2);
    }

    #[test]
    fn deltas_fold_back_to_the_final_snapshot() {
        // Three monotone snapshots of one counter stream: zero, mid, final.
        let mid = sample();
        let mut fin = sample();
        fin.merge(&sample()); // counts double, high-waters stay
        fin.stream_high_water = 90; // high-water rose after the mid snapshot
        let d1 = mid.delta_since(&Telemetry::new());
        let d2 = fin.delta_since(&mid);
        assert_eq!(d1, mid, "delta from zero is the snapshot itself");
        assert_eq!(d2.stream_high_water, 90, "running max, not windowed");
        let mut folded = d1;
        folded.merge(&d2);
        assert_eq!(folded, fin, "slices merge back bit-exactly");
    }

    #[test]
    fn roofline_helpers() {
        let t = sample();
        assert_eq!(t.mxm_busy_cycles(), 100);
        assert_eq!(t.macc_waves(), 80);
        assert!((t.mxm_busy_fraction(100) - 0.25).abs() < 1e-12);
        assert!((t.macc_waves_per_cycle(40) - 2.0).abs() < 1e-12);
        assert_eq!(t.mxm_busy_fraction(0), 0.0);
    }
}
