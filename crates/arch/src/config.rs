//! Chip configuration: the knobs the TSP exposes (clock, enabled superlanes)
//! plus the fixed architectural parameters, gathered in one place so the
//! simulator, compiler and power model agree.

use crate::geometry::{MEM_SLICES_PER_HEMISPHERE, NUM_ICUS};
use crate::vector::{LANES, LANES_PER_SUPERLANE, SUPERLANES};

/// Number of 320×320 MACC planes in the MXM (four across both hemispheres).
pub const MXM_PLANES: usize = 4;

/// Vector ALUs per lane in the VXM (a 4×4 mesh; 5,120 ALUs chip-wide).
pub const VXM_ALUS_PER_LANE: usize = 16;

/// Words addressable per MEM slice (13-bit physical word address).
pub const WORDS_PER_SLICE: usize = 1 << 13;

/// Bytes per addressed memory word, per superlane tile (one byte per lane).
pub const WORD_BYTES: usize = LANES_PER_SUPERLANE;

/// SRAM banks per MEM slice (pseudo-dual-port: one read + one write per cycle
/// when they target different banks).
pub const BANKS_PER_SLICE: usize = 2;

/// Number of C2C serdes links (sixteen ×4 links at 30 Gb/s each).
pub const C2C_LINKS: usize = 16;

/// Per-link C2C bandwidth in bits per second (×4 lanes at 30 Gb/s).
pub const C2C_LINK_GBPS: f64 = 4.0 * 30.0e9;

/// Configuration of a simulated TSP chip.
///
/// Only genuinely configurable state lives here (the paper's `Config`
/// instruction powers down unused superlanes; clock frequency is a property of
/// the part). Architectural constants stay `const`s so invalid geometry is
/// unrepresentable.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Core clock frequency in hertz. The ASIC runs at a nominal 900 MHz; the
    /// paper's bandwidth arithmetic assumes 1 GHz "for the sake of exposition".
    pub clock_hz: f64,
    /// Number of powered superlanes, `1..=20`. Scalable-vector mode (paper
    /// §II-F) powers down unused rows for energy proportionality.
    pub superlanes_enabled: usize,
}

impl ChipConfig {
    /// The as-built first-generation part: 900 MHz, all 20 superlanes.
    #[must_use]
    pub fn asic() -> ChipConfig {
        ChipConfig {
            clock_hz: 900.0e6,
            superlanes_enabled: SUPERLANES,
        }
    }

    /// The paper's exposition configuration (1 GHz core clock), used by the
    /// bandwidth equations Eq. 1–2 and the roofline figure.
    #[must_use]
    pub fn paper_1ghz() -> ChipConfig {
        ChipConfig {
            clock_hz: 1.0e9,
            ..ChipConfig::asic()
        }
    }

    /// Number of active lanes (16 per enabled superlane).
    #[must_use]
    pub fn active_lanes(&self) -> usize {
        self.superlanes_enabled * LANES_PER_SUPERLANE
    }

    /// The effective vector length in elements for this configuration.
    #[must_use]
    pub fn vector_length(&self) -> usize {
        self.active_lanes()
    }

    /// Peak stream-register bandwidth in bytes/second (paper Eq. 1):
    /// `2 directions × 32 B/lane × 320 lanes` per cycle.
    #[must_use]
    pub fn stream_bandwidth(&self) -> f64 {
        2.0 * 32.0 * self.active_lanes() as f64 * self.clock_hz
    }

    /// Peak SRAM bandwidth in bytes/second (paper Eq. 2):
    /// `2 hemispheres × 44 slices × 2 banks × 320 B` per cycle.
    #[must_use]
    pub fn sram_bandwidth(&self) -> f64 {
        2.0 * f64::from(MEM_SLICES_PER_HEMISPHERE)
            * BANKS_PER_SLICE as f64
            * self.active_lanes() as f64
            * self.clock_hz
    }

    /// Maximum instruction-fetch bandwidth in bytes/second (paper §II-B:
    /// `144 × 16` bytes per cycle).
    #[must_use]
    pub fn ifetch_bandwidth(&self) -> f64 {
        NUM_ICUS as f64 * 16.0 * self.clock_hz
    }

    /// Peak int8 arithmetic throughput of the MXM in ops/second (a
    /// multiply-accumulate counts as two ops): `4 planes × 320 × 320 × 2`.
    #[must_use]
    pub fn peak_int8_ops(&self) -> f64 {
        MXM_PLANES as f64
            * (LANES * LANES) as f64
            * 2.0
            * self.clock_hz
            * (self.superlanes_enabled as f64 / SUPERLANES as f64)
    }

    /// Total on-chip SRAM capacity in bytes (220 MiB when fully populated).
    #[must_use]
    pub fn sram_capacity(&self) -> usize {
        2 * MEM_SLICES_PER_HEMISPHERE as usize * WORDS_PER_SLICE * WORD_BYTES * SUPERLANES
    }
}

impl Default for ChipConfig {
    fn default() -> ChipConfig {
        ChipConfig::asic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIB: f64 = 1024.0 * 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn capacity_is_220_mib() {
        let c = ChipConfig::asic();
        assert_eq!(c.sram_capacity(), 220 * 1024 * 1024);
    }

    #[test]
    fn eq1_stream_bandwidth_20_tib() {
        // Paper Eq. 1: B = 2 × 32 B/lane × 320 lanes = 20 TiB/s at 1 GHz.
        let b = ChipConfig::paper_1ghz().stream_bandwidth();
        let tib = b / TIB;
        assert!((tib - 18.6).abs() < 0.5, "stream bandwidth {tib} TiB/s");
        // The paper rounds 20.48 TB/s to "20 TiB/s"; in decimal terabytes:
        assert!((b / 1e12 - 20.48).abs() < 1e-6);
    }

    #[test]
    fn eq2_sram_bandwidth_55_tib() {
        // Paper Eq. 2: M = 2 × 44 × 2 × 320 B = 55 TiB/s at 1 GHz (decimal 56.3 TB/s).
        let m = ChipConfig::paper_1ghz().sram_bandwidth();
        assert!((m / 1e12 - 56.32).abs() < 1e-6, "sram bandwidth {m}");
    }

    #[test]
    fn ifetch_bandwidth_2_25_tib() {
        // Paper: 144 × 16 B/cycle = 2.25 TiB/s at 1 GHz (they use binary-ish units).
        let f = ChipConfig::paper_1ghz().ifetch_bandwidth();
        assert!((f / 1e12 - 2.304).abs() < 1e-6);
    }

    #[test]
    fn peak_int8_is_820_teraops() {
        let p = ChipConfig::paper_1ghz().peak_int8_ops();
        assert!((p / 1e12 - 819.2).abs() < 1e-6, "peak {p}");
    }

    #[test]
    fn scalable_vl_scales_peak() {
        let mut c = ChipConfig::paper_1ghz();
        c.superlanes_enabled = 10;
        assert_eq!(c.vector_length(), 160);
        assert!((c.peak_int8_ops() / 1e12 - 409.6).abs() < 1e-6);
    }
}
