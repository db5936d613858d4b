//! Matrix execution module (MXM) instructions (paper §III-D, Table I).
//!
//! The MXM provides four independent 320×320 planes of multiply-accumulate
//! units, two per hemisphere. Weights are staged from streams into a weight
//! buffer (`LW`), installed into the array (`IW`), then activations stream
//! through (`ABC`) producing int32/fp32 dot products that are read out via the
//! accumulators (`ACC`).
//!
//! ## Modeled dataflow
//!
//! * `LW` consumes a 16-stream group for `rows` consecutive cycles; cycle `t`,
//!   stream `j`, lane `l` carries weight `W[16·t + j][l]`, so 20 cycles fill
//!   all 320 rows of one plane (16 streams × 320 lanes = 5,120 weights/cycle —
//!   with both directions and hemispheres, all 409,600 weights land in 20
//!   cycles plus transit, matching the paper's "less than 40 cycles").
//! * `ABC` consumes one 320-byte activation vector per cycle for `rows`
//!   cycles from a single stream.
//! * `ACC` emits one 320-element int32 result vector per cycle for `rows`
//!   cycles onto a quad-stream group (4 streams carry the 4 bytes of each
//!   int32 lane).

use core::fmt;

use tsp_arch::{Hemisphere, StreamGroup, StreamId};

use crate::dtype::DataType;

/// Cycles between an activation vector entering the array (`ABC`) and its
/// dot-product result becoming available for `ACC` readout: the vertical
/// chain of 20 supercells plus input/rounding stages. The compiler must
/// schedule `ACC` at least this many cycles after the matching `ABC`.
pub const MXM_ARRAY_DELAY: u32 = 32;

/// One of the four 320×320 MACC planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Plane(u8);

impl Plane {
    /// Number of MACC planes on chip.
    pub const COUNT: u8 = 4;

    /// Creates a plane handle.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    #[must_use]
    pub fn new(index: u8) -> Plane {
        assert!(index < Plane::COUNT, "MXM plane {index} out of range");
        Plane(index)
    }

    /// All four planes.
    pub fn all() -> impl Iterator<Item = Plane> {
        (0..Plane::COUNT).map(Plane)
    }

    /// Plane index, `0..4`.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// The hemisphere whose MXM hosts this plane (planes 0–1 west, 2–3 east).
    #[must_use]
    pub fn hemisphere(self) -> Hemisphere {
        if self.0 < 2 {
            Hemisphere::West
        } else {
            Hemisphere::East
        }
    }
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plane{}", self.0)
    }
}

/// What the accumulator does with each new dot-product result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumulateMode {
    /// Overwrite the accumulator with this result (first pass).
    Overwrite,
    /// Add this result to the standing accumulator (subsequent passes of a
    /// K-split matmul).
    Accumulate,
}

impl AccumulateMode {
    /// Both modes, in wire-tag order.
    pub const ALL: [AccumulateMode; 2] = [AccumulateMode::Overwrite, AccumulateMode::Accumulate];
}

/// `ovr` or `acc`, as `ACC`'s assembly text ends.
impl fmt::Display for AccumulateMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccumulateMode::Overwrite => "ovr",
            AccumulateMode::Accumulate => "acc",
        })
    }
}

/// MXM instructions (paper Table I, "MXM" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MxmOp {
    /// `LW` — load weights from a 16-stream group into the plane's weight
    /// buffer, `rows × 16` rows over `rows` cycles. [`crate::LW_ROWS`] is
    /// the most an `LW` streams: a block of `M < 320` output rows needs only
    /// `⌈M/16⌉` cycles, and the buffer rows a shorter `LW` does not load read
    /// zero at the next `IW` (none of a previous block's rows is installed
    /// again).
    LoadWeights {
        /// Destination plane.
        plane: Plane,
        /// 16-wide stream group carrying weight rows.
        streams: StreamGroup,
        /// Number of cycles (each delivering 16 rows), at most
        /// [`crate::LW_ROWS`], which fill the plane.
        rows: u8,
    },
    /// `IW` — install the staged weight buffer into the 320×320 array.
    InstallWeights {
        /// Plane whose buffer is installed.
        plane: Plane,
        /// Element type of the installed weights (int8, or fp16 using two
        /// byte-planes in tandem).
        dtype: DataType,
    },
    /// `ABC` — activation buffer control: begin consuming `rows` consecutive
    /// activation vectors from `stream`, one per cycle.
    ActivationBuffer {
        /// Plane receiving activations.
        plane: Plane,
        /// Stream carrying one 320-element int8 activation vector per cycle.
        stream: StreamId,
        /// Number of consecutive activation vectors.
        rows: u16,
    },
    /// `ACC` — read `rows` accumulated int32 (or fp32) results onto a
    /// quad-stream group, one 320-element vector per cycle.
    Accumulate {
        /// Plane producing results.
        plane: Plane,
        /// Quad-stream group (4 byte-planes of each int32/fp32 lane).
        dst: StreamGroup,
        /// Number of result vectors to emit.
        rows: u16,
        /// Overwrite or add to the standing accumulator.
        mode: AccumulateMode,
    },
}

impl MxmOp {
    /// The plane this op addresses.
    #[must_use]
    pub fn plane(self) -> Plane {
        match self {
            MxmOp::LoadWeights { plane, .. }
            | MxmOp::InstallWeights { plane, .. }
            | MxmOp::ActivationBuffer { plane, .. }
            | MxmOp::Accumulate { plane, .. } => plane,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::Direction;

    #[test]
    fn four_planes_split_across_hemispheres() {
        assert_eq!(Plane::all().count(), 4);
        assert_eq!(Plane::new(0).hemisphere(), Hemisphere::West);
        assert_eq!(Plane::new(1).hemisphere(), Hemisphere::West);
        assert_eq!(Plane::new(2).hemisphere(), Hemisphere::East);
        assert_eq!(Plane::new(3).hemisphere(), Hemisphere::East);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plane_4_panics() {
        let _ = Plane::new(4);
    }

    #[test]
    fn full_weight_load_is_20_cycles_of_16_rows() {
        // 20 cycles × 16 streams × 320 lanes = 102,400 weights = one plane.
        let per_cycle = 16 * 320;
        assert_eq!(20 * per_cycle, 320 * 320);
    }

    #[test]
    fn display_forms() {
        let lw = MxmOp::LoadWeights {
            plane: Plane::new(2),
            streams: StreamGroup::new(StreamId::new(0, Direction::West), 16),
            rows: 20,
        };
        assert_eq!(lw.to_string(), "LW plane2,SG16[0-15].W,rows=20");
        let acc = MxmOp::Accumulate {
            plane: Plane::new(0),
            dst: StreamGroup::sg4(2, Direction::East),
            rows: 64,
            mode: AccumulateMode::Overwrite,
        };
        assert_eq!(acc.to_string(), "ACC plane0,SG4[8-11].E,rows=64,ovr");
    }
}
