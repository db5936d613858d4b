//! Spatial organization of the chip: hemispheres, functional slices and their
//! positions along the east–west stream path.
//!
//! The TSP reorganizes a conventional 2D mesh of cores into *functional slices*
//! (paper Fig. 1): each slice spans the full height of the chip (20 tiles, one per
//! superlane) and implements exactly one function — memory (MEM), vector arithmetic
//! (VXM), matrix arithmetic (MXM) or switching (SXM). Slices are arranged along the
//! east–west axis; operands and results flow horizontally across them, one
//! stream-register hop per cycle.
//!
//! The slice order used throughout this workspace (derived from the paper's Fig. 2,
//! Fig. 4 and the die photo in Fig. 5; MEM slice 0 is closest to the VXM, slice 43
//! nearest the SXM) is:
//!
//! ```text
//! MXM_W | SXM_W | MEM_W43..MEM_W0 | VXM | MEM_E0..MEM_E43 | SXM_E | MXM_E
//! ```

use core::fmt;

/// Number of MEM slices in each hemisphere (the paper's "44 parallel slices").
pub const MEM_SLICES_PER_HEMISPHERE: u8 = 44;

/// Total number of MEM slices on chip (88 = 2 hemispheres × 44).
pub const MEM_SLICES_TOTAL: u8 = 2 * MEM_SLICES_PER_HEMISPHERE;

/// Total number of slice positions along the east–west stream path:
/// 2 × (MXM + SXM + 44 MEM) + 1 VXM = 93.
pub const NUM_POSITIONS: u8 = 2 * (2 + MEM_SLICES_PER_HEMISPHERE) + 1;

/// Position of the VXM, at the chip bisection.
pub const VXM_POSITION: Position = Position(2 + MEM_SLICES_PER_HEMISPHERE);

/// Number of independent instruction control units (instruction queues) on chip.
///
/// The paper gives the total (144) but not the per-unit breakdown; we model
/// 88 MEM + 16 VXM + 16 MXM + 16 SXM + 4 C2C + 4 host = 144 (see DESIGN.md §2).
pub const NUM_ICUS: usize = 144;

/// East or West half of the chip.
///
/// Memory is partitioned into two hemispheres (paper §II-B), each with its own
/// 44 MEM slices, SXM and MXM. The VXM sits at the bisection and belongs to
/// neither hemisphere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Hemisphere {
    /// The western half (positions below the VXM).
    West,
    /// The eastern half (positions above the VXM).
    East,
}

impl Hemisphere {
    /// Both hemispheres, in `[West, East]` order.
    pub const ALL: [Hemisphere; 2] = [Hemisphere::West, Hemisphere::East];

    /// The opposite hemisphere.
    #[must_use]
    pub fn opposite(self) -> Hemisphere {
        match self {
            Hemisphere::West => Hemisphere::East,
            Hemisphere::East => Hemisphere::West,
        }
    }

    /// Index used for array storage: West = 0, East = 1.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Hemisphere::West => 0,
            Hemisphere::East => 1,
        }
    }
}

impl fmt::Display for Hemisphere {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hemisphere::West => write!(f, "W"),
            Hemisphere::East => write!(f, "E"),
        }
    }
}

/// A slice's coordinate along the east–west stream path (0 = west edge).
///
/// Streams advance exactly one position per clock cycle in their direction of
/// flow; the transit delay between two slices is therefore the absolute
/// difference of their positions (see [`crate::timing::transit_delay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Position(pub u8);

impl Position {
    /// Returns the position as a plain index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterate over every position on the chip, west to east.
    pub fn all() -> impl Iterator<Item = Position> {
        (0..NUM_POSITIONS).map(Position)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A functional slice: one vertically-stacked column of 20 tiles implementing a
/// single function (paper §I-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slice {
    /// Matrix execution module (two 320×320 MACC planes per hemisphere).
    Mxm(Hemisphere),
    /// Switch execution module (shifts, permutes, rotations, transposes).
    Sxm(Hemisphere),
    /// One of 44 memory slices in the given hemisphere. Index 0 is closest to
    /// the VXM, index 43 closest to the SXM.
    Mem {
        /// Hemisphere the slice belongs to.
        hemisphere: Hemisphere,
        /// Slice index within the hemisphere, `0..44`.
        index: u8,
    },
    /// Vector execution module, at the chip bisection (4×4 ALU mesh per lane).
    Vxm,
}

impl Slice {
    /// Construct a MEM slice handle.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 44`.
    #[must_use]
    pub fn mem(hemisphere: Hemisphere, index: u8) -> Slice {
        assert!(
            index < MEM_SLICES_PER_HEMISPHERE,
            "MEM slice index {index} out of range (0..{MEM_SLICES_PER_HEMISPHERE})"
        );
        Slice::Mem { hemisphere, index }
    }

    /// The slice's coordinate on the east–west stream path.
    #[must_use]
    pub fn position(self) -> Position {
        let m = MEM_SLICES_PER_HEMISPHERE;
        match self {
            Slice::Mxm(Hemisphere::West) => Position(0),
            Slice::Sxm(Hemisphere::West) => Position(1),
            // West MEM slices run outward from the VXM: MEM_W0 sits just west of
            // the VXM at position 2 + 43, MEM_W43 at position 2.
            Slice::Mem {
                hemisphere: Hemisphere::West,
                index,
            } => Position(2 + (m - 1 - index)),
            Slice::Vxm => VXM_POSITION,
            Slice::Mem {
                hemisphere: Hemisphere::East,
                index,
            } => Position(VXM_POSITION.0 + 1 + index),
            Slice::Sxm(Hemisphere::East) => Position(VXM_POSITION.0 + 1 + m),
            Slice::Mxm(Hemisphere::East) => Position(VXM_POSITION.0 + 2 + m),
        }
    }

    /// Recover the slice at a given position.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    pub fn at(position: Position) -> Slice {
        let m = MEM_SLICES_PER_HEMISPHERE;
        let p = position.0;
        assert!(p < NUM_POSITIONS, "position {p} out of range");
        match p {
            0 => Slice::Mxm(Hemisphere::West),
            1 => Slice::Sxm(Hemisphere::West),
            _ if p < 2 + m => Slice::Mem {
                hemisphere: Hemisphere::West,
                index: m - 1 - (p - 2),
            },
            _ if p == VXM_POSITION.0 => Slice::Vxm,
            _ if p < VXM_POSITION.0 + 1 + m => Slice::Mem {
                hemisphere: Hemisphere::East,
                index: p - (VXM_POSITION.0 + 1),
            },
            _ if p == VXM_POSITION.0 + 1 + m => Slice::Sxm(Hemisphere::East),
            _ => Slice::Mxm(Hemisphere::East),
        }
    }

    /// The hemisphere this slice belongs to, or `None` for the VXM (bisection).
    #[must_use]
    pub fn hemisphere(self) -> Option<Hemisphere> {
        match self {
            Slice::Mxm(h) | Slice::Sxm(h) => Some(h),
            Slice::Mem { hemisphere, .. } => Some(hemisphere),
            Slice::Vxm => None,
        }
    }

    /// Iterate over every functional slice on the chip, west to east.
    pub fn all() -> impl Iterator<Item = Slice> {
        Position::all().map(Slice::at)
    }
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slice::Mxm(h) => write!(f, "MXM_{h}"),
            Slice::Sxm(h) => write!(f, "SXM_{h}"),
            Slice::Mem { hemisphere, index } => write!(f, "MEM_{hemisphere}{index}"),
            Slice::Vxm => write!(f, "VXM"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_roundtrip_is_bijective() {
        for pos in Position::all() {
            assert_eq!(Slice::at(pos).position(), pos, "at {pos}");
        }
    }

    #[test]
    fn layout_matches_paper() {
        // MEM0 closest to the VXM, MEM43 nearest the SXM (paper §II-B).
        assert_eq!(
            Slice::mem(Hemisphere::East, 0).position().0,
            VXM_POSITION.0 + 1
        );
        assert_eq!(
            Slice::mem(Hemisphere::West, 0).position().0,
            VXM_POSITION.0 - 1
        );
        assert_eq!(
            Slice::mem(Hemisphere::East, 43).position().0 + 1,
            Slice::Sxm(Hemisphere::East).position().0
        );
        assert_eq!(
            Slice::mem(Hemisphere::West, 43).position().0 - 1,
            Slice::Sxm(Hemisphere::West).position().0
        );
        // MXM at the outer edges.
        assert_eq!(Slice::Mxm(Hemisphere::West).position().0, 0);
        assert_eq!(Slice::Mxm(Hemisphere::East).position().0, NUM_POSITIONS - 1);
    }

    #[test]
    fn there_are_88_mem_slices() {
        let count = Slice::all()
            .filter(|s| matches!(s, Slice::Mem { .. }))
            .count();
        assert_eq!(count, MEM_SLICES_TOTAL as usize);
    }

    #[test]
    fn vxm_is_at_bisection() {
        let vxm = Slice::Vxm.position().0 as i32;
        assert_eq!(vxm, (NUM_POSITIONS as i32 - 1) / 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mem_index_out_of_range_panics() {
        let _ = Slice::mem(Hemisphere::East, 44);
    }

    #[test]
    fn display_names() {
        assert_eq!(Slice::mem(Hemisphere::East, 7).to_string(), "MEM_E7");
        assert_eq!(Slice::Vxm.to_string(), "VXM");
        assert_eq!(Slice::Mxm(Hemisphere::West).to_string(), "MXM_W");
    }

    #[test]
    fn hemisphere_helpers() {
        assert_eq!(Hemisphere::West.opposite(), Hemisphere::East);
        assert_eq!(Slice::Vxm.hemisphere(), None);
        assert_eq!(
            Slice::Sxm(Hemisphere::East).hemisphere(),
            Some(Hemisphere::East)
        );
    }
}
