//! The 144 instruction control units and their mapping onto functional slices.
//!
//! The paper gives the total — "144 independent instruction queues on-chip" —
//! but not the per-unit breakdown; DESIGN.md §2 records the modeled split:
//! 88 MEM (one per slice) + 16 VXM (one per per-lane ALU) + 16 MXM (four
//! ports per plane) + 16 SXM (eight units per hemisphere) + 4 C2C + 4 host.
//! Which of them can execute an instruction is
//! [`Instruction::runs_on`](crate::Instruction::runs_on).

use core::fmt;

use tsp_arch::{Hemisphere, Position, Slice, MEM_SLICES_PER_HEMISPHERE};

use crate::{AluIndex, Plane};

/// Number of SXM sub-units per hemisphere (shift N/S pair, select, permute,
/// distribute, rotate, transpose ×2).
pub const SXM_UNITS_PER_HEMISPHERE: u8 = 8;

/// Number of MXM instruction ports per plane.
pub const MXM_PORTS_PER_PLANE: u8 = 4;

/// Number of C2C instruction queues.
pub const C2C_QUEUES: u8 = 4;

/// Number of host-interface queues.
pub const HOST_QUEUES: u8 = 4;

/// Identifies one of the 144 independent instruction queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IcuId {
    /// The ICU of one MEM slice.
    Mem {
        /// Hemisphere of the slice.
        hemisphere: Hemisphere,
        /// Slice index, `0..44`.
        index: u8,
    },
    /// One of the VXM's 16 queues (one per per-lane ALU of the 4×4 mesh).
    Vxm {
        /// The ALU this queue feeds.
        alu: AluIndex,
    },
    /// One of a plane's four MXM instruction ports.
    Mxm {
        /// The plane.
        plane: Plane,
        /// Port within the plane, `0..4`.
        port: u8,
    },
    /// One of the eight SXM sub-unit queues in a hemisphere.
    Sxm {
        /// Hemisphere of the SXM.
        hemisphere: Hemisphere,
        /// Sub-unit, `0..8`.
        unit: u8,
    },
    /// One of the four C2C queues.
    C2c {
        /// Queue index, `0..4`.
        port: u8,
    },
    /// One of the four host-interface queues (PCIe DMA, interrupts).
    Host {
        /// Queue index, `0..4`.
        port: u8,
    },
}

impl IcuId {
    /// Enumerates all 144 ICUs in a fixed deterministic order.
    pub fn all() -> impl Iterator<Item = IcuId> {
        let mems = Hemisphere::ALL.into_iter().flat_map(|h| {
            (0..MEM_SLICES_PER_HEMISPHERE).map(move |i| IcuId::Mem {
                hemisphere: h,
                index: i,
            })
        });
        let vxms = (0..AluIndex::COUNT).map(|a| IcuId::Vxm {
            alu: AluIndex::new(a),
        });
        let mxms = Plane::all()
            .flat_map(|p| (0..MXM_PORTS_PER_PLANE).map(move |port| IcuId::Mxm { plane: p, port }));
        let sxms = Hemisphere::ALL.into_iter().flat_map(|h| {
            (0..SXM_UNITS_PER_HEMISPHERE).map(move |unit| IcuId::Sxm {
                hemisphere: h,
                unit,
            })
        });
        let c2cs = (0..C2C_QUEUES).map(|port| IcuId::C2c { port });
        let hosts = (0..HOST_QUEUES).map(|port| IcuId::Host { port });
        mems.chain(vxms)
            .chain(mxms)
            .chain(sxms)
            .chain(c2cs)
            .chain(hosts)
    }

    /// The functional slice this queue's instructions execute on, and hence
    /// the position at which they intercept streams. Host queues have no
    /// stream position; C2C executes at its hemisphere's edge (we pin the
    /// four C2C queues to alternating edges).
    #[must_use]
    pub fn slice(self) -> Option<Slice> {
        match self {
            IcuId::Mem { hemisphere, index } => Some(Slice::mem(hemisphere, index)),
            IcuId::Vxm { .. } => Some(Slice::Vxm),
            IcuId::Mxm { plane, .. } => Some(Slice::Mxm(plane.hemisphere())),
            IcuId::Sxm { hemisphere, .. } => Some(Slice::Sxm(hemisphere)),
            IcuId::C2c { port } => Some(Slice::Mxm(if port % 2 == 0 {
                Hemisphere::West
            } else {
                Hemisphere::East
            })),
            IcuId::Host { .. } => None,
        }
    }

    /// The stream-path position of this queue's slice (C2C shares the MXM
    /// edge position; host queues return `None`).
    #[must_use]
    pub fn position(self) -> Option<Position> {
        self.slice().map(Slice::position)
    }
}

impl fmt::Display for IcuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcuId::Mem { hemisphere, index } => write!(f, "icu.mem.{hemisphere}{index}"),
            IcuId::Vxm { alu } => write!(f, "icu.vxm.{alu}"),
            IcuId::Mxm { plane, port } => write!(f, "icu.mxm.{plane}.p{port}"),
            IcuId::Sxm { hemisphere, unit } => write!(f, "icu.sxm.{hemisphere}{unit}"),
            IcuId::C2c { port } => write!(f, "icu.c2c.{port}"),
            IcuId::Host { port } => write!(f, "icu.host.{port}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn exactly_144_queues() {
        // Matches the paper's "144 independent instruction queues on-chip".
        assert_eq!(IcuId::all().count(), tsp_arch::geometry::NUM_ICUS);
    }

    #[test]
    fn queue_ids_are_unique() {
        let set: BTreeSet<IcuId> = IcuId::all().collect();
        assert_eq!(set.len(), 144);
    }

    #[test]
    fn positions_match_slices() {
        let mem = IcuId::Mem {
            hemisphere: Hemisphere::East,
            index: 5,
        };
        assert_eq!(
            mem.position(),
            Some(Slice::mem(Hemisphere::East, 5).position())
        );
        assert_eq!(
            IcuId::Vxm {
                alu: AluIndex::new(0)
            }
            .position(),
            Some(Slice::Vxm.position())
        );
        assert_eq!(IcuId::Host { port: 0 }.position(), None);
    }
}
