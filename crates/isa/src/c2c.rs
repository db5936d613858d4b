//! Chip-to-chip (C2C) instructions: vector send/receive over the sixteen ×4
//! serdes links, plus skew management for the plesiochronous link clocks
//! (paper §II item 6, Table I).

use core::fmt;

use tsp_arch::StreamId;

/// Number of C2C links on the first-generation part.
pub const NUM_LINKS: u8 = 16;

/// One of the sixteen ×4 off-chip links (30 Gb/s per lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(u8);

impl LinkId {
    /// Creates a link handle.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    #[must_use]
    pub fn new(index: u8) -> LinkId {
        assert!(index < NUM_LINKS, "C2C link {index} out of range");
        LinkId(index)
    }

    /// Link index, `0..16`.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// All sixteen links.
    pub fn all() -> impl Iterator<Item = LinkId> {
        (0..NUM_LINKS).map(LinkId)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// C2C instructions (paper Table I, "C2C" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum C2cOp {
    /// `Deskew` — manage skew across the plesiochronous link: align the
    /// receive clock domain so subsequent `Receive`s are deterministic.
    Deskew {
        /// Link to align.
        link: LinkId,
    },
    /// `Send` — transmit a 320-byte vector from a stream out over a link.
    Send {
        /// Transmit link.
        link: LinkId,
        /// Stream whose value at the chip edge is transmitted.
        stream: StreamId,
    },
    /// `Receive` — accept a 320-byte vector from a link, emplacing it onto a
    /// stream at the chip edge (from which a MEM `Write` commits it to main
    /// memory, as the paper describes).
    Receive {
        /// Receive link.
        link: LinkId,
        /// Stream the received vector is placed on.
        stream: StreamId,
    },
}

impl C2cOp {
    /// The link the op addresses.
    #[must_use]
    pub fn link(self) -> LinkId {
        match self {
            C2cOp::Deskew { link } | C2cOp::Send { link, .. } | C2cOp::Receive { link, .. } => link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_links() {
        assert_eq!(LinkId::all().count(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_16_panics() {
        let _ = LinkId::new(16);
    }

    #[test]
    fn aggregate_bandwidth_matches_paper() {
        // 16 links × 4 lanes × 30 Gb/s × 2 directions = 3.84 Tb/s.
        let tbps = f64::from(NUM_LINKS) * 4.0 * 30.0e9 * 2.0 / 1e12;
        assert!((tbps - 3.84).abs() < 1e-9);
    }

    #[test]
    fn display_forms() {
        let op = C2cOp::Send {
            link: LinkId::new(3),
            stream: StreamId::east(7),
        };
        assert_eq!(op.to_string(), "Send link3,S7.E");
    }
}
