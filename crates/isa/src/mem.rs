//! Memory (MEM) slice instructions: direct reads/writes and stream-indirect
//! gather/scatter (paper §III-B, Table I).

use core::fmt;

use tsp_arch::{StreamId, Vector, SUPERLANES};

/// Bit of the word address that selects the SRAM bank.
///
/// Each MEM slice contains pseudo-dual-port SRAM organized as two banks; a
/// read and a write can proceed in the same cycle iff they target different
/// banks. The paper exposes "the bank bit" to the compiler; we define it as
/// the high address bit (bank 0 = words 0..4095, bank 1 = words 4096..8191).
pub const BANK_BIT: u16 = 12;

/// Number of addressable 16-byte words per MEM slice (13-bit address space).
pub const WORDS_PER_SLICE: u16 = 1 << 13;

/// A 13-bit physical word address within one MEM slice.
///
/// Each address names a 320-byte vector: a 16-byte word per superlane tile,
/// one byte per lane (paper §II-B). The bank bit is architecturally visible so
/// the compiler can schedule dual-port access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemAddr(u16);

impl MemAddr {
    /// Creates a word address.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= 8192` (outside the 13-bit space).
    #[must_use]
    pub fn new(addr: u16) -> MemAddr {
        assert!(
            addr < WORDS_PER_SLICE,
            "word address {addr:#x} outside the 13-bit slice address space"
        );
        MemAddr(addr)
    }

    /// The raw 13-bit word address.
    #[must_use]
    pub fn word(self) -> u16 {
        self.0
    }

    /// Which SRAM bank the address falls in (0 or 1).
    #[must_use]
    pub fn bank(self) -> u8 {
        ((self.0 >> BANK_BIT) & 1) as u8
    }

    /// The same word offset in the opposite bank.
    #[must_use]
    pub fn opposite_bank(self) -> MemAddr {
        MemAddr(self.0 ^ (1 << BANK_BIT))
    }
}

/// The map vector a `Gather` or `Scatter` reads: superlane `s`'s word
/// address as one little-endian `u16` in lanes `2s` and `2s + 1`, every
/// other lane zero.
#[must_use]
pub fn map_vector(addrs: [MemAddr; SUPERLANES]) -> Vector {
    let mut map = Vector::ZERO;
    for (s, addr) in addrs.iter().enumerate() {
        let [lo, hi] = addr.word().to_le_bytes();
        map.set_lane(2 * s, lo);
        map.set_lane(2 * s + 1, hi);
    }
    map
}

/// The per-superlane word addresses a map vector carries (the inverse of
/// [`map_vector`]), each masked to the 13-bit address space.
#[must_use]
pub fn map_addresses(map: &Vector) -> [MemAddr; SUPERLANES] {
    std::array::from_fn(|s| {
        let word = u16::from_le_bytes([map.lane(2 * s), map.lane(2 * s + 1)]);
        MemAddr::new(word & (WORDS_PER_SLICE - 1))
    })
}

impl fmt::Display for MemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

/// MEM slice instructions (paper Table I, "MEM" rows).
///
/// The stream operand's direction doubles as the instruction's dataflow
/// direction: "memory instruction semantics have both an address and a
/// dataflow direction" (paper §I-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// `Read a,s` — load the 320-byte vector at word address `a` onto stream
    /// `s`, flowing in `s`'s direction from this slice's position.
    Read {
        /// Word address within this slice.
        addr: MemAddr,
        /// Destination stream (id + first-hop direction).
        stream: StreamId,
    },
    /// `Write a,s` — store stream `s`'s current contents at this slice into
    /// word address `a`, consuming the stream value.
    Write {
        /// Word address within this slice.
        addr: MemAddr,
        /// Source stream to commit.
        stream: StreamId,
    },
    /// `Gather s, map` — stream-indirect read: interpret the `map` stream as
    /// per-superlane word addresses (one little-endian `u16` per superlane)
    /// and assemble the addressed 16-byte words onto stream `s`.
    Gather {
        /// Stream receiving the gathered vector.
        stream: StreamId,
        /// Stream carrying the address map.
        map: StreamId,
    },
    /// `Scatter s, map` — stream-indirect write: store each superlane word of
    /// stream `s` to the per-superlane address given by the `map` stream.
    Scatter {
        /// Stream whose contents are scattered.
        stream: StreamId,
        /// Stream carrying the address map.
        map: StreamId,
    },
}

impl MemOp {
    /// The bank this operation touches directly, if it is direct-addressed.
    #[must_use]
    pub fn bank(self) -> Option<u8> {
        match self {
            MemOp::Read { addr, .. } | MemOp::Write { addr, .. } => Some(addr.bank()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_bit_is_high_bit() {
        assert_eq!(MemAddr::new(0).bank(), 0);
        assert_eq!(MemAddr::new(4095).bank(), 0);
        assert_eq!(MemAddr::new(4096).bank(), 1);
        assert_eq!(MemAddr::new(8191).bank(), 1);
    }

    #[test]
    fn opposite_bank_preserves_offset() {
        let a = MemAddr::new(123);
        let b = a.opposite_bank();
        assert_eq!(b.word(), 4096 + 123);
        assert_eq!(b.opposite_bank(), a);
    }

    #[test]
    #[should_panic(expected = "13-bit")]
    fn address_past_8191_panics() {
        let _ = MemAddr::new(8192);
    }

    #[test]
    fn dual_port_conflict_detection() {
        let read = MemOp::Read {
            addr: MemAddr::new(100),
            stream: StreamId::east(0),
        };
        let write_same = MemOp::Write {
            addr: MemAddr::new(200),
            stream: StreamId::west(1),
        };
        let write_other = MemOp::Write {
            addr: MemAddr::new(200).opposite_bank(),
            stream: StreamId::west(1),
        };
        assert_eq!(read.bank(), write_same.bank()); // conflict
        assert_ne!(read.bank(), write_other.bank()); // dual-port OK
    }

    #[test]
    fn map_vectors_round_trip_and_mask_to_13_bits() {
        let addrs = std::array::from_fn(|s| MemAddr::new(8191 - 300 * s as u16));
        let map = map_vector(addrs);
        assert_eq!(map_addresses(&map), addrs);
        assert_eq!(map.lane(0), 0xFF);
        assert_eq!(map.lane(1), 0x1F);
        assert!(map.as_bytes()[2 * SUPERLANES..].iter().all(|&b| b == 0));
        let high_bits = Vector::splat(0xFF);
        assert_eq!(map_addresses(&high_bits), [MemAddr::new(8191); SUPERLANES]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let op = MemOp::Read {
            addr: MemAddr::new(0x1f),
            stream: StreamId::east(4),
        };
        assert_eq!(op.to_string(), "Read 0x001f,S4.E");
    }
}
