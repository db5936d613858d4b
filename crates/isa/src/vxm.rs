//! Vector execution module (VXM) instructions: stateless point-wise arithmetic
//! on streams (paper §III-C, Table I).
//!
//! Each superlane implements a 4×4 mesh of vector ALUs (16 per lane, 5,120
//! chip-wide). ALUs are stateless — no condition codes — so the ISA provides
//! explicit saturating and modulo variants instead of exception flags. Two or
//! more ALUs within a lane can be *chained*, feeding one op's result stream to
//! the next without a MEM round-trip.

use core::fmt;

use tsp_arch::StreamGroup;

use crate::dtype::DataType;

/// Identifies one of the 16 vector ALUs in each lane's 4×4 mesh.
///
/// Chained operations execute on distinct ALUs of the same mesh; the compiler
/// assigns indices so that concurrent ops never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AluIndex(pub u8);

impl AluIndex {
    /// Number of vector ALUs per lane.
    pub const COUNT: u8 = 16;

    /// Creates an ALU index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    #[must_use]
    pub fn new(index: u8) -> AluIndex {
        assert!(index < AluIndex::COUNT, "ALU index {index} out of range");
        AluIndex(index)
    }
}

impl fmt::Display for AluIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alu{}", self.0)
    }
}

/// Point-wise operations with one operand (paper: "mask, negate", plus the
/// activation functions and type conversions Table I lists separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryAluOp {
    /// Pass-through with per-lane masking to zero.
    Mask,
    /// Arithmetic negation.
    Negate,
    /// Absolute value.
    Abs,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Exponentiation `e^x`.
    Exp,
    /// Reciprocal square root `1/√x`.
    Rsqrt,
}

impl UnaryAluOp {
    /// All unary operations.
    pub const ALL: [UnaryAluOp; 7] = [
        UnaryAluOp::Mask,
        UnaryAluOp::Negate,
        UnaryAluOp::Abs,
        UnaryAluOp::Relu,
        UnaryAluOp::Tanh,
        UnaryAluOp::Exp,
        UnaryAluOp::Rsqrt,
    ];

    /// Table I mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryAluOp::Mask => "mask",
            UnaryAluOp::Negate => "negate",
            UnaryAluOp::Abs => "abs",
            UnaryAluOp::Relu => "ReLU",
            UnaryAluOp::Tanh => "TanH",
            UnaryAluOp::Exp => "Exp",
            UnaryAluOp::Rsqrt => "RSqrt",
        }
    }
}

impl fmt::Display for UnaryAluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Point-wise operations with two operands. Addition and multiplication come
/// in saturating and modulo variants (paper §III-C: differing semantics for
/// arithmetic exceptions, since ALUs are stateless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryAluOp {
    /// Saturating addition.
    AddSat,
    /// Modulo (wrapping) addition.
    AddMod,
    /// Saturating subtraction.
    SubSat,
    /// Modulo (wrapping) subtraction.
    SubMod,
    /// Saturating multiplication.
    MulSat,
    /// Modulo (wrapping) multiplication.
    MulMod,
    /// Lane-wise maximum.
    Max,
    /// Lane-wise minimum.
    Min,
}

impl BinaryAluOp {
    /// All binary operations.
    pub const ALL: [BinaryAluOp; 8] = [
        BinaryAluOp::AddSat,
        BinaryAluOp::AddMod,
        BinaryAluOp::SubSat,
        BinaryAluOp::SubMod,
        BinaryAluOp::MulSat,
        BinaryAluOp::MulMod,
        BinaryAluOp::Max,
        BinaryAluOp::Min,
    ];

    /// Table I mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinaryAluOp::AddSat => "add_sat",
            BinaryAluOp::AddMod => "add_mod",
            BinaryAluOp::SubSat => "sub_sat",
            BinaryAluOp::SubMod => "sub_mod",
            BinaryAluOp::MulSat => "mul_sat",
            BinaryAluOp::MulMod => "mul_mod",
            BinaryAluOp::Max => "max",
            BinaryAluOp::Min => "min",
        }
    }
}

impl fmt::Display for BinaryAluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// VXM instructions (paper Table I, "VXM" rows).
///
/// Operands and results are [`StreamGroup`]s whose width matches the element
/// type (`int8` one stream, `fp32` a quad-stream group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VxmOp {
    /// `z = op x` — point-wise operation on one operand stream group.
    Unary {
        /// The operation.
        op: UnaryAluOp,
        /// Element type of operand and result.
        dtype: DataType,
        /// Operand stream group.
        src: StreamGroup,
        /// Result stream group.
        dst: StreamGroup,
        /// Which ALU of the per-lane mesh executes (for chaining).
        alu: AluIndex,
    },
    /// `z = x op y` — point-wise operation on two operand stream groups.
    Binary {
        /// The operation.
        op: BinaryAluOp,
        /// Element type of operands and result.
        dtype: DataType,
        /// First operand stream group.
        a: StreamGroup,
        /// Second operand stream group.
        b: StreamGroup,
        /// Result stream group.
        dst: StreamGroup,
        /// Which ALU of the per-lane mesh executes.
        alu: AluIndex,
    },
    /// Type conversion between fixed and floating point (and width changes),
    /// e.g. the `int32 → int8` requantization after an MXM accumulation.
    Convert {
        /// Source element type.
        from: DataType,
        /// Destination element type.
        to: DataType,
        /// Operand stream group (width = `from.stream_width()`).
        src: StreamGroup,
        /// Result stream group (width = `to.stream_width()`).
        dst: StreamGroup,
        /// Fixed-point scale: source values are multiplied by `2^-shift`
        /// before conversion (used for requantization).
        shift: i8,
        /// Which ALU of the per-lane mesh executes.
        alu: AluIndex,
    },
}

impl VxmOp {
    /// The ALU this op occupies.
    #[must_use]
    pub fn alu(self) -> AluIndex {
        match self {
            VxmOp::Unary { alu, .. } | VxmOp::Binary { alu, .. } | VxmOp::Convert { alu, .. } => {
                alu
            }
        }
    }

    /// The result stream group.
    #[must_use]
    pub fn dst(self) -> StreamGroup {
        match self {
            VxmOp::Unary { dst, .. } | VxmOp::Binary { dst, .. } | VxmOp::Convert { dst, .. } => {
                dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::{Direction, StreamId};

    fn sg(id: u8) -> StreamGroup {
        StreamGroup::new(StreamId::east(id), 1)
    }

    #[test]
    fn transcendentals_are_slower() {
        let relu = VxmOp::Unary {
            op: UnaryAluOp::Relu,
            dtype: DataType::Int8,
            src: sg(0),
            dst: sg(1),
            alu: AluIndex::new(0),
        };
        let tanh = VxmOp::Unary {
            op: UnaryAluOp::Tanh,
            dtype: DataType::Int8,
            src: sg(0),
            dst: sg(1),
            alu: AluIndex::new(0),
        };
        assert!(tanh.time_model().d_func > relu.time_model().d_func);
    }

    #[test]
    fn sixteen_alus_per_lane() {
        assert_eq!(AluIndex::COUNT, 16);
        let _ = AluIndex::new(15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn alu_16_panics() {
        let _ = AluIndex::new(16);
    }

    #[test]
    fn display_add() {
        let op = VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int8,
            a: sg(1),
            b: sg(2),
            dst: StreamGroup::new(StreamId::new(3, Direction::West), 1),
            alu: AluIndex::new(2),
        };
        assert_eq!(
            op.to_string(),
            "add_sat SG1[1-1].E,SG1[2-2].E,SG1[3-3].W (int8,alu2)"
        );
    }
}
