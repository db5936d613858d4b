//! The top-level [`Instruction`] type, and the table that describes every
//! instruction once.
//!
//! A row of the table at the bottom of this file states one instruction of
//! paper Table I: its area, opcode byte, fields in wire order, mnemonic,
//! assembly text, `d_func` and queue occupancy. From the rows, `instructions!`
//! generates every per-instruction method — `encode`, `decode`, `Display`,
//! `mnemonic`, `time_model`, `area`, `queue_cycles` and `burst_rows` — so an
//! instruction is added with one row, one simulator body and one sample.

use core::fmt;

use tsp_arch::TimeModel;

use crate::delays::{after, D_GATHER, D_IW, D_READ, D_VXM};
use crate::encode::{DecodeError, Field, Superlanes};
use crate::icu_id::IcuId;
use crate::vxm::UnaryAluOp;
use crate::{C2cOp, IcuOp, MemOp, MxmOp, SxmOp, VxmOp};

/// The six functional areas the ISA spans (paper §II: "The TSP's instruction
/// set architecture defines instructions spanning five different functional
/// areas" — ICU, VXM, MXM, SXM, MEM — plus the C2C module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionalArea {
    /// Instruction control unit.
    Icu,
    /// Memory slices.
    Mem,
    /// Vector execution module.
    Vxm,
    /// Matrix execution module.
    Mxm,
    /// Switch execution module.
    Sxm,
    /// Chip-to-chip module.
    C2c,
}

impl FunctionalArea {
    /// All areas in Table I order.
    pub const ALL: [FunctionalArea; 6] = [
        FunctionalArea::Icu,
        FunctionalArea::Mem,
        FunctionalArea::Vxm,
        FunctionalArea::Mxm,
        FunctionalArea::Sxm,
        FunctionalArea::C2c,
    ];
}

impl fmt::Display for FunctionalArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FunctionalArea::Icu => "ICU",
            FunctionalArea::Mem => "MEM",
            FunctionalArea::Vxm => "VXM",
            FunctionalArea::Mxm => "MXM",
            FunctionalArea::Sxm => "SXM",
            FunctionalArea::C2c => "C2C",
        };
        write!(f, "{s}")
    }
}

/// A TSP instruction: one of the per-area operations.
///
/// ICU instructions (`NOP`, `Ifetch`, `Sync`, …) are common to every slice;
/// the rest execute only on slices of the matching function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Instruction-control operation (valid on any slice's queue).
    Icu(IcuOp),
    /// Memory-slice operation.
    Mem(MemOp),
    /// Vector ALU operation.
    Vxm(VxmOp),
    /// Matrix unit operation.
    Mxm(MxmOp),
    /// Switch/permute operation.
    Sxm(SxmOp),
    /// Chip-to-chip operation.
    C2c(C2cOp),
}

impl Instruction {
    /// Whether `icu`'s queue may hold this instruction: ICU instructions run
    /// on every queue, the rest on a queue of their own area — an MXM
    /// instruction only on its plane's ports. The one routing rule; both of
    /// the simulator's dispatch cursors apply it.
    #[inline]
    #[must_use]
    pub fn runs_on(&self, icu: IcuId) -> bool {
        match (self, icu) {
            (Instruction::Mxm(op), IcuId::Mxm { plane, .. }) => op.plane() == plane,
            (Instruction::Icu(_), _)
            | (Instruction::Mem(_), IcuId::Mem { .. })
            | (Instruction::Vxm(_), IcuId::Vxm { .. })
            | (Instruction::Sxm(_), IcuId::Sxm { .. })
            | (Instruction::C2c(_), IcuId::C2c { .. }) => true,
            _ => false,
        }
    }
}

/// Writes one field of an instruction's text in its wire format, or in that
/// of the wrapper its row names after `as`.
macro_rules! put_field {
    ($text:ident, $field:ident) => {
        Field::put($field, &mut $text)
    };
    ($text:ident, $field:ident as $wire:ident) => {
        Field::put(&$wire(*$field), &mut $text)
    };
}

/// Takes one field off the head of an instruction's text, into a binding of
/// the field's name.
macro_rules! get_field {
    ($text:ident, $field:ident) => {
        let $field = Field::get($text)?;
    };
    ($text:ident, $field:ident as $wire:ident) => {
        let $wire($field) = Field::get($text)?;
    };
}

/// A row's optional column: its value if the row gives one, else `$default`.
macro_rules! or_default {
    (; $default:expr) => {
        $default
    };
    ($value:expr; $default:expr) => {
        $value
    };
}

/// Generates every per-instruction method from the rows (module docs). A
/// row's expressions see its fields as references; `queue` defaults to 1,
/// and a row with `rows` is a burst that holds its queue one cycle a row.
/// The accessors are `#[inline]`: `tsp-compiler` asks `queue_cycles` and
/// `time_model` of every instruction it places, across the crate boundary
/// (out of line, `compile_resnet50` takes ≈ 3 % longer).
macro_rules! instructions {
    ($(
        $area:ident($Op:ident) {$(
            $opcode:literal $V:ident { $($field:ident $(as $wire:ident)?),* }
            $mnemonic:expr, $text:literal, d_func $d_func:expr
            $(, queue $queue:expr)? $(, rows $rows:expr)?;
        )*}
    )*) => {
        $(
            #[allow(unused_variables)]
            impl $Op {
                /// Table I mnemonic.
                #[inline]
                #[must_use]
                pub fn mnemonic(&self) -> &'static str {
                    match self {
                        $($Op::$V { $($field),* } => $mnemonic,)*
                    }
                }

                /// Temporal metadata exposed across the static–dynamic
                /// interface (paper §III): the same values drive the
                /// compiler's schedule and the simulator's behaviour.
                #[inline]
                #[must_use]
                pub fn time_model(&self) -> TimeModel {
                    match self {
                        $($Op::$V { $($field),* } => after($d_func),)*
                    }
                }

                /// Dispatch-queue cycles this instruction occupies: the next
                /// instruction on its queue dispatches this many cycles after
                /// it, on both simulator cursors. `Sync` and `Notify` are the
                /// exception: the barrier's wait is not booked here.
                #[inline]
                #[must_use]
                pub fn queue_cycles(&self) -> u64 {
                    match self {
                        $($Op::$V { $($field),* } => or_default!(
                            $(u64::from(($rows).max(1)))?;
                            or_default!($($queue)?; 1)
                        ),)*
                    }
                }

                /// Rows of a multi-row MXM burst (`LW`/`ABC`/`ACC`), one per
                /// cycle from dispatch; a zero-row burst still runs row 0.
                #[inline]
                #[must_use]
                pub fn burst_rows(&self) -> Option<u16> {
                    match self {
                        $($Op::$V { $($field),* } => or_default!($(Some(($rows).max(1)))?; None),)*
                    }
                }
            }

            impl fmt::Display for $Op {
                #[allow(unused_variables)]
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    match self {
                        $($Op::$V { $($field),* } => write!(f, $text),)*
                    }
                }
            }

            impl From<$Op> for Instruction {
                fn from(op: $Op) -> Instruction {
                    Instruction::$area(op)
                }
            }
        )*

        impl Instruction {
            /// The functional area whose slices can execute this instruction.
            #[inline]
            #[must_use]
            pub fn area(&self) -> FunctionalArea {
                match self {
                    $(Instruction::$area(_) => FunctionalArea::$area,)*
                }
            }

            /// Table I mnemonic.
            #[inline]
            #[must_use]
            pub fn mnemonic(&self) -> &'static str {
                match self {
                    $(Instruction::$area(op) => op.mnemonic(),)*
                }
            }

            /// Temporal metadata exposed across the static–dynamic interface
            /// (paper §III): the same values drive the compiler's schedule
            /// and the simulator's behaviour.
            #[inline]
            #[must_use]
            pub fn time_model(&self) -> TimeModel {
                match self {
                    $(Instruction::$area(op) => op.time_model(),)*
                }
            }

            /// Dispatch-queue cycles this instruction occupies: the next
            /// instruction on its queue dispatches this many cycles after it,
            /// on both simulator cursors. `Sync` and `Notify` are the
            /// exception: the barrier's wait is not booked here.
            #[inline]
            #[must_use]
            pub fn queue_cycles(&self) -> u64 {
                match self {
                    $(Instruction::$area(op) => op.queue_cycles(),)*
                }
            }

            /// Rows of a multi-row MXM burst (`LW`/`ABC`/`ACC`), one per
            /// cycle from dispatch; a zero-row burst still runs row 0.
            #[inline]
            #[must_use]
            pub fn burst_rows(&self) -> Option<u16> {
                match self {
                    $(Instruction::$area(op) => op.burst_rows(),)*
                }
            }

            /// Serializes the instruction: its opcode byte, then its fields
            /// in wire order.
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                let mut text = Vec::with_capacity(8);
                match self {
                    $($(Instruction::$area($Op::$V { $($field),* }) => {
                        text.push($opcode);
                        $(put_field!(text, $field $(as $wire)?);)*
                    })*)*
                }
                text
            }

            /// Decodes one instruction from the head of `bytes`, returning it
            /// and the number of bytes consumed.
            ///
            /// # Errors
            ///
            /// Returns [`DecodeError`] on truncated text, unknown opcodes or
            /// out-of-range operands.
            pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), DecodeError> {
                let mut rest = bytes;
                let text = &mut rest;
                let instruction = match u8::get(text)? {
                    $($($opcode => {
                        $(get_field!(text, $field $(as $wire)?);)*
                        Instruction::$area($Op::$V { $($field),* })
                    })*)*
                    other => return Err(DecodeError::BadOpcode(other)),
                };
                Ok((instruction, bytes.len() - rest.len()))
            }
        }

        impl fmt::Display for Instruction {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(Instruction::$area(op) => fmt::Display::fmt(op, f),)*
                }
            }
        }
    };
}

// Opcodes are grouped by area nibble. `d_func` values are modeled (the
// ASIC's are unpublished; DESIGN.md §2).
instructions! {
    Icu(IcuOp) {
        0x00 Nop { count } "NOP", "NOP({count})", d_func 0, queue u64::from((*count).max(1));
        0x01 Ifetch { stream } "Ifetch", "Ifetch {stream}", d_func 4, queue 2;
        0x02 Sync {} "Sync", "Sync", d_func 1;
        0x03 Notify {} "Notify", "Notify", d_func 1;
        0x04 Config { superlanes as Superlanes } "Config", "Config superlanes={superlanes}",
            d_func 2;
        // `n` iterations `max(d, 1)` apart; `Repeat 0,d` still takes its cycle.
        0x05 Repeat { n, d } "Repeat", "Repeat {n},{d}", d_func 0,
            queue (u64::from(*n) * u64::from((*d).max(1))).max(1);
    }
    Mem(MemOp) {
        0x10 Read { addr, stream } "Read", "Read {addr},{stream}", d_func D_READ;
        0x11 Write { addr, stream } "Write", "Write {addr},{stream}", d_func 1;
        0x12 Gather { stream, map } "Gather", "Gather {stream},{map}", d_func D_GATHER;
        0x13 Scatter { stream, map } "Scatter", "Scatter {stream},{map}", d_func D_GATHER;
    }
    Vxm(VxmOp) {
        0x20 Unary { op, dtype, src, dst, alu } op.mnemonic(), "{op} {src},{dst} ({dtype},{alu})",
            d_func if matches!(op, UnaryAluOp::Tanh | UnaryAluOp::Exp | UnaryAluOp::Rsqrt) {
                8
            } else {
                D_VXM
            };
        0x21 Binary { op, dtype, a, b, dst, alu } op.mnemonic(),
            "{op} {a},{b},{dst} ({dtype},{alu})", d_func D_VXM;
        0x22 Convert { from, to, src, dst, shift, alu } "convert",
            "convert {src},{dst} ({from}->{to},shift={shift},{alu})", d_func D_VXM;
    }
    Mxm(MxmOp) {
        0x30 LoadWeights { plane, streams, rows } "LW", "LW {plane},{streams},rows={rows}",
            d_func 2, rows u16::from(*rows);
        0x31 InstallWeights { plane, dtype } "IW", "IW {plane} ({dtype})", d_func D_IW;
        0x32 ActivationBuffer { plane, stream, rows } "ABC", "ABC {plane},{stream},rows={rows}",
            d_func 1, rows *rows;
        // Readout of results the array finished `MXM_ARRAY_DELAY` after their `ABC`.
        0x33 Accumulate { plane, dst, rows, mode } "ACC", "ACC {plane},{dst},rows={rows},{mode}",
            d_func 1, rows *rows;
    }
    Sxm(SxmOp) {
        0x40 ShiftUp { n, src, dst } "ShiftUp", "ShiftUp {n},{src},{dst}", d_func 3;
        0x41 ShiftDown { n, src, dst } "ShiftDown", "ShiftDown {n},{src},{dst}", d_func 3;
        0x42 Select { north, south, boundary, dst } "Select",
            "Select {north},{south},@{boundary},{dst}", d_func 3;
        0x43 Permute { src, dst, map } "Permute", "Permute map,{src},{dst}", d_func 4;
        0x44 Distribute { src, dst, map } "Distribute", "Distribute map,{src},{dst}", d_func 4;
        0x45 Rotate { n, src, dst } "Rotate", "Rotate {n}x{n},{src},{dst}", d_func 4;
        0x46 Transpose { src, dst } "Transpose", "Transpose sg16,{src},{dst}", d_func 5;
    }
    C2c(C2cOp) {
        // A deskew is a long calibration of the plesiochronous link.
        0x50 Deskew { link } "Deskew", "Deskew {link}", d_func 64;
        0x51 Send { link, stream } "Send", "Send {link},{stream}", d_func 2;
        0x52 Receive { link, stream } "Receive", "Receive {link},{stream}", d_func 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemAddr;
    use tsp_arch::StreamId;

    #[test]
    fn area_dispatch() {
        let i: Instruction = IcuOp::Sync.into();
        assert_eq!(i.area(), FunctionalArea::Icu);
        let i: Instruction = MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::east(0),
        }
        .into();
        assert_eq!(i.area(), FunctionalArea::Mem);
    }

    #[test]
    fn burst_instructions_occupy_queue() {
        let i: Instruction = MxmOp::ActivationBuffer {
            plane: crate::Plane::new(0),
            stream: StreamId::east(0),
            rows: 100,
        }
        .into();
        assert_eq!(i.queue_cycles(), 100);
        let nop: Instruction = IcuOp::Nop { count: 7 }.into();
        assert_eq!(nop.queue_cycles(), 7);
    }
}
