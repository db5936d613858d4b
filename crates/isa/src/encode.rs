//! Binary instruction encoding.
//!
//! Instruction text lives in ordinary MEM slices and reaches each ICU over
//! streams via `Ifetch` (640 bytes — a pair of 320-byte vectors — per fetch,
//! paper §III-A3), so every instruction must serialize to bytes. The format is
//! a one-byte opcode followed by little-endian operand fields; large operands
//! (the permute map) are carried inline.
//!
//! [`Instruction::encode`] and [`Instruction::decode`] round-trip exactly;
//! this is property-tested over the whole ISA.

use core::fmt;

use tsp_arch::{Direction, StreamGroup, StreamId, StreamRange, LANES, STREAMS_PER_DIRECTION};

use crate::c2c::{LinkId, NUM_LINKS};
use crate::dtype::DataType;
use crate::mem::MemAddr;
use crate::mxm::{AccumulateMode, Plane};
use crate::sxm::{DistributeMap, PermuteMap};
use crate::vxm::{AluIndex, BinaryAluOp, UnaryAluOp};
use crate::{C2cOp, IcuOp, Instruction, MemOp, MxmOp, SxmOp, VxmOp};

/// Padding byte used to fill the fixed 640-byte `Ifetch` window past the last
/// real instruction; the fetch decoder stops at the first pad byte.
pub const FETCH_PAD: u8 = 0xFF;

/// Decodes one `Ifetch` window: instructions until the first [`FETCH_PAD`]
/// byte (or the end of the block).
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered.
pub fn decode_fetch_block(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
    decode_until(bytes, Some(FETCH_PAD))
}

/// Decodes instructions off the head of `bytes` until they run out or the
/// next byte is `stop`.
fn decode_until(mut bytes: &[u8], stop: Option<u8>) -> Result<Vec<Instruction>, DecodeError> {
    let mut out = Vec::new();
    while bytes.first().is_some_and(|&first| Some(first) != stop) {
        let (insn, used) = Instruction::decode(bytes)?;
        out.push(insn);
        bytes = &bytes[used..];
    }
    Ok(out)
}

/// Error produced when decoding malformed instruction text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended inside an instruction.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// An operand field held an out-of-range value.
    BadOperand(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction text truncated"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadOperand(what) => write!(f, "bad operand field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Opcode space, grouped by functional area nibble.
const OP_NOP: u8 = 0x00;
const OP_IFETCH: u8 = 0x01;
const OP_SYNC: u8 = 0x02;
const OP_NOTIFY: u8 = 0x03;
const OP_CONFIG: u8 = 0x04;
const OP_REPEAT: u8 = 0x05;
const OP_READ: u8 = 0x10;
const OP_WRITE: u8 = 0x11;
const OP_GATHER: u8 = 0x12;
const OP_SCATTER: u8 = 0x13;
const OP_VXM_UNARY: u8 = 0x20;
const OP_VXM_BINARY: u8 = 0x21;
const OP_VXM_CONVERT: u8 = 0x22;
const OP_LW: u8 = 0x30;
const OP_IW: u8 = 0x31;
const OP_ABC: u8 = 0x32;
const OP_ACC: u8 = 0x33;
const OP_SHIFT_UP: u8 = 0x40;
const OP_SHIFT_DOWN: u8 = 0x41;
const OP_SELECT: u8 = 0x42;
const OP_PERMUTE: u8 = 0x43;
const OP_DISTRIBUTE: u8 = 0x44;
const OP_ROTATE: u8 = 0x45;
const OP_TRANSPOSE: u8 = 0x46;
const OP_DESKEW: u8 = 0x50;
const OP_SEND: u8 = 0x51;
const OP_RECEIVE: u8 = 0x52;

/// One operand field's wire format: how it is written, and how it is read
/// back — with the range check decoding owes it, so an instruction's arm in
/// [`Instruction::encode`] and in [`Instruction::decode`] is its opcode and
/// its fields in wire order, nothing more.
trait Field: Sized {
    fn put(&self, text: &mut Vec<u8>);
    /// Takes the field off the head of `text`.
    fn get(text: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Reads the next field, of whatever type the place it lands in has.
fn get<F: Field>(text: &mut &[u8]) -> Result<F, DecodeError> {
    F::get(text)
}

/// Instruction text under construction: an opcode, then fields.
struct Text(Vec<u8>);

impl Text {
    fn op(opcode: u8) -> Text {
        let mut text = Vec::with_capacity(8);
        text.push(opcode);
        Text(text)
    }

    fn put(mut self, field: &impl Field) -> Text {
        field.put(&mut self.0);
        self
    }
}

impl Field for u8 {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(*self);
    }
    fn get(text: &mut &[u8]) -> Result<u8, DecodeError> {
        let (&byte, rest) = text.split_first().ok_or(DecodeError::Truncated)?;
        *text = rest;
        Ok(byte)
    }
}

impl Field for i8 {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(*self as u8);
    }
    fn get(text: &mut &[u8]) -> Result<i8, DecodeError> {
        Ok(u8::get(text)? as i8)
    }
}

impl Field for u16 {
    fn put(&self, text: &mut Vec<u8>) {
        text.extend_from_slice(&self.to_le_bytes());
    }
    fn get(text: &mut &[u8]) -> Result<u16, DecodeError> {
        let (bytes, rest) = text.split_first_chunk().ok_or(DecodeError::Truncated)?;
        *text = rest;
        Ok(u16::from_le_bytes(*bytes))
    }
}

/// A one-byte field that is an index below `count`: `what` names it in the
/// error.
fn get_index(text: &mut &[u8], count: u8, what: &'static str) -> Result<u8, DecodeError> {
    let index = u8::get(text)?;
    if index >= count {
        return Err(DecodeError::BadOperand(what));
    }
    Ok(index)
}

/// A one-byte field that is `value`'s position in `all`.
fn put_tag<T: PartialEq>(text: &mut Vec<u8>, all: &[T], value: &T) {
    let tag = all.iter().position(|v| v == value).expect("listed in ALL");
    text.push(tag as u8);
}

fn get_tag<T: Copy>(text: &mut &[u8], all: &[T], what: &'static str) -> Result<T, DecodeError> {
    let tag = u8::get(text)?;
    all.get(usize::from(tag))
        .copied()
        .ok_or(DecodeError::BadOperand(what))
}

impl Field for StreamId {
    fn put(&self, text: &mut Vec<u8>) {
        let west = match self.direction {
            Direction::East => 0u8,
            Direction::West => 0x80,
        };
        text.push(self.id | west);
    }
    fn get(text: &mut &[u8]) -> Result<StreamId, DecodeError> {
        let byte = u8::get(text)?;
        let direction = if byte & 0x80 != 0 {
            Direction::West
        } else {
            Direction::East
        };
        let id = byte & 0x7f;
        if id >= STREAMS_PER_DIRECTION {
            return Err(DecodeError::BadOperand("stream id"));
        }
        Ok(StreamId::new(id, direction))
    }
}

impl Field for StreamGroup {
    fn put(&self, text: &mut Vec<u8>) {
        self.base.put(text);
        text.push(self.width);
    }
    fn get(text: &mut &[u8]) -> Result<StreamGroup, DecodeError> {
        let (base, width) = (StreamId::get(text)?, u8::get(text)?);
        let fits = matches!(width, 1 | 2 | 4 | 8 | 16)
            && base.id % width == 0
            && base.id + width <= STREAMS_PER_DIRECTION;
        if !fits {
            return Err(DecodeError::BadOperand("stream group"));
        }
        Ok(StreamGroup::new(base, width))
    }
}

impl Field for StreamRange {
    fn put(&self, text: &mut Vec<u8>) {
        self.base.put(text);
        text.push(self.len);
    }
    fn get(text: &mut &[u8]) -> Result<StreamRange, DecodeError> {
        let (base, len) = (StreamId::get(text)?, u8::get(text)?);
        // In `u16`: base 31 with length 255 wraps to 30 in a byte.
        if u16::from(base.id) + u16::from(len) > u16::from(STREAMS_PER_DIRECTION) {
            return Err(DecodeError::BadOperand("stream range"));
        }
        Ok(StreamRange::new(base, len))
    }
}

impl Field for MemAddr {
    fn put(&self, text: &mut Vec<u8>) {
        self.word().put(text);
    }
    fn get(text: &mut &[u8]) -> Result<MemAddr, DecodeError> {
        let word = u16::get(text)?;
        if word >= 8192 {
            return Err(DecodeError::BadOperand("word address"));
        }
        Ok(MemAddr::new(word))
    }
}

impl Field for DataType {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(self.tag());
    }
    fn get(text: &mut &[u8]) -> Result<DataType, DecodeError> {
        DataType::from_tag(u8::get(text)?).ok_or(DecodeError::BadOperand("data type"))
    }
}

impl Field for AluIndex {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(self.0);
    }
    fn get(text: &mut &[u8]) -> Result<AluIndex, DecodeError> {
        get_index(text, AluIndex::COUNT, "alu index").map(AluIndex::new)
    }
}

impl Field for Plane {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(self.index());
    }
    fn get(text: &mut &[u8]) -> Result<Plane, DecodeError> {
        get_index(text, Plane::COUNT, "plane").map(Plane::new)
    }
}

impl Field for LinkId {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(self.index());
    }
    fn get(text: &mut &[u8]) -> Result<LinkId, DecodeError> {
        get_index(text, NUM_LINKS, "link").map(LinkId::new)
    }
}

impl Field for AccumulateMode {
    fn put(&self, text: &mut Vec<u8>) {
        put_tag(text, &AccumulateMode::ALL, self);
    }
    fn get(text: &mut &[u8]) -> Result<AccumulateMode, DecodeError> {
        get_tag(text, &AccumulateMode::ALL, "accumulate mode")
    }
}

impl Field for UnaryAluOp {
    fn put(&self, text: &mut Vec<u8>) {
        put_tag(text, &UnaryAluOp::ALL, self);
    }
    fn get(text: &mut &[u8]) -> Result<UnaryAluOp, DecodeError> {
        get_tag(text, &UnaryAluOp::ALL, "unary op")
    }
}

impl Field for BinaryAluOp {
    fn put(&self, text: &mut Vec<u8>) {
        put_tag(text, &BinaryAluOp::ALL, self);
    }
    fn get(text: &mut &[u8]) -> Result<BinaryAluOp, DecodeError> {
        get_tag(text, &BinaryAluOp::ALL, "binary op")
    }
}

/// `Config`'s operand: how many superlanes stay powered, 1 to 20.
struct Superlanes(u8);

impl Field for Superlanes {
    fn put(&self, text: &mut Vec<u8>) {
        text.push(self.0);
    }
    fn get(text: &mut &[u8]) -> Result<Superlanes, DecodeError> {
        match u8::get(text)? {
            count @ 1..=20 => Ok(Superlanes(count)),
            _ => Err(DecodeError::BadOperand("superlane count")),
        }
    }
}

impl Field for PermuteMap {
    fn put(&self, text: &mut Vec<u8>) {
        self.as_array().iter().for_each(|source| source.put(text));
    }
    fn get(text: &mut &[u8]) -> Result<PermuteMap, DecodeError> {
        let mut map = [0u16; LANES];
        for source in &mut map {
            *source = u16::get(text)?;
        }
        let mut seen = [false; LANES];
        for &source in &map {
            let source = usize::from(source);
            if source >= LANES || std::mem::replace(&mut seen[source], true) {
                return Err(DecodeError::BadOperand("permute map"));
            }
        }
        Ok(PermuteMap::new(map))
    }
}

/// Unmapped output lanes travel as `0xFF`.
impl Field for DistributeMap {
    fn put(&self, text: &mut Vec<u8>) {
        text.extend(self.iter().map(|lane| lane.unwrap_or(0xFF)));
    }
    fn get(text: &mut &[u8]) -> Result<DistributeMap, DecodeError> {
        let mut map = [None; 16];
        for lane in &mut map {
            *lane = match u8::get(text)? {
                0xFF => None,
                source @ 0..16 => Some(source),
                _ => return Err(DecodeError::BadOperand("distribute map")),
            };
        }
        Ok(map)
    }
}

impl Instruction {
    /// Serializes the instruction to its binary form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let Text(text) = match self {
            Instruction::Icu(op) => match op {
                IcuOp::Nop { count } => Text::op(OP_NOP).put(count),
                IcuOp::Ifetch { stream } => Text::op(OP_IFETCH).put(stream),
                IcuOp::Sync => Text::op(OP_SYNC),
                IcuOp::Notify => Text::op(OP_NOTIFY),
                IcuOp::Config { superlanes } => Text::op(OP_CONFIG).put(&Superlanes(*superlanes)),
                IcuOp::Repeat { n, d } => Text::op(OP_REPEAT).put(n).put(d),
            },
            Instruction::Mem(op) => match op {
                MemOp::Read { addr, stream } => Text::op(OP_READ).put(addr).put(stream),
                MemOp::Write { addr, stream } => Text::op(OP_WRITE).put(addr).put(stream),
                MemOp::Gather { stream, map } => Text::op(OP_GATHER).put(stream).put(map),
                MemOp::Scatter { stream, map } => Text::op(OP_SCATTER).put(stream).put(map),
            },
            Instruction::Vxm(op) => match op {
                VxmOp::Unary {
                    op,
                    dtype,
                    src,
                    dst,
                    alu,
                } => Text::op(OP_VXM_UNARY)
                    .put(op)
                    .put(dtype)
                    .put(src)
                    .put(dst)
                    .put(alu),
                VxmOp::Binary {
                    op,
                    dtype,
                    a,
                    b,
                    dst,
                    alu,
                } => Text::op(OP_VXM_BINARY)
                    .put(op)
                    .put(dtype)
                    .put(a)
                    .put(b)
                    .put(dst)
                    .put(alu),
                VxmOp::Convert {
                    from,
                    to,
                    src,
                    dst,
                    shift,
                    alu,
                } => Text::op(OP_VXM_CONVERT)
                    .put(from)
                    .put(to)
                    .put(src)
                    .put(dst)
                    .put(shift)
                    .put(alu),
            },
            Instruction::Mxm(op) => match op {
                MxmOp::LoadWeights {
                    plane,
                    streams,
                    rows,
                } => Text::op(OP_LW).put(plane).put(streams).put(rows),
                MxmOp::InstallWeights { plane, dtype } => Text::op(OP_IW).put(plane).put(dtype),
                MxmOp::ActivationBuffer {
                    plane,
                    stream,
                    rows,
                } => Text::op(OP_ABC).put(plane).put(stream).put(rows),
                MxmOp::Accumulate {
                    plane,
                    dst,
                    rows,
                    mode,
                } => Text::op(OP_ACC).put(plane).put(dst).put(rows).put(mode),
            },
            Instruction::Sxm(op) => match op {
                SxmOp::ShiftUp { n, src, dst } => Text::op(OP_SHIFT_UP).put(n).put(src).put(dst),
                SxmOp::ShiftDown { n, src, dst } => {
                    Text::op(OP_SHIFT_DOWN).put(n).put(src).put(dst)
                }
                SxmOp::Select {
                    north,
                    south,
                    boundary,
                    dst,
                } => Text::op(OP_SELECT)
                    .put(north)
                    .put(south)
                    .put(boundary)
                    .put(dst),
                SxmOp::Permute { map, src, dst } => Text::op(OP_PERMUTE).put(src).put(dst).put(map),
                SxmOp::Distribute { map, src, dst } => {
                    Text::op(OP_DISTRIBUTE).put(src).put(dst).put(map)
                }
                SxmOp::Rotate { n, src, dst } => Text::op(OP_ROTATE).put(n).put(src).put(dst),
                SxmOp::Transpose { src, dst } => Text::op(OP_TRANSPOSE).put(src).put(dst),
            },
            Instruction::C2c(op) => match op {
                C2cOp::Deskew { link } => Text::op(OP_DESKEW).put(link),
                C2cOp::Send { link, stream } => Text::op(OP_SEND).put(link).put(stream),
                C2cOp::Receive { link, stream } => Text::op(OP_RECEIVE).put(link).put(stream),
            },
        };
        text
    }

    /// Decodes one instruction from the head of `bytes`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated text, unknown opcodes or
    /// out-of-range operands.
    pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), DecodeError> {
        let mut text = bytes;
        let t = &mut text;
        // Fields are read in the order written here: wire order.
        let insn = match u8::get(t)? {
            OP_NOP => Instruction::Icu(IcuOp::Nop { count: get(t)? }),
            OP_IFETCH => Instruction::Icu(IcuOp::Ifetch { stream: get(t)? }),
            OP_SYNC => Instruction::Icu(IcuOp::Sync),
            OP_NOTIFY => Instruction::Icu(IcuOp::Notify),
            OP_CONFIG => {
                let Superlanes(superlanes) = get(t)?;
                Instruction::Icu(IcuOp::Config { superlanes })
            }
            OP_REPEAT => Instruction::Icu(IcuOp::Repeat {
                n: get(t)?,
                d: get(t)?,
            }),
            OP_READ => Instruction::Mem(MemOp::Read {
                addr: get(t)?,
                stream: get(t)?,
            }),
            OP_WRITE => Instruction::Mem(MemOp::Write {
                addr: get(t)?,
                stream: get(t)?,
            }),
            OP_GATHER => Instruction::Mem(MemOp::Gather {
                stream: get(t)?,
                map: get(t)?,
            }),
            OP_SCATTER => Instruction::Mem(MemOp::Scatter {
                stream: get(t)?,
                map: get(t)?,
            }),
            OP_VXM_UNARY => Instruction::Vxm(VxmOp::Unary {
                op: get(t)?,
                dtype: get(t)?,
                src: get(t)?,
                dst: get(t)?,
                alu: get(t)?,
            }),
            OP_VXM_BINARY => Instruction::Vxm(VxmOp::Binary {
                op: get(t)?,
                dtype: get(t)?,
                a: get(t)?,
                b: get(t)?,
                dst: get(t)?,
                alu: get(t)?,
            }),
            OP_VXM_CONVERT => Instruction::Vxm(VxmOp::Convert {
                from: get(t)?,
                to: get(t)?,
                src: get(t)?,
                dst: get(t)?,
                shift: get(t)?,
                alu: get(t)?,
            }),
            OP_LW => Instruction::Mxm(MxmOp::LoadWeights {
                plane: get(t)?,
                streams: get(t)?,
                rows: get(t)?,
            }),
            OP_IW => Instruction::Mxm(MxmOp::InstallWeights {
                plane: get(t)?,
                dtype: get(t)?,
            }),
            OP_ABC => Instruction::Mxm(MxmOp::ActivationBuffer {
                plane: get(t)?,
                stream: get(t)?,
                rows: get(t)?,
            }),
            OP_ACC => Instruction::Mxm(MxmOp::Accumulate {
                plane: get(t)?,
                dst: get(t)?,
                rows: get(t)?,
                mode: get(t)?,
            }),
            OP_SHIFT_UP => Instruction::Sxm(SxmOp::ShiftUp {
                n: get(t)?,
                src: get(t)?,
                dst: get(t)?,
            }),
            OP_SHIFT_DOWN => Instruction::Sxm(SxmOp::ShiftDown {
                n: get(t)?,
                src: get(t)?,
                dst: get(t)?,
            }),
            OP_SELECT => Instruction::Sxm(SxmOp::Select {
                north: get(t)?,
                south: get(t)?,
                boundary: get(t)?,
                dst: get(t)?,
            }),
            OP_PERMUTE => Instruction::Sxm(SxmOp::Permute {
                src: get(t)?,
                dst: get(t)?,
                map: get(t)?,
            }),
            OP_DISTRIBUTE => Instruction::Sxm(SxmOp::Distribute {
                src: get(t)?,
                dst: get(t)?,
                map: get(t)?,
            }),
            OP_ROTATE => Instruction::Sxm(SxmOp::Rotate {
                n: get(t)?,
                src: get(t)?,
                dst: get(t)?,
            }),
            OP_TRANSPOSE => Instruction::Sxm(SxmOp::Transpose {
                src: get(t)?,
                dst: get(t)?,
            }),
            OP_DESKEW => Instruction::C2c(C2cOp::Deskew { link: get(t)? }),
            OP_SEND => Instruction::C2c(C2cOp::Send {
                link: get(t)?,
                stream: get(t)?,
            }),
            OP_RECEIVE => Instruction::C2c(C2cOp::Receive {
                link: get(t)?,
                stream: get(t)?,
            }),
            other => return Err(DecodeError::BadOpcode(other)),
        };
        Ok((insn, bytes.len() - text.len()))
    }
}

/// Encodes a whole program-order sequence into a flat byte image (the form
/// stored in "instruction dispatch" MEM slices and pulled by `Ifetch`).
#[must_use]
pub fn encode_sequence(instructions: &[Instruction]) -> Vec<u8> {
    let mut out = Vec::new();
    for i in instructions {
        out.extend_from_slice(&i.encode());
    }
    out
}

/// Decodes a flat byte image back into instructions (inverse of
/// [`encode_sequence`]).
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered.
pub fn decode_sequence(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
    decode_until(bytes, None)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One instruction of every format but `ShiftDown` (`ShiftUp`'s twin).
    pub(crate) fn samples() -> Vec<Instruction> {
        use tsp_arch::Direction;
        vec![
            IcuOp::Nop { count: 1234 }.into(),
            IcuOp::Ifetch {
                stream: StreamId::west(9),
            }
            .into(),
            IcuOp::Sync.into(),
            IcuOp::Notify.into(),
            IcuOp::Config { superlanes: 10 }.into(),
            IcuOp::Repeat { n: 64, d: 3 }.into(),
            MemOp::Read {
                addr: MemAddr::new(8191),
                stream: StreamId::east(31),
            }
            .into(),
            MemOp::Write {
                addr: MemAddr::new(4096),
                stream: StreamId::west(0),
            }
            .into(),
            MemOp::Gather {
                stream: StreamId::east(2),
                map: StreamId::east(3),
            }
            .into(),
            MemOp::Scatter {
                stream: StreamId::west(4),
                map: StreamId::west(5),
            }
            .into(),
            VxmOp::Binary {
                op: BinaryAluOp::MulSat,
                dtype: DataType::Int8,
                a: StreamGroup::new(StreamId::east(0), 1),
                b: StreamGroup::new(StreamId::east(1), 1),
                dst: StreamGroup::new(StreamId::west(2), 1),
                alu: AluIndex::new(7),
            }
            .into(),
            VxmOp::Unary {
                op: UnaryAluOp::Rsqrt,
                dtype: DataType::Fp32,
                src: StreamGroup::sg4(0, Direction::East),
                dst: StreamGroup::sg4(1, Direction::East),
                alu: AluIndex::new(15),
            }
            .into(),
            VxmOp::Convert {
                from: DataType::Int32,
                to: DataType::Int8,
                src: StreamGroup::sg4(2, Direction::West),
                dst: StreamGroup::new(StreamId::west(1), 1),
                shift: -5,
                alu: AluIndex::new(3),
            }
            .into(),
            MxmOp::LoadWeights {
                plane: Plane::new(1),
                streams: StreamGroup::new(StreamId::east(16), 16),
                rows: 20,
            }
            .into(),
            MxmOp::InstallWeights {
                plane: Plane::new(3),
                dtype: DataType::Fp16,
            }
            .into(),
            MxmOp::ActivationBuffer {
                plane: Plane::new(0),
                stream: StreamId::west(12),
                rows: 320,
            }
            .into(),
            MxmOp::Accumulate {
                plane: Plane::new(2),
                dst: StreamGroup::sg4(3, Direction::East),
                rows: 320,
                mode: AccumulateMode::Accumulate,
            }
            .into(),
            SxmOp::ShiftUp {
                n: 16,
                src: StreamId::east(1),
                dst: StreamId::east(2),
            }
            .into(),
            SxmOp::Select {
                north: StreamId::east(1),
                south: StreamId::east(2),
                boundary: 160,
                dst: StreamId::east(3),
            }
            .into(),
            SxmOp::Permute {
                map: PermuteMap::rotation(17),
                src: StreamId::west(7),
                dst: StreamId::west(8),
            }
            .into(),
            SxmOp::Distribute {
                map: {
                    let mut m = [None; 16];
                    m[0] = Some(3);
                    m[15] = Some(0);
                    m
                },
                src: StreamId::east(9),
                dst: StreamId::east(10),
            }
            .into(),
            SxmOp::Rotate {
                n: 3,
                src: StreamRange::new(StreamId::east(0), 3),
                dst: StreamRange::new(StreamId::east(3), 9),
            }
            .into(),
            SxmOp::Transpose {
                src: StreamRange::new(StreamId::east(0), 16),
                dst: StreamRange::new(StreamId::east(16), 16),
            }
            .into(),
            C2cOp::Deskew {
                link: LinkId::new(15),
            }
            .into(),
            C2cOp::Send {
                link: LinkId::new(0),
                stream: StreamId::east(31),
            }
            .into(),
            C2cOp::Receive {
                link: LinkId::new(7),
                stream: StreamId::west(30),
            }
            .into(),
        ]
    }

    /// The wire format, pinned: FNV-1a over the encoded samples (the ResNets
    /// `program_fingerprint` hashes never emit an SXM or C2C instruction).
    #[test]
    fn sample_bytes_are_golden() {
        let image = encode_sequence(&samples());
        let hash = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(
            (image.len(), hash),
            (767, 0xc875_10a0_7a03_14b8),
            "{hash:#018x}"
        );
    }

    #[test]
    fn every_instruction_roundtrips() {
        for insn in samples() {
            let bytes = insn.encode();
            let (decoded, used) =
                Instruction::decode(&bytes).unwrap_or_else(|e| panic!("decode of {insn}: {e}"));
            assert_eq!(decoded, insn);
            assert_eq!(used, bytes.len(), "trailing bytes for {insn}");
        }
    }

    #[test]
    fn sequence_roundtrips() {
        let seq = samples();
        let image = encode_sequence(&seq);
        assert_eq!(decode_sequence(&image).unwrap(), seq);
    }

    #[test]
    fn truncation_is_detected() {
        for insn in samples() {
            let bytes = insn.encode();
            for cut in 0..bytes.len() {
                match Instruction::decode(&bytes[..cut]) {
                    Err(_) => {}
                    // A prefix may decode as a shorter valid instruction only
                    // if it consumed the whole prefix; anything else is a bug.
                    Ok((_, used)) => assert_eq!(used, cut, "for {insn} cut at {cut}"),
                }
            }
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(
            Instruction::decode(&[0xEE]),
            Err(DecodeError::BadOpcode(0xEE))
        );
        assert_eq!(Instruction::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_stream_id_rejected() {
        // Read with stream id 33.
        let bytes = [OP_READ, 0x00, 0x00, 33u8];
        assert!(matches!(
            Instruction::decode(&bytes),
            Err(DecodeError::BadOperand(_))
        ));
    }

    /// `Transpose` from base 31 over 255 streams: 286 in all, 30 in a byte.
    #[test]
    fn stream_range_past_stream_31_is_rejected() {
        let bytes = [OP_TRANSPOSE, 31, 255, 0x80, 16];
        let bad = Err(DecodeError::BadOperand("stream range"));
        assert_eq!(Instruction::decode(&bytes), bad);
    }

    /// Hostile text never panics a decoder, in either profile: 200,000 seeded
    /// 24-byte buffers behind a valid opcode, and every truncation of every
    /// sample, come back `Ok` or `Err`.
    #[test]
    fn no_text_panics_a_decoder() {
        fn decode_all(text: &[u8]) {
            let _ = Instruction::decode(text);
            let _ = decode_fetch_block(text);
            let _ = decode_sequence(text);
        }
        let opcodes: Vec<u8> = samples().iter().map(|i| i.encode()[0]).collect();
        let mut rng = proptest::test_runner::TestRng::new(0x7e57_0dec_0de5);
        for _ in 0..200_000 {
            let mut text = [0u8; 24];
            for chunk in text.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            text[0] = opcodes[text[0] as usize % opcodes.len()];
            decode_all(&text);
        }
        for insn in samples() {
            let bytes = insn.encode();
            (0..bytes.len()).for_each(|cut| decode_all(&bytes[..cut]));
        }
    }
}
