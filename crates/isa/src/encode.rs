//! Binary instruction encoding.
//!
//! Instruction text lives in ordinary MEM slices and reaches each ICU over
//! streams via `Ifetch` (640 bytes — a pair of 320-byte vectors — per fetch,
//! paper §III-A3), so every instruction must serialize to bytes. The format is
//! a one-byte opcode followed by little-endian operand fields; large operands
//! (the permute map) are carried inline.
//!
//! Each instruction's opcode and field order are a row of the instruction
//! table ([`crate::instruction`]), which generates [`Instruction::encode`]
//! and [`Instruction::decode`]; this module is each field type's wire format
//! and the sequence codecs. The two round-trip exactly, tested over a sample
//! of every row.

use core::fmt;

use tsp_arch::{Direction, StreamGroup, StreamId, StreamRange, LANES, STREAMS_PER_DIRECTION};

use crate::c2c::{LinkId, NUM_LINKS};
use crate::dtype::DataType;
use crate::mem::MemAddr;
use crate::mxm::{AccumulateMode, Plane};
use crate::sxm::{DistributeMap, PermuteMap};
use crate::vxm::{AluIndex, BinaryAluOp, UnaryAluOp};
use crate::Instruction;

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

/// One operand field's wire format: how it is written, and how it is read
/// back — with the range check decoding owes it, so an instruction's row in
/// the table ([`crate::instruction`]) gives its opcode and its fields in wire
/// order, nothing more.
pub(crate) trait Field: Sized {
    fn put(&self, text: &mut Vec<u8>);
    /// Takes the field off the head of `text`.
    fn get(text: &mut &[u8]) -> Result<Self, DecodeError>;
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

/// `Config`'s operand on the wire: how many superlanes stay powered, 1 to 20.
pub(crate) struct Superlanes(pub(crate) u8);

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
    use crate::{C2cOp, IcuOp, MemOp, MxmOp, SxmOp, VxmOp};

    include!("encode/samples.rs");

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
            (772, 0x8446_e1e6_e329_784e),
            "{hash:#018x}"
        );
    }

    /// Every row of the instruction table has a sample: each byte the
    /// decoder takes for an opcode leads some sample's text.
    #[test]
    fn every_opcode_has_a_sample() {
        let led: Vec<u8> = samples().iter().map(|i| i.encode()[0]).collect();
        for byte in 0..=u8::MAX {
            if Instruction::decode(&[byte]) != Err(DecodeError::BadOpcode(byte)) {
                assert!(led.contains(&byte), "no sample of opcode {byte:#04x}");
            }
        }
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

    /// The text of the first sample of `mnemonic`.
    fn text_of(mnemonic: &str) -> Vec<u8> {
        let sample = samples().into_iter().find(|i| i.mnemonic() == mnemonic);
        sample.expect("a sample").encode()
    }

    #[test]
    fn bad_stream_id_rejected() {
        // Read with stream id 33.
        let mut bytes = text_of("Read");
        bytes[3] = 33;
        assert!(matches!(
            Instruction::decode(&bytes),
            Err(DecodeError::BadOperand(_))
        ));
    }

    /// `Transpose` from base 31 over 255 streams: 286 in all, 30 in a byte.
    #[test]
    fn stream_range_past_stream_31_is_rejected() {
        let mut bytes = text_of("Transpose");
        bytes[1..3].copy_from_slice(&[31, 255]);
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
