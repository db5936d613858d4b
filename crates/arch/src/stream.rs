//! Streams: the architecturally-visible conduits between functional slices.
//!
//! The TSP has no general-purpose registers. Instead, a chip-wide *streaming
//! register file* carries 32 eastward and 32 westward streams past every slice
//! (paper §I-B, §II). A stream is designated by an identifier `0..32` plus a
//! direction of flow; multi-byte element types occupy naturally-aligned groups
//! of streams (`int16` a pair, `int32`/`fp32` an aligned quad).

use core::fmt;

use crate::geometry::{Hemisphere, Position};

/// Streams per direction of flow (32 eastward + 32 westward = 64 logical streams).
pub const STREAMS_PER_DIRECTION: u8 = 32;

/// Direction of stream flow along the east–west axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Toward increasing position (the east edge).
    East,
    /// Toward decreasing position (the west edge).
    West,
}

impl Direction {
    /// Both directions, in `[East, West]` order.
    pub const ALL: [Direction; 2] = [Direction::East, Direction::West];

    /// The opposite direction of flow.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Index used for array storage: East = 0, West = 1.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
        }
    }

    /// The position one stream-register hop downstream of `from`, or `None` if
    /// the stream falls off the edge of the chip (paper §V: streams "simply
    /// flow ... until they fall off the edge").
    #[must_use]
    pub fn step(self, from: Position) -> Option<Position> {
        match self {
            Direction::East => {
                let next = from.0 + 1;
                (next < crate::geometry::NUM_POSITIONS).then_some(Position(next))
            }
            Direction::West => from.0.checked_sub(1).map(Position),
        }
    }

    /// Number of hops a stream takes to travel from `from` to `to`, or `None`
    /// if `to` is not downstream of `from` in this direction.
    #[must_use]
    pub fn hops(self, from: Position, to: Position) -> Option<u32> {
        match self {
            Direction::East if to.0 >= from.0 => Some(u32::from(to.0 - from.0)),
            Direction::West if to.0 <= from.0 => Some(u32::from(from.0 - to.0)),
            _ => None,
        }
    }

    /// The direction that flows *inward* (toward the chip bisection) from a
    /// given hemisphere; e.g. data read in the West hemisphere flows East to
    /// reach the VXM.
    #[must_use]
    pub fn inward_from(hemisphere: Hemisphere) -> Direction {
        match hemisphere {
            Hemisphere::West => Direction::East,
            Hemisphere::East => Direction::West,
        }
    }

    /// The direction that flows *outward* (toward the chip edge) in a hemisphere.
    #[must_use]
    pub fn outward_from(hemisphere: Hemisphere) -> Direction {
        Direction::inward_from(hemisphere).opposite()
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::East => write!(f, "E"),
            Direction::West => write!(f, "W"),
        }
    }
}

/// A logical stream: identifier plus direction of flow.
///
/// Rendered in the paper's assembly notation, e.g. `S4.E` for stream 4 eastward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId {
    /// Stream number, `0..32`.
    pub id: u8,
    /// Direction of flow.
    pub direction: Direction,
}

impl StreamId {
    /// Creates a stream designator.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 32`.
    #[must_use]
    pub fn new(id: u8, direction: Direction) -> StreamId {
        assert!(
            id < STREAMS_PER_DIRECTION,
            "stream id {id} out of range (0..{STREAMS_PER_DIRECTION})"
        );
        StreamId { id, direction }
    }

    /// Stream `id` flowing east.
    #[must_use]
    pub fn east(id: u8) -> StreamId {
        StreamId::new(id, Direction::East)
    }

    /// Stream `id` flowing west.
    #[must_use]
    pub fn west(id: u8) -> StreamId {
        StreamId::new(id, Direction::West)
    }

    /// All 64 logical streams.
    pub fn all() -> impl Iterator<Item = StreamId> {
        Direction::ALL
            .into_iter()
            .flat_map(|d| (0..STREAMS_PER_DIRECTION).map(move |id| StreamId { id, direction: d }))
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}.{}", self.id, self.direction)
    }
}

/// A naturally-aligned group of consecutive streams carrying one multi-byte
/// element type (paper §I-B: "int16 is aligned on a stream pair, and int32 is
/// aligned on a quad-stream").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamGroup {
    /// First stream in the group (must be aligned to `width`).
    pub base: StreamId,
    /// Number of streams in the group: 1, 2, 4, 8 or 16.
    pub width: u8,
}

impl StreamGroup {
    /// Creates an aligned stream group.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a supported power of two, if `base.id` is not
    /// aligned to `width`, or if the group would exceed stream 31.
    #[must_use]
    pub fn new(base: StreamId, width: u8) -> StreamGroup {
        assert!(
            matches!(width, 1 | 2 | 4 | 8 | 16),
            "unsupported stream group width {width}"
        );
        assert!(
            base.id.is_multiple_of(width),
            "stream group base {base} not aligned to width {width}"
        );
        assert!(
            base.id + width <= STREAMS_PER_DIRECTION,
            "stream group {base}+{width} exceeds stream 31"
        );
        StreamGroup { base, width }
    }

    /// The `n`-th aligned quad-stream group in a direction (`SG4_n` in the paper:
    /// SG4_0 is streams 0–3, SG4_1 is streams 4–7, …).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    #[must_use]
    pub fn sg4(n: u8, direction: Direction) -> StreamGroup {
        StreamGroup::new(StreamId::new(n * 4, direction), 4)
    }

    /// The streams of the group, in ascending id order.
    pub fn streams(self) -> impl Iterator<Item = StreamId> {
        let d = self.base.direction;
        (self.base.id..self.base.id + self.width).map(move |id| StreamId { id, direction: d })
    }
}

impl fmt::Display for StreamGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SG{}[{}-{}].{}",
            self.width,
            self.base.id,
            self.base.id + self.width - 1,
            self.base.direction
        )
    }
}

/// A run of consecutive stream ids with no alignment requirement, used where an
/// instruction produces a non-power-of-two number of streams (e.g. the SXM's
/// `Rotate`, which emits n² rotation streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamRange {
    /// First stream in the run.
    pub base: StreamId,
    /// Number of consecutive streams.
    pub len: u8,
}

impl StreamRange {
    /// Creates a stream range.
    ///
    /// # Panics
    ///
    /// Panics if the run would extend past stream 31.
    #[must_use]
    pub fn new(base: StreamId, len: u8) -> StreamRange {
        assert!(
            u16::from(base.id) + u16::from(len) <= u16::from(STREAMS_PER_DIRECTION),
            "stream range {base}+{len} exceeds stream 31"
        );
        StreamRange { base, len }
    }

    /// The streams of the range, in ascending id order.
    pub fn streams(self) -> impl Iterator<Item = StreamId> {
        let d = self.base.direction;
        (self.base.id..self.base.id + self.len).map(move |id| StreamId { id, direction: d })
    }

    /// The `i`-th stream of the range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn stream(self, i: u8) -> StreamId {
        assert!(i < self.len, "stream range index {i} out of {}", self.len);
        StreamId {
            id: self.base.id + i,
            direction: self.base.direction,
        }
    }
}

impl From<StreamGroup> for StreamRange {
    fn from(g: StreamGroup) -> StreamRange {
        StreamRange {
            base: g.base,
            len: g.width,
        }
    }
}

impl fmt::Display for StreamRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S[{}-{}].{}",
            self.base.id,
            self.base.id + self.len - 1,
            self.base.direction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NUM_POSITIONS;

    #[test]
    fn sixty_four_logical_streams() {
        assert_eq!(StreamId::all().count(), 64);
    }

    #[test]
    fn step_falls_off_edges() {
        assert_eq!(Direction::West.step(Position(0)), None);
        assert_eq!(Direction::East.step(Position(NUM_POSITIONS - 1)), None);
        assert_eq!(Direction::East.step(Position(3)), Some(Position(4)));
        assert_eq!(Direction::West.step(Position(3)), Some(Position(2)));
    }

    #[test]
    fn hops_respects_direction() {
        assert_eq!(Direction::East.hops(Position(2), Position(7)), Some(5));
        assert_eq!(Direction::East.hops(Position(7), Position(2)), None);
        assert_eq!(Direction::West.hops(Position(7), Position(2)), Some(5));
        assert_eq!(Direction::East.hops(Position(4), Position(4)), Some(0));
    }

    #[test]
    fn inward_outward() {
        assert_eq!(Direction::inward_from(Hemisphere::West), Direction::East);
        assert_eq!(Direction::inward_from(Hemisphere::East), Direction::West);
        assert_eq!(Direction::outward_from(Hemisphere::West), Direction::West);
    }

    #[test]
    fn sg4_matches_paper_numbering() {
        let g = StreamGroup::sg4(1, Direction::East);
        let ids: Vec<u8> = g.streams().map(|s| s.id).collect();
        assert_eq!(ids, vec![4, 5, 6, 7]); // "SG4_1 is streams 4-7"
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_group_panics() {
        let _ = StreamGroup::new(StreamId::east(3), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stream_id_32_panics() {
        let _ = StreamId::east(32);
    }

    #[test]
    fn display_forms() {
        assert_eq!(StreamId::east(28).to_string(), "S28.E");
        assert_eq!(
            StreamGroup::sg4(0, Direction::West).to_string(),
            "SG4[0-3].W"
        );
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;

    #[test]
    fn range_enumerates_streams() {
        let r = StreamRange::new(StreamId::east(5), 9);
        let ids: Vec<u8> = r.streams().map(|s| s.id).collect();
        assert_eq!(ids, (5..14).collect::<Vec<u8>>());
        assert_eq!(r.stream(3), StreamId::east(8));
    }

    #[test]
    #[should_panic(expected = "exceeds stream 31")]
    fn range_past_31_panics() {
        let _ = StreamRange::new(StreamId::east(28), 9);
    }

    /// 31 + 255 is 30 in a byte: the bound is taken in a wider type.
    #[test]
    #[should_panic(expected = "exceeds stream 31")]
    fn range_wrapping_a_byte_panics() {
        let _ = StreamRange::new(StreamId::east(31), 255);
    }

    #[test]
    fn range_from_group() {
        let r: StreamRange = StreamGroup::sg4(2, Direction::West).into();
        assert_eq!(r.base.id, 8);
        assert_eq!(r.len, 4);
    }
}
