//! The chip-wide streaming register file, in a *diagonal* representation.
//!
//! On every tick the hardware propagates each stream value one stream-register
//! hop in its direction of flow (paper §V-c). For an eastward stream, a value
//! written at position `p₀` on cycle `t₀` is therefore visible at position `p`
//! exactly at cycle `t = t₀ + (p − p₀)`; the quantity `d = p − t` is invariant
//! along its journey. We index stream contents by this diagonal:
//!
//! * eastward: `d = p − t` (as a signed integer);
//! * westward: `d = p + t`.
//!
//! Each `(stream, diagonal)` holds a list of writes ordered by the position
//! they were produced at. A consumer at `(p, t)` sees the value from the
//! *latest producer at or before* (in flow order) its own position — exactly
//! the paper's overwrite semantics, where a slice may intercept a stream and
//! overwrite it for everyone downstream while upstream traffic is unaffected.
//!
//! The representation makes idle stream flow free: no per-cycle copying, yet
//! reads/writes at any `(position, cycle)` are cycle-exact.
//!
//! Storage is a flat array of `SLOTS` slots per stream, indexed by the
//! diagonal modulo `SLOTS`. Because only a bounded window of diagonals is
//! ever referenced at once (the [`NUM_POSITIONS`](tsp_arch::NUM_POSITIONS) on-chip positions plus the
//! largest write look-ahead `d_func`), two diagonals that alias the same slot
//! are always ≥ `SLOTS` cycles apart — the older one has flowed off the
//! chip edge, so a write simply reclaims the slot in place. Expiry is thus
//! incremental; no periodic garbage sweep is required.
//!
//! Producers write through a pool of retired words: a word this file held
//! last goes back to the pool when its slot is reclaimed or overwritten,
//! and [`StreamFile::write_with`] fills one in place. Without it every
//! produced word is a heap allocation, which measured ≈ 11 % slower on
//! ResNet-50 functional inference (EXPERIMENTS.md "Host throughput").

use std::sync::Arc;

use tsp_arch::{Direction, Position, StreamId, Vector, SUPERLANES};

/// A vector travelling on a stream, carrying its producer-generated ECC
/// check bits alongside the data (paper §II-D).
///
/// This is the *same type* as the word stored in MEM SRAM
/// ([`tsp_mem::slice::StoredVector`]): MEM, the stream file and the C2C
/// links all share one currency, so a vector read out of SRAM is forwarded
/// onto its stream — and a vector consumed off a stream is written back into
/// SRAM — as an `Arc` reference-count bump, never a 320-byte copy. The lazy
/// check-bit scheme (pristine words defer `encode(data)` until a fault path
/// needs bits that can genuinely disagree) therefore applies uniformly from
/// producer to consumer.
pub type StreamWord = tsp_mem::slice::StoredVector;

/// Key for one logical stream's storage.
fn stream_key(s: StreamId) -> usize {
    s.direction.index() * 32 + s.id as usize
}

/// Slots per stream. A power of two strictly larger than the widest window of
/// diagonals referenced concurrently: the [`NUM_POSITIONS`](tsp_arch::NUM_POSITIONS) (= 93) on-chip
/// positions plus the largest stream-writing `d_func` look-ahead. Aliasing
/// diagonals are ≥ 256 cycles apart, hence never simultaneously live.
const SLOTS: usize = 256;

/// Total stream-register slots chip-wide (64 streams × `SLOTS` diagonals)
/// — the capacity the occupancy high-water mark
/// ([`tsp_telemetry::Telemetry::stream_high_water`]) is measured against.
pub const STREAM_CAPACITY: usize = 64 * SLOTS;

/// One diagonal of one stream: the writes on it, ordered by producing
/// position in flow order. `first.is_none()` means the slot is vacant.
///
/// The single write (the overwhelmingly common case — one producer per
/// flowing value) is stored inline in `first`, so the hot write/read paths
/// touch only this slot entry and never chase a heap pointer; downstream
/// interceptor writes overflow into `rest`, kept sorted in flow order after
/// `first`. (One `Vec` for all writes measured 10 % slower on ResNet-50
/// functional inference, EXPERIMENTS.md "Host throughput".)
#[derive(Debug, Clone, Default)]
struct Slot {
    diagonal: i64,
    first: Option<(u8, Arc<StreamWord>)>,
    rest: Vec<(u8, Arc<StreamWord>)>,
}

/// Cap on the retired-word pool (~1.5 MB of `StreamWord`s): large enough
/// that steady-state producers never allocate, small enough that a burst
/// of expiries does not pin memory forever.
const WORD_POOL_CAP: usize = 4096;

/// Offers a retired word to the pool. Only an exclusively-owned word is
/// worth keeping: one still referenced elsewhere (stored in SRAM, held by
/// a consumer) would fail the uniqueness check at reuse.
fn retire(free: &mut Vec<Arc<StreamWord>>, word: Arc<StreamWord>) {
    if free.len() < WORD_POOL_CAP && Arc::strong_count(&word) == 1 {
        free.push(word);
    }
}

/// The streaming register file for all 64 logical streams.
#[derive(Debug, Clone)]
pub struct StreamFile {
    /// `64 × SLOTS` slots, stream-major.
    slots: Vec<Slot>,
    /// Count of occupied slots, maintained on every empty↔non-empty
    /// transition so occupancy telemetry is O(1) per sample instead of an
    /// O(`64 × SLOTS`) rescan.
    live: usize,
    /// Retired words [`StreamFile::write_with`] reuses. Entries still
    /// referenced elsewhere at reuse (the chip was cloned) are dropped.
    free: Vec<Arc<StreamWord>>,
}

impl Default for StreamFile {
    fn default() -> StreamFile {
        StreamFile {
            slots: vec![Slot::default(); 64 * SLOTS],
            live: 0,
            free: Vec::new(),
        }
    }
}

impl StreamFile {
    /// Creates an empty stream file.
    #[must_use]
    pub fn new() -> StreamFile {
        StreamFile::default()
    }

    fn diagonal(stream: StreamId, position: Position, cycle: u64) -> i64 {
        match stream.direction {
            Direction::East => i64::from(position.0) - cycle as i64,
            Direction::West => i64::from(position.0) + cycle as i64,
        }
    }

    fn slot_index(stream: StreamId, d: i64) -> usize {
        stream_key(stream) * SLOTS + d.rem_euclid(SLOTS as i64) as usize
    }

    /// Writes `word` onto `stream` at `(position, cycle)`: visible to
    /// downstream consumers from the next hop onward (and at `position`
    /// itself at exactly `cycle`). A second write at the same position and
    /// cycle replaces the first; a write elsewhere on the diagonal is one
    /// more producer, seen from its own position to the next producer
    /// downstream.
    pub fn write(
        &mut self,
        stream: StreamId,
        position: Position,
        cycle: u64,
        word: Arc<StreamWord>,
    ) {
        let d = StreamFile::diagonal(stream, position, cycle);
        let slot = &mut self.slots[StreamFile::slot_index(stream, d)];
        let pos = position.0;
        if slot.diagonal != d {
            // The previous tenant aliases this slot from ≥ SLOTS cycles ago
            // and has flowed off the chip: reclaim in place.
            debug_assert!(
                slot.first.is_none()
                    || match stream.direction {
                        // Newer diagonals are smaller (east) / larger (west).
                        Direction::East => slot.diagonal > d,
                        Direction::West => slot.diagonal < d,
                    },
                "slot reclaim evicted a live diagonal"
            );
            if let Some((_, retired)) = slot.first.take() {
                self.live -= 1;
                retire(&mut self.free, retired);
                for (_, retired) in slot.rest.drain(..) {
                    retire(&mut self.free, retired);
                }
            }
            slot.diagonal = d;
        }
        let Some(first) = slot.first.as_mut() else {
            // Vacant slot — the hot path: the write lands inline.
            slot.first = Some((pos, word));
            self.live += 1;
            return;
        };
        // Multi-writer (or overwrite) path: keep first + rest sorted by flow
        // order of the producing position.
        let ordinal = |p: u8| -> i16 {
            match stream.direction {
                Direction::East => i16::from(p),
                Direction::West => -i16::from(p),
            }
        };
        let o = ordinal(pos);
        if o == ordinal(first.0) {
            retire(&mut self.free, std::mem::replace(&mut first.1, word));
        } else if o < ordinal(first.0) {
            // New most-upstream producer: demote the old head into `rest`.
            let old = std::mem::replace(first, (pos, word));
            slot.rest.insert(0, old);
        } else {
            match slot.rest.binary_search_by_key(&o, |(p, _)| ordinal(*p)) {
                Ok(i) => retire(&mut self.free, std::mem::replace(&mut slot.rest[i].1, word)),
                Err(i) => slot.rest.insert(i, (pos, word)),
            }
        }
    }

    /// [`StreamFile::write`] of a word produced in place: `fill` writes the
    /// 320 bytes straight into a retired word from the pool when one is
    /// exclusively ours, else into a fresh zeroed one. `check` of `None`
    /// means pristine (producer-side ECC deferred); `Some` carries explicit
    /// bits that may disagree with the data.
    pub fn write_with(
        &mut self,
        stream: StreamId,
        position: Position,
        cycle: u64,
        check: Option<[u16; SUPERLANES]>,
        fill: impl FnOnce(&mut Vector),
    ) {
        let mut word = std::iter::from_fn(|| self.free.pop())
            .find(|w| Arc::strong_count(w) == 1)
            .unwrap_or_else(|| Arc::new(StreamWord::protect(Vector::ZERO)));
        let data = Arc::get_mut(&mut word)
            .expect("a pooled or new word is unshared")
            .rewrite(check);
        fill(data);
        self.write(stream, position, cycle, word);
    }

    /// Offers a word retired outside the stream file (one displaced from
    /// SRAM by an overwrite) to the pool.
    pub fn recycle(&mut self, word: Arc<StreamWord>) {
        retire(&mut self.free, word);
    }

    /// Reads `stream` at `(position, cycle)`: the value most recently written
    /// on this diagonal at or upstream of `position`, or `None` if no value
    /// occupies this slot of the stream.
    #[must_use]
    pub fn read(
        &self,
        stream: StreamId,
        position: Position,
        cycle: u64,
    ) -> Option<Arc<StreamWord>> {
        let d = StreamFile::diagonal(stream, position, cycle);
        let slot = &self.slots[StreamFile::slot_index(stream, d)];
        if slot.diagonal != d {
            return None;
        }
        // Latest producer whose position is at-or-upstream of `position`.
        let upstream = |p: u8| match stream.direction {
            Direction::East => p <= position.0,
            Direction::West => p >= position.0,
        };
        let (p0, w0) = slot.first.as_ref()?;
        if !upstream(*p0) {
            return None;
        }
        let mut best = w0;
        for (p, w) in &slot.rest {
            if upstream(*p) {
                best = w;
            } else {
                break;
            }
        }
        Some(Arc::clone(best))
    }

    /// Flips one data bit of the value occupying `stream`'s register at
    /// `(position, cycle)` — a stream-register upset. The check bits travel
    /// untouched, so the next consumer's SECDED check catches the flip. The
    /// corrupted copy is written back at the upset register, shadowing the
    /// value for downstream consumers only (upstream readers on the same
    /// diagonal still see the clean word, exactly like hardware). Returns
    /// `false` when the register holds nothing at that cycle (vacant hit).
    pub fn corrupt(
        &mut self,
        stream: StreamId,
        position: Position,
        cycle: u64,
        lane: u16,
        bit: u8,
    ) -> bool {
        let Some(word) = self.read(stream, position, cycle) else {
            return false;
        };
        // Materialize the check bits *before* the flip: the upset strikes the
        // data register only, so check and data now disagree and the word
        // must take the explicit (verified) path at its consumer.
        let check = word.check();
        let mut data = word.data.clone();
        let lane = usize::from(lane);
        let byte = data.lane(lane);
        data.set_lane(lane, byte ^ (1 << bit));
        self.write(
            stream,
            position,
            cycle,
            Arc::new(StreamWord::with_check(data, check)),
        );
        true
    }

    /// Number of live diagonals, O(1) (maintained incrementally): sampled
    /// after every stream write for the occupancy high-water telemetry.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(tag: u8) -> Arc<StreamWord> {
        Arc::new(StreamWord::protect(Vector::splat(tag)))
    }

    /// Number of live diagonals by an O(n) rescan: the cross-check of the
    /// maintained [`StreamFile::live_count`].
    fn live_values(f: &StreamFile) -> usize {
        f.slots.iter().filter(|s| s.first.is_some()).count()
    }

    #[test]
    fn value_flows_one_hop_per_cycle_east() {
        let mut f = StreamFile::new();
        let s = StreamId::east(3);
        f.write(s, Position(10), 100, word(7));
        // At the producing position, same cycle:
        assert!(f.read(s, Position(10), 100).is_some());
        // Five hops downstream, five cycles later:
        assert_eq!(f.read(s, Position(15), 105).unwrap().data, Vector::splat(7));
        // Wrong time: nothing there.
        assert!(f.read(s, Position(15), 104).is_none());
        assert!(f.read(s, Position(15), 106).is_none());
        // Upstream of the producer: never visible.
        assert!(f.read(s, Position(9), 99).is_none());
    }

    #[test]
    fn value_flows_west() {
        let mut f = StreamFile::new();
        let s = StreamId::west(0);
        f.write(s, Position(50), 10, word(9));
        assert_eq!(f.read(s, Position(45), 15).unwrap().data, Vector::splat(9));
        assert!(f.read(s, Position(55), 15).is_none());
    }

    #[test]
    fn downstream_overwrite_shadows_for_downstream_only() {
        let mut f = StreamFile::new();
        let s = StreamId::east(1);
        // Producer A at position 5, cycle 0.
        f.write(s, Position(5), 0, word(1));
        // Interceptor B overwrites the same flowing slot at position 20, cycle 15.
        f.write(s, Position(20), 15, word(2));
        // Between A and B: still A's value.
        assert_eq!(f.read(s, Position(10), 5).unwrap().data, Vector::splat(1));
        assert_eq!(f.read(s, Position(19), 14).unwrap().data, Vector::splat(1));
        // At and after B: B's value.
        assert_eq!(f.read(s, Position(20), 15).unwrap().data, Vector::splat(2));
        assert_eq!(f.read(s, Position(30), 25).unwrap().data, Vector::splat(2));
    }

    /// The position `k` hops downstream of where `s` enters the chip.
    fn hop(s: StreamId, k: u8) -> Position {
        match s.direction {
            Direction::East => Position(k),
            Direction::West => Position(tsp_arch::NUM_POSITIONS - 1 - k),
        }
    }

    /// Writes `tag` `k` hops in, on the diagonal that enters at cycle 0.
    fn put(f: &mut StreamFile, s: StreamId, k: u8, tag: u8) {
        f.write(s, hop(s, k), u64::from(k), word(tag));
    }

    /// The tag a reader `k` hops in sees on that diagonal.
    fn seen(f: &StreamFile, s: StreamId, k: u8) -> Option<u8> {
        f.read(s, hop(s, k), u64::from(k)).map(|w| w.data.lane(0))
    }

    fn both_directions() -> [StreamId; 2] {
        [StreamId::east(5), StreamId::west(5)]
    }

    #[test]
    fn second_write_at_a_position_replaces_the_first_downstream() {
        for s in both_directions() {
            let mut f = StreamFile::new();
            put(&mut f, s, 10, 1);
            put(&mut f, s, 30, 2);
            // Again at the head, then again at the interceptor.
            put(&mut f, s, 10, 3);
            put(&mut f, s, 30, 4);
            assert_eq!(seen(&f, s, 9), None, "{s}");
            assert_eq!(seen(&f, s, 10), Some(3), "{s}");
            assert_eq!(seen(&f, s, 11), Some(3), "{s}");
            assert_eq!(seen(&f, s, 29), Some(3), "{s}");
            assert_eq!(seen(&f, s, 30), Some(4), "{s}");
            assert_eq!(seen(&f, s, 31), Some(4), "{s}");
            assert_eq!(f.live_count(), 1, "{s}");
        }
    }

    #[test]
    fn producer_upstream_of_the_head_is_shadowed_past_it() {
        for s in both_directions() {
            let mut f = StreamFile::new();
            put(&mut f, s, 40, 1);
            put(&mut f, s, 20, 2);
            assert_eq!(seen(&f, s, 19), None, "{s}");
            assert_eq!(seen(&f, s, 20), Some(2), "{s}");
            assert_eq!(seen(&f, s, 21), Some(2), "{s}");
            assert_eq!(seen(&f, s, 39), Some(2), "{s}");
            assert_eq!(seen(&f, s, 40), Some(1), "{s}");
            assert_eq!(seen(&f, s, 41), Some(1), "{s}");
            assert_eq!(f.live_count(), 1, "{s}");
        }
    }

    #[test]
    fn interceptor_between_two_producers() {
        for s in both_directions() {
            let mut f = StreamFile::new();
            put(&mut f, s, 10, 1);
            put(&mut f, s, 50, 3);
            put(&mut f, s, 30, 2);
            for (k, want) in [
                (9, None),
                (10, Some(1)),
                (11, Some(1)),
                (29, Some(1)),
                (30, Some(2)),
                (31, Some(2)),
                (49, Some(2)),
                (50, Some(3)),
                (51, Some(3)),
            ] {
                assert_eq!(seen(&f, s, k), want, "{s} at hop {k}");
            }
        }
    }

    #[test]
    fn successive_cycles_are_independent_slots() {
        let mut f = StreamFile::new();
        let s = StreamId::east(0);
        // A producer streams three vectors on consecutive cycles.
        for (t, tag) in [(0u64, 10u8), (1, 11), (2, 12)] {
            f.write(s, Position(2), t, word(tag));
        }
        // A consumer 8 hops downstream sees them on consecutive cycles.
        for (t, tag) in [(8u64, 10u8), (9, 11), (10, 12)] {
            assert_eq!(f.read(s, Position(10), t).unwrap().data, Vector::splat(tag));
        }
    }

    #[test]
    fn same_id_opposite_directions_are_distinct() {
        let mut f = StreamFile::new();
        f.write(StreamId::east(4), Position(46), 0, word(1));
        f.write(StreamId::west(4), Position(46), 0, word(2));
        assert_eq!(
            f.read(StreamId::east(4), Position(47), 1).unwrap().data,
            Vector::splat(1)
        );
        assert_eq!(
            f.read(StreamId::west(4), Position(45), 1).unwrap().data,
            Vector::splat(2)
        );
    }

    #[test]
    fn live_count_tracks_rescan_through_reclaim() {
        let mut f = StreamFile::new();
        let s = StreamId::east(0);
        for t in 0..600u64 {
            // 600 > SLOTS: later writes reclaim slots of expired diagonals
            // in place, exercising the decrement path.
            f.write(s, Position(2), t, word((t % 251) as u8));
            // Overwrite on the same diagonal must not double-count.
            f.write(s, Position(3), t + 1, word(0));
            assert_eq!(f.live_count(), live_values(&f));
        }
    }

    #[test]
    fn ecc_travels_with_data() {
        let mut f = StreamFile::new();
        let s = StreamId::east(2);
        let clean = StreamWord::protect(Vector::splat(0x5A));
        // Corrupt one bit in flight (materializing the clean word's check
        // bits first, as the fault paths do); consumer-side check must
        // catch it.
        let mut data = clean.data.clone();
        let b = data.lane(0);
        data.set_lane(0, b ^ 1);
        f.write(
            s,
            Position(0),
            0,
            Arc::new(StreamWord::with_check(data, clean.check())),
        );
        let got = f.read(s, Position(4), 4).unwrap();
        assert!(!got.is_pristine());
        let mut word0 = [0u8; 16];
        word0.copy_from_slice(got.data.superlane(0));
        let outcome = tsp_mem::ecc::check_and_correct(&mut word0, got.check()[0]).unwrap();
        assert!(matches!(
            outcome,
            tsp_mem::ecc::EccOutcome::Corrected { data_bit: Some(0) }
        ));
        assert_eq!(word0, [0x5A; 16]);
    }
}
