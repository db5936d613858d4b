//! The books: when every contended hardware unit is busy.
//!
//! The compiler, not the hardware, resolves contention (paper §II). Each
//! schedulable unit is a [`Resource`]; the [`ResourcePool`] books the cycles
//! each is busy as sorted, disjoint intervals — a representation nothing
//! outside this file depends on. Two questions are asked of the books: a
//! book's *horizon*, the end of its latest interval
//! ([`ResourcePool::free_at`]), and the first cycle from which several books
//! each have an idle window of a given length at a given offset
//! ([`ResourcePool::first_window`]). [`crate::sched::Scheduler`] keeps the
//! only pool and is the only one to read or write it: placing an instruction
//! books its queue, and kernels ask the scheduler's methods about the rest.
//! Later kernels overlap with earlier ones wherever their resource sets are
//! disjoint — the paper's §IV-C memory-overlap optimization — or run strictly
//! layer by layer when the pool is fenced.

use std::collections::BTreeMap;

use tsp_arch::{Direction, StreamId, STREAMS_PER_DIRECTION};
use tsp_sim::IcuId;

/// A contended hardware unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// One instruction queue — a MEM slice's, a VXM ALU's, an MXM port's:
    /// busy while an instruction placed on it is being issued
    /// (`Instruction::queue_cycles`). Only
    /// [`crate::sched::Scheduler::place`] books it.
    Queue(IcuId),
    /// One logical stream (id + direction), chip-wide. Its book is kept in
    /// **edge time** — the cycle a value leaves the chip — which is constant
    /// along a value's flight, so two bursts never share a stream register
    /// iff their edge-time intervals are disjoint, wherever they were
    /// produced (see [`crate::sched::Scheduler::pick_streams`]). Only a
    /// burst books it, for the cycles its values are on the stream: picking
    /// a stream books nothing.
    Stream(Direction, u8),
    /// One MXM plane's weight buffer: busy from an `LW` until the `IW` that
    /// empties it into the array has completed.
    MxmWeights(u8),
    /// One MXM plane's array input: busy until the last activation row of
    /// the pass using the installed weights has entered (`ABC` end). The
    /// accumulators need no entry of their own: a pass's `ACC` trails its
    /// `ABC` by the array delay, so read-outs keep the order of the `ABC`s.
    MxmArray(u8),
}

/// One resource's busy intervals `[start, end)`: sorted, disjoint, and
/// merged where they touch — so the ends ascend too, and the last one is the
/// horizon.
#[derive(Debug, Clone, Default)]
struct Book(Vec<(u64, u64)>);

/// How to take one booking back.
#[derive(Debug, Clone)]
enum Undo {
    /// It was pushed as the latest interval.
    Pushed,
    /// It extended the latest interval, which ended at this cycle before.
    Extended(u64),
    /// It was inserted at this index, touching no interval.
    Inserted(usize),
    /// It widened the one interval at this index, which was this before.
    Widened(usize, (u64, u64)),
    /// It merged these intervals, from this index on, into one.
    Merged(usize, Vec<(u64, u64)>),
}

impl Book {
    /// The end of the latest interval (0 when nothing is booked).
    fn horizon(&self) -> u64 {
        self.0.last().map_or(0, |&(_, end)| end)
    }

    /// Books `[start, end)`, merging it with every interval it overlaps or
    /// touches; returns how to take it back.
    fn book(&mut self, start: u64, end: u64) -> Undo {
        debug_assert!(start <= end, "a booking ends after it starts");
        let book = &mut self.0;
        match book.last_mut() {
            // Most bookings extend or follow the latest interval.
            Some(last) if start >= last.0 && start <= last.1 => {
                let before = last.1;
                last.1 = before.max(end);
                Undo::Extended(before)
            }
            Some(last) if start < last.0 => {
                let first = book.partition_point(|&(_, e)| e < start);
                let last = first + book[first..].partition_point(|&(s, _)| s <= end);
                match last - first {
                    0 => {
                        book.insert(first, (start, end));
                        Undo::Inserted(first)
                    }
                    1 => {
                        let old = book[first];
                        book[first] = (old.0.min(start), old.1.max(end));
                        Undo::Widened(first, old)
                    }
                    _ => {
                        let merged = (book[first].0.min(start), book[last - 1].1.max(end));
                        let old = book.splice(first..last, [merged]).collect();
                        Undo::Merged(first, old)
                    }
                }
            }
            _ => {
                book.push((start, end));
                Undo::Pushed
            }
        }
    }

    /// Takes back the latest booking not yet taken back, as `book` said.
    fn take_back(&mut self, undo: Undo) {
        let book = &mut self.0;
        match undo {
            Undo::Pushed => {
                book.pop();
            }
            Undo::Extended(end) => book.last_mut().expect("an interval was extended").1 = end,
            Undo::Inserted(at) => {
                book.remove(at);
            }
            Undo::Widened(at, old) => book[at] = old,
            Undo::Merged(at, old) => {
                book.splice(at..=at, old);
            }
        }
    }

    /// The first `t ≥ at` with `[t, t + n)` clear of every interval.
    fn first_window(&self, n: u64, at: u64) -> u64 {
        let mut t = at;
        let from = self.0.partition_point(|&(_, end)| end <= t);
        for &(start, end) in &self.0[from..] {
            if start >= t + n {
                break;
            }
            t = end;
        }
        t
    }
}

/// The point [`ResourcePool::rewind`] takes the books back to.
#[derive(Debug)]
pub struct Mark {
    floor: u64,
}

/// Books when each resource is busy.
#[derive(Debug, Clone, Default)]
pub struct ResourcePool {
    books: BTreeMap<Resource, Book>,
    /// Highest fence applied; resources never touched still respect it.
    floor: u64,
    /// Every booking since the open [`Mark`], with how to take it back;
    /// empty while none is open.
    journal: Vec<(Resource, Undo)>,
    /// Whether a mark is taken and not yet rewound to or released.
    open: bool,
}

impl ResourcePool {
    /// A pool where everything is free at cycle 0.
    #[must_use]
    pub fn new() -> ResourcePool {
        ResourcePool::default()
    }

    /// The first cycle after which `r` is booked no more: its horizon.
    #[must_use]
    pub fn free_at(&self, r: Resource) -> u64 {
        self.books.get(&r).map_or(0, Book::horizon).max(self.floor)
    }

    /// The first cycle `t ≥ at` at which every claim `(r, offset, n)` finds
    /// `r` idle for the `n` cycles from `t + offset`, past the fence (and
    /// cycle 0): windows before the horizons where they are long enough.
    #[must_use]
    pub fn first_window(&self, claims: &[(Resource, i64, u64)], at: u64) -> u64 {
        let books: Vec<_> = (claims.iter())
            .map(|&(r, offset, n)| (self.books.get(&r), offset, n))
            .collect();
        let floor = self.floor as i64;
        let mut t = (claims.iter()).fold(at as i64, |t, &(_, offset, _)| t.max(floor - offset));
        // Each claim's window moves `t` for the others: go round them until
        // every one has accepted the same `t`.
        let mut accepted = 0;
        for &(book, offset, n) in books.iter().cycle() {
            if accepted == books.len() {
                break;
            }
            let start = (t + offset) as u64;
            match book.map_or(start, |book| book.first_window(n, start)) {
                free if free == start => accepted += 1,
                free => (t, accepted) = (free as i64 - offset, 1),
            }
        }
        t as u64
    }

    /// Books `r` busy over `[start, until)`.
    pub fn occupy(&mut self, r: Resource, start: u64, until: u64) {
        let undo = self.books.entry(r).or_default().book(start, until);
        if self.open {
            self.journal.push((r, undo));
        }
    }

    /// Opens the one point to rewind the books to: every booking from now
    /// on is journaled until the mark is rewound to or released.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a mark is already open: marks do not nest.
    pub fn mark(&mut self) -> Mark {
        debug_assert!(!self.open, "one mark at a time");
        self.open = true;
        Mark { floor: self.floor }
    }

    /// Takes back every booking and fence since `mark`, and closes it.
    pub fn rewind(&mut self, mark: Mark) {
        for (r, undo) in self.journal.drain(..).rev() {
            let book = self.books.get_mut(&r).expect("a journaled book");
            book.take_back(undo);
        }
        self.floor = mark.floor;
        self.release(mark);
    }

    /// Closes `mark`, keeping what was booked since.
    pub fn release(&mut self, _mark: Mark) {
        self.open = false;
        self.journal.clear();
    }

    /// Fences every resource to `cycle`: nothing schedules before it
    /// (strict layer-sequential mode; the E13 ablation baseline).
    pub fn fence(&mut self, cycle: u64) {
        self.floor = self.floor.max(cycle);
    }

    /// The highest fence applied so far.
    #[must_use]
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Picks the `count` streams in `direction` that free soonest (any stream
    /// free by `at` is as good as another), preferring the highest ids;
    /// returns the chosen ids and the cycle at which all are free. `at` and
    /// the result are edge times. `exclude` lists ids a kernel has already
    /// claimed for other roles in the same time window (free-time preference
    /// alone cannot guarantee distinctness).
    #[must_use]
    pub fn pick_streams_excluding(
        &self,
        direction: Direction,
        count: u8,
        at: u64,
        exclude: &[u8],
    ) -> (Vec<StreamId>, u64) {
        // Prefer the HIGHEST free id: single operand/result streams then pool
        // at the top of the id space, keeping the low aligned base available
        // for the MXM's 16-wide weight groups — otherwise one long activation
        // burst inside a group window serializes entire plane chains.
        let mut scored: Vec<(u64, std::cmp::Reverse<u8>)> = (0..STREAMS_PER_DIRECTION)
            .filter(|id| !exclude.contains(id))
            .map(|id| {
                let free = self.free_at(Resource::Stream(direction, id));
                (free.max(at), std::cmp::Reverse(id))
            })
            .collect();
        scored.sort_unstable();
        scored.truncate(count as usize);
        let ready = scored.iter().map(|(t, _)| *t).fold(at, u64::max);
        let mut ids: Vec<u8> = scored.into_iter().map(|(_, id)| id.0).collect();
        ids.sort_unstable();
        (
            ids.into_iter()
                .map(|id| StreamId::new(id, direction))
                .collect(),
            ready,
        )
    }

    /// Picks an aligned group of `width` streams (for `SG4`/`SG16` operands):
    /// the aligned base whose group frees soonest (edge time, as
    /// [`ResourcePool::pick_streams_excluding`]). Among equals a 16-wide
    /// group takes the lowest base and narrower groups the highest, so result
    /// quads and single streams pack the top of the id space and leave a
    /// weight group's worth below them.
    #[must_use]
    pub fn pick_aligned_group(&self, direction: Direction, width: u8, at: u64) -> (u8, u64) {
        (0..STREAMS_PER_DIRECTION / width)
            .map(|g| g * width)
            .map(|base| {
                let free = (base..base + width)
                    .map(|id| self.free_at(Resource::Stream(direction, id)))
                    .fold(at, u64::max);
                (free, base)
            })
            .min_by_key(|&(free, base)| (free, if width < 16 { u8::MAX - base } else { base }))
            .map(|(free, base)| (base, free))
            .expect("at least one aligned base")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_resources_are_free_at_zero() {
        let p = ResourcePool::new();
        assert_eq!(p.free_at(Resource::MxmArray(2)), 0);
    }

    #[test]
    fn occupy_and_query() {
        let mut p = ResourcePool::new();
        p.occupy(Resource::MxmWeights(3), 60, 100);
        p.occupy(Resource::MxmWeights(3), 20, 50); // the horizon never moves backwards
        assert_eq!(p.free_at(Resource::MxmWeights(3)), 100);
        assert_eq!(p.free_at(Resource::MxmWeights(2)), 0);
    }

    /// The book keeps the idle cycles between bookings: a window as long as
    /// a gap fits in it, one a cycle longer goes past the horizon.
    #[test]
    fn a_window_takes_the_first_gap_long_enough() {
        let mut p = ResourcePool::new();
        let r = Resource::Queue(IcuId::Mem {
            hemisphere: tsp_arch::Hemisphere::East,
            index: 4,
        });
        let window = |p: &ResourcePool, n, at| p.first_window(&[(r, 0, n)], at);
        p.occupy(r, 0, 10);
        p.occupy(r, 30, 40);
        p.occupy(r, 50, 60);
        assert_eq!(p.free_at(r), 60);
        assert_eq!(window(&p, 20, 0), 10);
        assert_eq!(window(&p, 21, 0), 60);
        assert_eq!(window(&p, 10, 12), 12);
        assert_eq!(window(&p, 19, 12), 60);
        assert_eq!(window(&p, 5, 35), 40);
        // An offset claim: the window 25 cycles ahead of `t`, never before 0.
        assert_eq!(p.first_window(&[(r, -25, 20)], 0), 35);
        assert_eq!(p.first_window(&[(r, -25, 20)], 40), 85);
        // Touching bookings merge: no zero-length gap is left between them.
        p.occupy(r, 40, 50);
        assert_eq!(window(&p, 1, 30), 60);
        // A booking in a gap leaves the horizon where it was.
        p.occupy(r, 10, 20);
        assert_eq!(p.free_at(r), 60);
        assert_eq!(window(&p, 10, 0), 20);
        p.fence(70);
        assert_eq!(window(&p, 10, 0), 70);
    }

    #[test]
    fn pick_streams_prefers_free_ones() {
        let mut p = ResourcePool::new();
        for id in 0..4 {
            p.occupy(Resource::Stream(Direction::East, id), 0, 1000);
        }
        let (streams, ready) = p.pick_streams_excluding(Direction::East, 2, 5, &[]);
        assert_eq!(ready, 5);
        assert!(streams.iter().all(|s| s.id >= 4), "{streams:?}");
    }

    #[test]
    fn fence_floors_everything() {
        let mut p = ResourcePool::new();
        p.occupy(Resource::MxmArray(0), 0, 10);
        p.fence(100);
        assert_eq!(p.free_at(Resource::MxmArray(0)), 100);
        assert_eq!(p.free_at(Resource::MxmWeights(3)), 100);
        let (_, ready) = p.pick_streams_excluding(Direction::East, 1, 0, &[]);
        assert_eq!(ready, 100);
    }

    #[test]
    fn pick_aligned_group_respects_alignment() {
        let mut p = ResourcePool::new();
        // Make group base 0 busy; base 4 should win for width 4.
        p.occupy(Resource::Stream(Direction::West, 2), 0, 500);
        let (base, ready) = p.pick_aligned_group(Direction::West, 4, 0);
        assert_eq!(base % 4, 0);
        assert_ne!(base, 0);
        assert_eq!(ready, 0);
    }

    /// Rewinding to a mark takes back every booking since it — appended,
    /// extending the latest interval, inserted before it, widening one gap's
    /// neighbour or merged across several — and the fence; releasing one
    /// keeps its bookings.
    #[test]
    fn rewind_takes_back_what_was_booked_since_the_mark() {
        let r = Resource::MxmArray(1);
        let mut p = ResourcePool::new();
        p.occupy(r, 10, 20);
        p.occupy(r, 40, 50);
        let books = |p: &ResourcePool| p.books[&r].0.clone();
        let before = books(&p);
        let mark = p.mark();
        p.occupy(r, 45, 60); // extends
        p.occupy(r, 70, 80); // appends
        p.occupy(r, 20, 25); // widens the interval before the gap
        p.occupy(r, 0, 5); // inserts at the front
        p.occupy(r, 25, 75); // merges all but the front one
        p.fence(100);
        assert_eq!(books(&p), [(0, 5), (10, 80)]);
        p.rewind(mark);
        assert_eq!(books(&p), before);
        assert_eq!(p.floor(), 0);
        assert!(p.journal.is_empty() && !p.open);
        // Releasing keeps the bookings, and with no mark open nothing is
        // journaled.
        let mark = p.mark();
        p.occupy(r, 60, 70);
        p.release(mark);
        assert_eq!(books(&p), [(10, 20), (40, 50), (60, 70)]);
        p.occupy(r, 90, 95);
        assert!(p.journal.is_empty());
    }

    /// Claims on several books share one start: a window must be idle on
    /// every one of them, wherever their gaps lie.
    #[test]
    fn claims_share_a_window() {
        let mut p = ResourcePool::new();
        let stream = |id| Resource::Stream(Direction::East, id);
        let group = |n| [(stream(1), 0, n), (stream(2), 0, n), (stream(3), 0, n)];
        p.occupy(stream(1), 0, 50);
        p.occupy(stream(2), 60, 200);
        assert_eq!(p.first_window(&group(10), 0), 50);
        assert_eq!(p.first_window(&group(11), 0), 200);
        // The third stream's gap ends too early: on to the next one.
        p.occupy(stream(3), 55, 70);
        p.occupy(stream(3), 205, 230);
        assert_eq!(p.first_window(&group(10), 0), 230);
        assert_eq!(p.first_window(&[], 7), 7);
    }
}
