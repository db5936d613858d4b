//! The books: when every contended hardware unit is next free.
//!
//! The compiler, not the hardware, resolves contention (paper §II). Each
//! schedulable unit is a [`Resource`]; the [`ResourcePool`] records when each
//! becomes free — one busy horizon per unit, a representation nothing outside
//! this file depends on. [`crate::sched::Scheduler`] keeps the only pool and
//! is the only one to read or write it: placing an instruction books its
//! queue, and kernels ask the scheduler's methods about the rest. Later
//! kernels overlap with earlier ones wherever their resource sets are
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
    /// One logical stream (id + direction), chip-wide. Its free time is kept
    /// in **edge time** — the cycle a value leaves the chip — which is
    /// constant along a value's flight, so two bursts never share a stream
    /// register iff their edge-time intervals are disjoint, wherever they
    /// were produced (see [`crate::sched::Scheduler::take_streams`]).
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

/// Tracks when each resource is next free.
#[derive(Debug, Clone, Default)]
pub struct ResourcePool {
    free_at: BTreeMap<Resource, u64>,
    /// Highest fence applied; resources never touched still respect it.
    floor: u64,
}

impl ResourcePool {
    /// A pool where everything is free at cycle 0.
    #[must_use]
    pub fn new() -> ResourcePool {
        ResourcePool::default()
    }

    /// The first cycle at which `r` is free.
    #[must_use]
    pub fn free_at(&self, r: Resource) -> u64 {
        self.free_at.get(&r).copied().unwrap_or(0).max(self.floor)
    }

    /// Marks `r` busy until `until` (exclusive).
    pub fn occupy(&mut self, r: Resource, until: u64) {
        let slot = self.free_at.entry(r).or_insert(0);
        *slot = (*slot).max(until);
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
        p.occupy(Resource::MxmWeights(3), 100);
        p.occupy(Resource::MxmWeights(3), 50); // never moves backwards
        assert_eq!(p.free_at(Resource::MxmWeights(3)), 100);
        assert_eq!(p.free_at(Resource::MxmWeights(2)), 0);
    }

    #[test]
    fn pick_streams_prefers_free_ones() {
        let mut p = ResourcePool::new();
        for id in 0..4 {
            p.occupy(Resource::Stream(Direction::East, id), 1000);
        }
        let (streams, ready) = p.pick_streams_excluding(Direction::East, 2, 5, &[]);
        assert_eq!(ready, 5);
        assert!(streams.iter().all(|s| s.id >= 4), "{streams:?}");
    }

    #[test]
    fn fence_floors_everything() {
        let mut p = ResourcePool::new();
        p.occupy(Resource::MxmArray(0), 10);
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
        p.occupy(Resource::Stream(Direction::West, 2), 500);
        let (base, ready) = p.pick_aligned_group(Direction::West, 4, 0);
        assert_eq!(base % 4, 0);
        assert_ne!(base, 0);
        assert_eq!(ready, 0);
    }
}
