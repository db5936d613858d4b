//! The slice/bank-aware memory allocator (paper §IV-A).
//!
//! "The compiler allocates memory for a tensor's concurrent stream operands
//! into separate MEM slices" — this allocator hands out block-contiguous
//! regions, spreading consecutive allocations across slices so concurrent
//! kernels find free read/write ports, and steering allocations into a bank
//! so static data (weights, maps) and activations do not collide
//! (paper §IV-C's optimization, our experiment E13).
//!
//! Regions are first-fit from per-slice free lists and can be **freed** —
//! the compiler explicitly manages tensor lifetimes (the paper's "thin layer
//! of memory management"). Temporal safety of reuse comes from port
//! scheduling: a slice's single instruction queue serializes the old reads
//! before any new writes into the recycled words. Recycled words keep their
//! old contents, though: SRAM starts out zero, and kernels that rely on rows
//! they never write being zero (a feature map's padding border) must clear
//! them where [`MemAllocator::is_dirty`] says so
//! (`Scheduler::zero_stale` does both, and records the rows it leaves to
//! fresh SRAM for a rerun's restore — see `crate::rerun`).

use tsp_arch::{Hemisphere, MEM_SLICES_PER_HEMISPHERE};

use crate::tensor::{Layout, TensorHandle};

/// Which SRAM bank an allocation should land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankPolicy {
    /// Word addresses 0..4095 (static data: weights, gather maps, text).
    Low,
    /// Word addresses 4096..8191 (activations; ping-pong against `Low`).
    High,
}

const BANK_WORDS: u16 = 4096;

/// Slices per hemisphere, counted from the VXM, that Low-bank (static) data
/// fills first; the outer ones keep their ports for activation streaming.
pub const LOW_INNER_SLICES: u8 = 32;

/// Free intervals `(start, len)` within one bank of one slice, kept sorted
/// and coalesced.
#[derive(Debug, Clone)]
struct FreeList {
    intervals: Vec<(u16, u16)>,
    /// Words at or above this address were never handed back, so (SRAM
    /// starting out zero) they still read as zero when first allocated.
    dirty_below: u16,
}

impl FreeList {
    fn new(start: u16) -> FreeList {
        FreeList {
            intervals: vec![(start, BANK_WORDS)],
            dirty_below: start,
        }
    }

    fn largest(&self) -> u16 {
        self.intervals.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    /// How many runs of `len` words [`FreeList::take`] can still hand out.
    fn holds(&self, len: u16) -> usize {
        (self.intervals.iter())
            .map(|&(_, l)| usize::from(l / len))
            .sum()
    }

    fn take(&mut self, len: u16) -> Option<u16> {
        let idx = self.intervals.iter().position(|&(_, l)| l >= len)?;
        let (start, avail) = self.intervals[idx];
        if avail == len {
            self.intervals.remove(idx);
        } else {
            self.intervals[idx] = (start + len, avail - len);
        }
        Some(start)
    }

    fn give(&mut self, start: u16, len: u16) {
        self.dirty_below = self.dirty_below.max(start + len);
        let pos = self
            .intervals
            .binary_search_by_key(&start, |&(s, _)| s)
            .unwrap_err();
        self.intervals.insert(pos, (start, len));
        // Coalesce with neighbours.
        if pos + 1 < self.intervals.len()
            && self.intervals[pos].0 + self.intervals[pos].1 == self.intervals[pos + 1].0
        {
            self.intervals[pos].1 += self.intervals[pos + 1].1;
            self.intervals.remove(pos + 1);
        }
        if pos > 0 && self.intervals[pos - 1].0 + self.intervals[pos - 1].1 == self.intervals[pos].0
        {
            self.intervals[pos - 1].1 += self.intervals[pos].1;
            self.intervals.remove(pos);
        }
    }
}

/// Per-slice allocation state.
#[derive(Debug, Clone)]
struct SliceState {
    low: FreeList,
    high: FreeList,
}

/// Allocates tensor storage across the 88 MEM slices.
#[derive(Debug, Clone)]
pub struct MemAllocator {
    slices: [Vec<SliceState>; 2],
    /// Rotates the starting slice between allocations to spread ports.
    cursor: usize,
}

/// The allocator ran out of SRAM in every eligible slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Rows that could not be placed.
    pub rows: u32,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "out of on-chip SRAM allocating {} rows", self.rows)
    }
}

impl std::error::Error for OutOfMemory {}

impl MemAllocator {
    /// A fresh allocator over an empty chip.
    #[must_use]
    pub fn new() -> MemAllocator {
        let fresh = || {
            (0..MEM_SLICES_PER_HEMISPHERE)
                .map(|_| SliceState {
                    low: FreeList::new(0),
                    high: FreeList::new(BANK_WORDS),
                })
                .collect::<Vec<_>>()
        };
        MemAllocator {
            slices: [fresh(), fresh()],
            cursor: 0,
        }
    }

    fn nth_slice(n: usize) -> (Hemisphere, u8) {
        let m = MEM_SLICES_PER_HEMISPHERE as usize;
        let n = n % (2 * m);
        if n < m {
            (Hemisphere::East, n as u8)
        } else {
            (Hemisphere::West, (n - m) as u8)
        }
    }

    fn nth_slice_in(h: Hemisphere, n: usize) -> (Hemisphere, u8) {
        (h, (n % MEM_SLICES_PER_HEMISPHERE as usize) as u8)
    }

    fn list(&mut self, h: Hemisphere, s: u8, policy: BankPolicy) -> &mut FreeList {
        let st = &mut self.slices[h.index()][s as usize];
        match policy {
            BankPolicy::Low => &mut st.low,
            BankPolicy::High => &mut st.high,
        }
    }

    /// Whether any of `tensor`'s words may hold a previous tenant's data
    /// (they lie in a region that has been freed before) rather than the
    /// zeros SRAM starts out with.
    #[must_use]
    pub fn is_dirty(&self, tensor: &TensorHandle) -> bool {
        tensor.layout.blocks.iter().any(|&(h, s, base)| {
            let st = &self.slices[h.index()][s as usize];
            let list = if base < BANK_WORDS { &st.low } else { &st.high };
            base < list.dirty_below
        })
    }

    /// Allocates `rows` rows (`cols` meaningful lanes) in blocks of at most
    /// `max_block` rows, each block in a fresh slice, starting from the
    /// round-robin cursor.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when no slice can hold a block.
    pub fn alloc(
        &mut self,
        rows: u32,
        cols: u16,
        policy: BankPolicy,
        max_block: u32,
    ) -> Result<TensorHandle, OutOfMemory> {
        self.alloc_in(None, rows, cols, policy, max_block)
    }

    /// Like [`MemAllocator::alloc`], optionally constrained to one hemisphere
    /// (a tensor feeding a single-stream burst into the VXM must sit entirely
    /// on one side of the chip so every row flows the same direction).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when no eligible slice can hold a block.
    pub fn alloc_in(
        &mut self,
        hemisphere: Option<Hemisphere>,
        rows: u32,
        cols: u16,
        policy: BankPolicy,
        max_block: u32,
    ) -> Result<TensorHandle, OutOfMemory> {
        self.alloc_avoiding(hemisphere, rows, cols, policy, max_block, &[])
    }

    /// Like [`MemAllocator::alloc_in`], refusing the slices in `avoid`.
    ///
    /// Tensors that are streamed *concurrently* (output replicas, int32 spill
    /// byte-planes) must be slice-disjoint — a slice has one read and one
    /// write port — so grouped allocations pass the group's slices here.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when no eligible slice can hold a block.
    pub fn alloc_avoiding(
        &mut self,
        hemisphere: Option<Hemisphere>,
        rows: u32,
        cols: u16,
        policy: BankPolicy,
        max_block: u32,
        avoid: &[(Hemisphere, u8)],
    ) -> Result<TensorHandle, OutOfMemory> {
        match self.alloc_avoiding_inner(hemisphere, rows, cols, policy, max_block, avoid, true) {
            Ok(t) => Ok(t),
            // The Low-bank slice-0..32 preference is best-effort: very large
            // models (ResNet-152's weights) spill into the outer slices.
            Err(_) if policy == BankPolicy::Low => {
                self.alloc_avoiding_inner(hemisphere, rows, cols, policy, max_block, avoid, false)
            }
            Err(e) => Err(e),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn alloc_avoiding_inner(
        &mut self,
        hemisphere: Option<Hemisphere>,
        rows: u32,
        cols: u16,
        policy: BankPolicy,
        max_block: u32,
        avoid: &[(Hemisphere, u8)],
        restrict_low: bool,
    ) -> Result<TensorHandle, OutOfMemory> {
        assert!(rows > 0, "zero-row tensor");
        assert!((1..=320).contains(&cols), "cols {cols} out of range");
        let rows_per_block = rows.min(max_block).max(1);
        if rows_per_block > u32::from(BANK_WORDS) {
            return Err(OutOfMemory { rows });
        }
        let nblocks = rows.div_ceil(rows_per_block);
        let mut blocks = Vec::with_capacity(nblocks as usize);
        let total_slices = match hemisphere {
            None => 2 * MEM_SLICES_PER_HEMISPHERE as usize,
            Some(_) => MEM_SLICES_PER_HEMISPHERE as usize,
        };
        for _ in 0..nblocks {
            let mut placed = false;
            for probe in 0..total_slices {
                let (h, s) = match hemisphere {
                    None => MemAllocator::nth_slice(self.cursor + probe),
                    Some(h) => MemAllocator::nth_slice_in(h, self.cursor + probe),
                };
                // Policy: static data (weights, maps — the Low bank) stays in
                // slices 0..32 so the outer twelve slices per hemisphere keep
                // their ports free for activation/spill streaming — otherwise
                // weight-read bursts touch every port on the chip and
                // stream-dictated writes can find no landing window.
                if restrict_low && policy == BankPolicy::Low && s >= LOW_INNER_SLICES {
                    continue;
                }
                if avoid.contains(&(h, s)) || blocks.iter().any(|&(bh, bs, _)| (bh, bs) == (h, s)) {
                    continue;
                }
                if let Some(base) = self.list(h, s, policy).take(rows_per_block as u16) {
                    blocks.push((h, s, base));
                    self.cursor = self.cursor + probe + 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Roll back what we grabbed.
                for (h, s, base) in blocks {
                    self.list(h, s, policy).give(base, rows_per_block as u16);
                }
                return Err(OutOfMemory { rows });
            }
        }
        Ok(TensorHandle {
            rows,
            cols,
            layout: Layout {
                blocks,
                rows_per_block,
            },
        })
    }

    /// Allocates one Low-bank tensor of `rows` rows per entry of `cols`, all
    /// of them block for block on the same inner slices
    /// ([`LOW_INNER_SLICES`]) of `hemisphere`, off `avoid` — the first from
    /// the cursor with room for a block of every tensor — or, when too few
    /// slices have, nothing. A set streamed toward one MXM is worth keeping
    /// in that MXM's hemisphere only together; stacked, its reads book one
    /// block's worth of queues, in the order they are wanted, and leave the
    /// hemisphere's other ports to whoever writes there meanwhile; and the
    /// outer slices are not taken even for that: they are where a model whose
    /// constants fill the bank (ResNet-152: 97 %) still finds write ports.
    pub(crate) fn alloc_low_stacked(
        &mut self,
        hemisphere: Hemisphere,
        rows: u32,
        cols: &[u16],
        max_block: u32,
        avoid: &[(Hemisphere, u8)],
    ) -> Option<Vec<TensorHandle>> {
        let rows_per_block = rows.min(max_block).max(1);
        let nblocks = rows.div_ceil(rows_per_block) as usize;
        let words = rows_per_block as u16;
        // The first slices from the cursor whose free runs hold a block of
        // every tensor, as `(probe, slice)`.
        let chosen: Vec<(usize, u8)> = (0..MEM_SLICES_PER_HEMISPHERE as usize)
            .map(|probe| {
                (
                    probe,
                    MemAllocator::nth_slice_in(hemisphere, self.cursor + probe).1,
                )
            })
            .filter(|&(_, s)| s < LOW_INNER_SLICES && !avoid.contains(&(hemisphere, s)))
            .filter(|&(_, s)| {
                self.slices[hemisphere.index()][s as usize].low.holds(words) >= cols.len()
            })
            .take(nblocks)
            .collect();
        if chosen.len() < nblocks {
            return None;
        }
        self.cursor += chosen[nblocks - 1].0 + 1;
        let mut tensors: Vec<TensorHandle> = (cols.iter())
            .map(|&cols| TensorHandle {
                rows,
                cols,
                layout: Layout {
                    blocks: Vec::with_capacity(nblocks),
                    rows_per_block,
                },
            })
            .collect();
        for (_, s) in chosen {
            let list = self.list(hemisphere, s, BankPolicy::Low);
            for tensor in &mut tensors {
                let base = list.take(words).expect("the slice holds the stack");
                tensor.layout.blocks.push((hemisphere, s, base));
            }
        }
        Some(tensors)
    }

    /// Allocates a tensor that must fit entirely in one slice (gather
    /// sources: the map addresses are slice-local).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if `rows` exceeds any slice's free space.
    pub fn alloc_single_slice(
        &mut self,
        rows: u32,
        cols: u16,
        policy: BankPolicy,
    ) -> Result<TensorHandle, OutOfMemory> {
        if rows > u32::from(BANK_WORDS) {
            return Err(OutOfMemory { rows });
        }
        self.alloc(rows, cols, policy, rows)
    }

    /// Returns a tensor's words to the free lists. The caller is responsible
    /// for *temporal* safety (see the module docs); standard practice is to
    /// free a tensor only after its last reader's schedule is placed.
    pub fn free(&mut self, tensor: &TensorHandle) {
        let rpb = tensor.layout.rows_per_block as u16;
        for &(h, s, base) in &tensor.layout.blocks {
            let policy = if base < BANK_WORDS {
                BankPolicy::Low
            } else {
                BankPolicy::High
            };
            self.list(h, s, policy).give(base, rpb);
        }
    }

    /// Remaining capacity in words (both banks, all slices).
    #[must_use]
    pub fn free_words(&self) -> u64 {
        self.slices
            .iter()
            .flatten()
            .map(|st| {
                st.low
                    .intervals
                    .iter()
                    .map(|&(_, l)| u64::from(l))
                    .sum::<u64>()
                    + st.high
                        .intervals
                        .iter()
                        .map(|&(_, l)| u64::from(l))
                        .sum::<u64>()
            })
            .sum()
    }

    /// The largest single block currently allocatable under a policy.
    #[must_use]
    pub fn largest_block(&self, policy: BankPolicy) -> u16 {
        self.slices
            .iter()
            .flatten()
            .map(|st| match policy {
                BankPolicy::Low => st.low.largest(),
                BankPolicy::High => st.high.largest(),
            })
            .max()
            .unwrap_or(0)
    }
}

impl Default for MemAllocator {
    fn default() -> MemAllocator {
        MemAllocator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_spread_across_slices() {
        let mut a = MemAllocator::new();
        let t1 = a.alloc(100, 320, BankPolicy::Low, 4096).unwrap();
        let t2 = a.alloc(100, 320, BankPolicy::Low, 4096).unwrap();
        assert_ne!(
            t1.layout.blocks[0].1, t2.layout.blocks[0].1,
            "consecutive allocations should use different slices"
        );
    }

    #[test]
    fn bank_policy_controls_addresses() {
        let mut a = MemAllocator::new();
        let low = a.alloc(10, 320, BankPolicy::Low, 4096).unwrap();
        let high = a.alloc(10, 320, BankPolicy::High, 4096).unwrap();
        assert!(low.row(0).word.word() < 4096);
        assert!(high.row(0).word.word() >= 4096);
        assert_eq!(low.row(0).word.bank(), 0);
        assert_eq!(high.row(0).word.bank(), 1);
    }

    #[test]
    fn large_tensor_splits_into_blocks() {
        let mut a = MemAllocator::new();
        let t = a.alloc(10_000, 320, BankPolicy::High, 4096).unwrap();
        assert_eq!(t.layout.blocks.len(), 3);
        assert_eq!(t.layout.rows_per_block, 4096);
        let _ = t.row(0);
        let _ = t.row(9_999);
    }

    #[test]
    fn single_slice_refuses_oversize() {
        let mut a = MemAllocator::new();
        assert!(a.alloc_single_slice(5000, 320, BankPolicy::Low).is_err());
        assert!(a.alloc_single_slice(4096, 320, BankPolicy::Low).is_ok());
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut a = MemAllocator::new();
        // Low-bank allocations prefer slices 0..32 and spill outward when
        // those fill; all 88 slices exhaust eventually.
        for _ in 0..88 {
            a.alloc(4096, 320, BankPolicy::Low, 4096).unwrap();
        }
        assert!(a.alloc(1, 320, BankPolicy::Low, 4096).is_err());
        assert!(a.alloc(1, 320, BankPolicy::High, 4096).is_ok());
    }

    #[test]
    fn low_bank_keeps_outer_slices_free() {
        let mut a = MemAllocator::new();
        for _ in 0..80 {
            let t = a.alloc(100, 320, BankPolicy::Low, 4096).unwrap();
            assert!(
                t.layout.slices().all(|(_, s)| s < 32),
                "constants leaked outward"
            );
        }
    }

    #[test]
    fn free_makes_memory_reusable() {
        let mut a = MemAllocator::new();
        let before = a.free_words();
        let tensors: Vec<_> = (0..88)
            .map(|_| a.alloc(4096, 320, BankPolicy::High, 4096).unwrap())
            .collect();
        assert!(a.alloc(4096, 320, BankPolicy::High, 4096).is_err());
        for t in &tensors {
            a.free(t);
        }
        assert_eq!(a.free_words(), before);
        assert!(a.alloc(4096, 320, BankPolicy::High, 4096).is_ok());
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut a = MemAllocator::new();
        // Fill one slice's high bank with 4 chunks, free them all, and check
        // a full-bank allocation fits again in that slice.
        let ts: Vec<_> = (0..4)
            .map(|_| {
                a.alloc_in(Some(Hemisphere::East), 1024, 320, BankPolicy::High, 1024)
                    .unwrap()
            })
            .collect();
        for t in &ts {
            a.free(t);
        }
        assert_eq!(a.largest_block(BankPolicy::High), 4096);
    }

    #[test]
    fn reused_words_are_dirty_fresh_ones_are_not() {
        let mut a = MemAllocator::new();
        let first = a
            .alloc_in(Some(Hemisphere::East), 100, 320, BankPolicy::High, 4096)
            .unwrap();
        assert!(!a.is_dirty(&first));
        a.free(&first);
        let (_, slice, _) = first.layout.blocks[0];
        let others: Vec<(Hemisphere, u8)> = (0..MEM_SLICES_PER_HEMISPHERE)
            .filter(|&s| s != slice)
            .map(|s| (Hemisphere::East, s))
            .collect();
        let alloc_there = |a: &mut MemAllocator, rows| {
            a.alloc_avoiding(
                Some(Hemisphere::East),
                rows,
                320,
                BankPolicy::High,
                4096,
                &others,
            )
            .unwrap()
        };
        let reused = alloc_there(&mut a, 50);
        assert!(a.is_dirty(&reused), "lies in the freed region");
        let beyond = alloc_there(&mut a, 80);
        assert!(a.is_dirty(&beyond), "starts inside the freed region");
        let fresh = alloc_there(&mut a, 10);
        assert!(!a.is_dirty(&fresh), "past everything ever freed");
    }

    #[test]
    fn capacity_accounting() {
        let mut a = MemAllocator::new();
        let before = a.free_words();
        let t = a.alloc(1000, 320, BankPolicy::Low, 4096).unwrap();
        assert_eq!(a.free_words(), before - 1000);
        a.free(&t);
        assert_eq!(a.free_words(), before);
    }
}
