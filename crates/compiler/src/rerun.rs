//! The re-run contract: what a program needs of SRAM that neither it nor the
//! host writes, and what the host must put back before running it again on a
//! chip it has already run on.
//!
//! A program counts on fresh SRAM in one way only. [`Scheduler::zero_stale`]
//! clears a padding border only where the rows may hold a previous tenant's
//! data, and relies on the rest — the *fresh* rows, together with the
//! never-written rows it streams its zeros from — reading zero, as they do on
//! a new chip (set E, [`Scheduler::fresh_rows`]). Every other row the program
//! reads is a constant the host emplaced, the input the host writes, or a row
//! the program wrote earlier in the same run.
//!
//! A second run on the same chip finds E as the first run left it: the rows
//! of E that the first run's data `Write`s and `Scatter`s landed on (set W,
//! [`Scheduler::written_rows`]) hold activations. [`RestoreSet`] is what the
//! host writes before such a rerun so that it is bit-identical to a run on a
//! fresh chip: E ∩ W back to zero, and every constant row W landed on back to
//! what the emplace left there.
//!
//! [`Scheduler::zero_stale`]: crate::Scheduler::zero_stale
//! [`Scheduler::fresh_rows`]: crate::Scheduler::fresh_rows
//! [`Scheduler::written_rows`]: crate::Scheduler::written_rows

use tsp_arch::{Hemisphere, Vector, MEM_SLICES_PER_HEMISPHERE};
use tsp_isa::mem::WORDS_PER_SLICE;
use tsp_isa::MemAddr;
use tsp_mem::GlobalAddress;

use crate::sched::ConstantRows;
use crate::tensor::TensorHandle;

/// A set of SRAM rows, as runs of consecutive words of one slice: ascending,
/// disjoint and never adjacent on one slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowRuns {
    /// `(first, rows)`, each word at its [`linear`] index.
    runs: Vec<(u32, u32)>,
}

const WORDS: u32 = WORDS_PER_SLICE as u32;

/// Where `addr` sits on one line through every slice's words, slice by slice.
fn linear(addr: GlobalAddress) -> u32 {
    u32::from(addr.flat_slice()) * WORDS + u32::from(addr.word.word())
}

/// The address at `linear` index `at`.
fn address(at: u32) -> GlobalAddress {
    let slice = (at / WORDS) as u8;
    let hemisphere = Hemisphere::ALL[usize::from(slice / MEM_SLICES_PER_HEMISPHERE)];
    let word = MemAddr::new((at % WORDS) as u16);
    GlobalAddress::new(hemisphere, slice % MEM_SLICES_PER_HEMISPHERE, word)
}

impl RowRuns {
    /// The union of `runs` — `(first row, rows)` pairs, each within one
    /// slice, in any order, overlapping or not.
    #[must_use]
    pub fn from_runs(runs: impl IntoIterator<Item = (GlobalAddress, u32)>) -> RowRuns {
        let mut runs: Vec<(u32, u32)> = (runs.into_iter())
            .filter(|&(_, n)| n > 0)
            .map(|(a, n)| (linear(a), n))
            .collect();
        runs.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
        for (at, n) in runs {
            if let Some((start, m)) = merged.last_mut() {
                let end = *start + *m;
                if *start / WORDS == at / WORDS && at <= end {
                    *m = end.max(at + n) - *start;
                    continue;
                }
            }
            merged.push((at, n));
        }
        RowRuns { runs: merged }
    }

    /// The runs, ascending: each run's first row and its length.
    pub fn runs(&self) -> impl Iterator<Item = (GlobalAddress, u32)> + '_ {
        self.runs.iter().map(|&(at, n)| (address(at), n))
    }

    /// How many rows the set holds.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.runs.iter().map(|&(_, n)| u64::from(n)).sum()
    }

    /// Whether the set holds `addr`.
    #[must_use]
    pub fn contains(&self, addr: GlobalAddress) -> bool {
        let at = linear(addr);
        let i = self.runs.partition_point(|&(start, _)| start <= at);
        i > 0 && {
            let (start, n) = self.runs[i - 1];
            at < start + n
        }
    }

    /// The rows both sets hold.
    #[must_use]
    pub fn intersection(&self, other: &RowRuns) -> RowRuns {
        let (mut i, mut j) = (0, 0);
        let mut runs = Vec::new();
        while let (Some(&(a, n)), Some(&(b, m))) = (self.runs.get(i), other.runs.get(j)) {
            let (a_end, b_end) = (a + n, b + m);
            let (lo, hi) = (a.max(b), a_end.min(b_end));
            if lo < hi {
                runs.push((lo, hi - lo));
            }
            if a_end <= b_end {
                i += 1;
            } else {
                j += 1;
            }
        }
        RowRuns { runs }
    }

    /// Every row of the set, ascending.
    pub fn addresses(&self) -> impl Iterator<Item = GlobalAddress> + '_ {
        (self.runs.iter()).flat_map(|&(at, n)| (at..at + n).map(address))
    }
}

/// What the host writes before running a program again on a chip it has
/// already run on, so that the rerun sees SRAM as a fresh chip plus the
/// emplace left it (the contract in the [module docs](self)): the restore
/// set R.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreSet {
    /// Rows to clear: the fresh rows the run writes (E ∩ W), and the rows of
    /// a constant's allocation it does not ship that the run writes.
    pub zero: RowRuns,
    /// Shipped constant rows the run writes, each with its shipped value:
    /// written after the zeros.
    pub shipped: Vec<(GlobalAddress, Vector)>,
}

impl RestoreSet {
    /// R for a program whose fresh rows are `fresh` (E), whose data writes
    /// land on `written` (W), and which ships `constants`.
    #[must_use]
    pub fn new(
        fresh: &RowRuns,
        written: &RowRuns,
        constants: &[(TensorHandle, ConstantRows)],
    ) -> RestoreSet {
        let allocations = constants.iter().flat_map(|(handle, _)| {
            (handle.layout.runs(0, handle.rows).into_iter())
                .map(|(h, s, base, _, n)| (GlobalAddress::new(h, s, MemAddr::new(base)), n))
        });
        let overwritten = RowRuns::from_runs(allocations).intersection(written);
        let mut zero: Vec<_> = fresh.intersection(written).runs().collect();
        let mut shipped = Vec::new();
        // Nothing to look up on a program that keeps off its constants.
        for (handle, rows) in constants.iter().filter(|_| overwritten.rows() > 0) {
            let mut rows = rows.iter().peekable();
            for r in 0..handle.rows {
                let value = rows.next_if(|(i, _)| *i == r).map(|(_, v)| v);
                let addr = handle.row(r);
                if !overwritten.contains(addr) {
                    continue;
                }
                match value {
                    Some(v) => shipped.push((addr, v.clone())),
                    None => zero.push((addr, 1)),
                }
            }
        }
        RestoreSet {
            zero: RowRuns::from_runs(zero),
            shipped,
        }
    }

    /// Rows the host writes: one cycle each at the emplace's DMA rate.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.zero.rows() + self.shipped.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(h: Hemisphere, s: u8, w: u16) -> GlobalAddress {
        GlobalAddress::new(h, s, MemAddr::new(w))
    }

    #[test]
    fn runs_merge_within_a_slice_only() {
        let (e, w) = (Hemisphere::East, Hemisphere::West);
        let set = RowRuns::from_runs([
            (at(e, 3, 10), 5),
            (at(e, 3, 12), 6),
            (at(e, 3, 18), 2),
            (at(w, 0, 0), 1),
            (at(e, 3, 30), 0),
            (at(e, 2, 8190), 2),
            (at(e, 3, 0), 1),
        ]);
        assert_eq!(set.rows(), 2 + 1 + 10 + 1);
        assert!(set.contains(at(e, 3, 19)) && !set.contains(at(e, 3, 20)));
        assert!(set.contains(at(e, 2, 8191)) && set.contains(at(e, 3, 0)));
        assert!(!set.contains(at(e, 3, 1)) && !set.contains(at(w, 0, 1)));
        let rows: Vec<_> = set.addresses().collect();
        assert_eq!(rows.len(), 14);
        assert!(rows.iter().all(|&a| set.contains(a)));
    }

    #[test]
    fn intersection_is_the_rows_both_hold() {
        let e = Hemisphere::East;
        let a = RowRuns::from_runs([(at(e, 1, 0), 10), (at(e, 1, 20), 10), (at(e, 4, 5), 3)]);
        let b = RowRuns::from_runs([(at(e, 1, 5), 20), (at(e, 4, 0), 6)]);
        let both = a.intersection(&b);
        assert_eq!(
            both.runs().collect::<Vec<_>>(),
            [(at(e, 1, 5), 5), (at(e, 1, 20), 5), (at(e, 4, 5), 1)]
        );
        assert_eq!(both, b.intersection(&a));
        assert_eq!(a.intersection(&RowRuns::default()).rows(), 0);
    }
}
