//! Tensor layout in the partitioned global address space.
//!
//! A compiler tensor is a sequence of `rows` 320-byte vectors (one memory
//! word each); `cols` of the 320 lanes are meaningful. Rows are stored
//! *block-contiguously*: consecutive rows occupy consecutive word addresses
//! within a slice, spilling into further slices in blocks. Contiguity is what
//! lets a single MEM slice stream one row per cycle with `Read` + `Repeat`
//! (addresses auto-increment), which is the fundamental operand-supply
//! pattern of the machine.
//!
//! A tensor consumed by several concurrent streams is *replicated* — one copy
//! per stream — because a slice has a single read port. Copies are cheap: the
//! producing chain's output stream can be tapped by any number of `Write`s at
//! different slices as it flows past (stream reads are non-destructive).

use tsp_arch::Hemisphere;
use tsp_isa::MemAddr;
use tsp_mem::GlobalAddress;

/// Where a tensor's rows live: equal-size blocks of consecutive words, each
/// block in one slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Per-block placement: hemisphere, slice index, first word.
    pub blocks: Vec<(Hemisphere, u8, u16)>,
    /// Rows per block (the last block may be partially used).
    pub rows_per_block: u32,
}

impl Layout {
    /// The address of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the layout.
    #[must_use]
    pub fn row(&self, r: u32) -> GlobalAddress {
        let block = (r / self.rows_per_block) as usize;
        let offset = r % self.rows_per_block;
        let (hemisphere, slice, base) = self.blocks[block];
        GlobalAddress::new(hemisphere, slice, MemAddr::new(base + offset as u16))
    }

    /// Total row capacity.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.blocks.len() as u32 * self.rows_per_block
    }

    /// The slices this layout touches.
    pub fn slices(&self) -> impl Iterator<Item = (Hemisphere, u8)> + '_ {
        self.blocks.iter().map(|&(h, s, _)| (h, s))
    }

    /// The same rows in blocks of half as many rows, each block's halves
    /// on its slice one after the other.
    ///
    /// # Panics
    ///
    /// Panics if the blocks hold an odd number of rows.
    #[must_use]
    pub(crate) fn halved(&self) -> Layout {
        let half = self.rows_per_block / 2;
        assert_eq!(2 * half, self.rows_per_block, "an odd block has no halves");
        Layout {
            blocks: (self.blocks.iter())
                .flat_map(|&(h, s, base)| [(h, s, base), (h, s, base + half as u16)])
                .collect(),
            rows_per_block: half,
        }
    }

    /// Splits a row range `[first, first+count)` into per-slice contiguous
    /// runs: `(hemisphere, slice, first word, first row index, rows)`.
    #[must_use]
    pub fn runs(&self, first: u32, count: u32) -> Vec<(Hemisphere, u8, u16, u32, u32)> {
        let mut out = Vec::new();
        let mut r = first;
        let end = first + count;
        while r < end {
            let block = (r / self.rows_per_block) as usize;
            let offset = r % self.rows_per_block;
            let run = (self.rows_per_block - offset).min(end - r);
            let (h, s, base) = self.blocks[block];
            out.push((h, s, base + offset as u16, r, run));
            r += run;
        }
        out
    }
}

/// A tensor the compiler can schedule reads/writes against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorHandle {
    /// Number of 320-byte row vectors.
    pub rows: u32,
    /// Meaningful lanes per row (1..=320).
    pub cols: u16,
    /// Where the rows live.
    pub layout: Layout,
}

impl TensorHandle {
    /// One `rows`-row tensor over the blocks of `chunks`, in order — the
    /// block-chunked outputs whose blocks are each allocated when their own
    /// write time is known.
    ///
    /// # Panics
    ///
    /// Panics if the chunks differ in block size or column count, or hold
    /// fewer than `rows` rows together.
    #[must_use]
    pub fn concat(chunks: &[TensorHandle], rows: u32) -> TensorHandle {
        let (cols, rows_per_block) = (chunks[0].cols, chunks[0].layout.rows_per_block);
        assert!(chunks
            .iter()
            .all(|c| (c.cols, c.layout.rows_per_block) == (cols, rows_per_block)));
        let blocks: Vec<_> = chunks
            .iter()
            .flat_map(|c| c.layout.blocks.iter().copied())
            .collect();
        assert!(
            blocks.len() as u32 * rows_per_block >= rows,
            "chunks too small"
        );
        TensorHandle {
            rows,
            cols,
            layout: Layout {
                blocks,
                rows_per_block,
            },
        }
    }

    /// The address of row `r`.
    #[must_use]
    pub fn row(&self, r: u32) -> GlobalAddress {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        self.layout.row(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout2() -> Layout {
        Layout {
            blocks: vec![(Hemisphere::East, 3, 100), (Hemisphere::West, 7, 0)],
            rows_per_block: 10,
        }
    }

    #[test]
    fn row_addressing_spans_blocks() {
        let l = layout2();
        assert_eq!(
            l.row(0),
            GlobalAddress::new(Hemisphere::East, 3, MemAddr::new(100))
        );
        assert_eq!(
            l.row(9),
            GlobalAddress::new(Hemisphere::East, 3, MemAddr::new(109))
        );
        assert_eq!(
            l.row(10),
            GlobalAddress::new(Hemisphere::West, 7, MemAddr::new(0))
        );
        assert_eq!(l.capacity(), 20);
    }

    #[test]
    fn runs_split_at_block_boundaries() {
        let l = layout2();
        let runs = l.runs(7, 8);
        assert_eq!(
            runs,
            vec![
                (Hemisphere::East, 3, 107, 7, 3),
                (Hemisphere::West, 7, 0, 10, 5),
            ]
        );
    }

    #[test]
    fn runs_within_one_block() {
        let l = layout2();
        assert_eq!(l.runs(2, 5), vec![(Hemisphere::East, 3, 102, 2, 5)]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_row_panics() {
        let t = TensorHandle {
            rows: 5,
            cols: 320,
            layout: layout2(),
        };
        let _ = t.row(5);
    }
}
