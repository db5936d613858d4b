//! Switch execution module (SXM) instructions: transposition, permutation,
//! shifting and rotation of vector elements (paper §III-E, Table I).
//!
//! The SXM moves data in the Y (lane) dimension, complementing the MEM
//! system's X-dimension stream flow; together they form the chip's X–Y
//! on-chip network. Lane shifters come in north/south pairs combined with a
//! `Select`; a permuter applies a programmed bijection over all 320 lanes; a
//! distributor remaps the 16 lanes within each superlane (with zero-fill,
//! serving zero-padding and 4×4-filter rearrangement); `Rotate` fans one
//! window of rows out into all n² rotations for pooling/convolution windows;
//! and `Transpose` exchanges rows and columns of 16×16 element blocks.

use core::fmt;
use std::sync::Arc;

use tsp_arch::{StreamId, StreamRange, LANES, LANES_PER_SUPERLANE};

/// A programmed bijection over the 320 lanes, shared immutably (it is large
/// enough that instruction values should stay cheap to clone).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PermuteMap(Arc<[u16; LANES]>);

impl PermuteMap {
    /// Creates a permutation map. `map[i]` is the *source* lane for output
    /// lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a bijection over `0..320`.
    #[must_use]
    pub fn new(map: [u16; LANES]) -> PermuteMap {
        let mut seen = [false; LANES];
        for &src in &map {
            assert!((src as usize) < LANES, "permute source {src} out of range");
            assert!(!seen[src as usize], "permute map is not a bijection");
            seen[src as usize] = true;
        }
        PermuteMap(Arc::new(map))
    }

    /// The identity permutation.
    #[must_use]
    pub fn identity() -> PermuteMap {
        let mut map = [0u16; LANES];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as u16;
        }
        PermuteMap(Arc::new(map))
    }

    /// A lane rotation by `k` (output lane `i` reads input lane `(i+k) % 320`).
    #[must_use]
    pub fn rotation(k: usize) -> PermuteMap {
        let mut map = [0u16; LANES];
        for (i, m) in map.iter_mut().enumerate() {
            *m = ((i + k) % LANES) as u16;
        }
        PermuteMap(Arc::new(map))
    }

    /// Source lane for output lane `i`.
    #[must_use]
    pub fn source(&self, i: usize) -> usize {
        self.0[i] as usize
    }

    /// The raw map.
    #[must_use]
    pub fn as_array(&self) -> &[u16; LANES] {
        &self.0
    }
}

impl fmt::Debug for PermuteMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PermuteMap[{}, {}, {}, ..]",
            self.0[0], self.0[1], self.0[2]
        )
    }
}

/// Per-superlane distributor map: for each of the 16 output lanes of a
/// superlane, either the source lane within that superlane or zero-fill.
///
/// The same map applies to every superlane (paper: "rearrange or replicate
/// data within a superlane"), which is exactly what zero padding and 4×4
/// filter rearrangement need.
pub type DistributeMap = [Option<u8>; LANES_PER_SUPERLANE];

/// SXM instructions (paper Table I, "SXM" rows).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SxmOp {
    /// Lane-shift a stream `n` lanes northward (toward lane 0): output lane
    /// `l` reads input lane `l + n`; the southern tail zero-fills.
    ShiftUp {
        /// Shift distance in lanes.
        n: u16,
        /// Input stream.
        src: StreamId,
        /// Output stream.
        dst: StreamId,
    },
    /// Lane-shift a stream `n` lanes southward (toward lane 319): output lane
    /// `l` reads input lane `l - n`; the northern head zero-fills.
    ShiftDown {
        /// Shift distance in lanes.
        n: u16,
        /// Input stream.
        src: StreamId,
        /// Output stream.
        dst: StreamId,
    },
    /// Select between north-shifted and south-shifted vectors (paper Fig. 8):
    /// output lanes below `boundary` come from `north`, the rest from `south`.
    Select {
        /// Stream supplying lanes `0..boundary`.
        north: StreamId,
        /// Stream supplying lanes `boundary..320`.
        south: StreamId,
        /// First lane taken from `south`.
        boundary: u16,
        /// Output stream.
        dst: StreamId,
    },
    /// Apply a programmed bijection remapping all 320 lanes.
    Permute {
        /// The bijection (`map[i]` = source lane of output lane `i`).
        map: PermuteMap,
        /// Input stream.
        src: StreamId,
        /// Output stream.
        dst: StreamId,
    },
    /// Rearrange or replicate data within each superlane, with zero-fill.
    Distribute {
        /// Per-superlane output-lane map; `None` zero-fills.
        map: DistributeMap,
        /// Input stream.
        src: StreamId,
        /// Output stream.
        dst: StreamId,
    },
    /// Fan `n` input row streams out into all n² lane rotations: output
    /// stream `i·n + j` carries input row `i` rotated up by `j` lanes —
    /// the window fan-out used by 3×3/4×4 pooling and convolution.
    Rotate {
        /// Window size (3 or 4).
        n: u8,
        /// `n` consecutive input streams (rows).
        src: StreamRange,
        /// `n²` consecutive output streams.
        dst: StreamRange,
    },
    /// Transpose 16×16 element blocks: 16 input streams produce 16 output
    /// streams with rows and columns interchanged within each superlane.
    Transpose {
        /// 16 consecutive input streams.
        src: StreamRange,
        /// 16 consecutive output streams.
        dst: StreamRange,
    },
}

impl SxmOp {
    /// Validates the stream-shape invariants (rotate fan-out, transpose width).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SxmOp::Rotate { n, src, dst } => {
                if !matches!(n, 3 | 4) {
                    return Err(format!("rotate window n={n} (must be 3 or 4)"));
                }
                if src.len != *n {
                    return Err(format!("rotate needs {n} input rows, got {}", src.len));
                }
                if dst.len != n * n {
                    return Err(format!(
                        "rotate produces {}*{} streams, got {}",
                        n, n, dst.len
                    ));
                }
                Ok(())
            }
            SxmOp::Transpose { src, dst } => {
                if src.len != 16 || dst.len != 16 {
                    return Err(format!(
                        "transpose is 16x16 (got {} in, {} out)",
                        src.len, dst.len
                    ));
                }
                Ok(())
            }
            SxmOp::Select { boundary, .. } => {
                if *boundary as usize > LANES {
                    return Err(format!("select boundary {boundary} > 320"));
                }
                Ok(())
            }
            SxmOp::ShiftUp { n, .. } | SxmOp::ShiftDown { n, .. } => {
                if *n as usize >= LANES {
                    return Err(format!("shift distance {n} >= 320"));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permute_rejects_non_bijection() {
        let mut map = [0u16; LANES];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as u16;
        }
        map[5] = 4; // duplicate source
        let result = std::panic::catch_unwind(|| PermuteMap::new(map));
        assert!(result.is_err());
    }

    #[test]
    fn rotation_map_wraps() {
        let m = PermuteMap::rotation(3);
        assert_eq!(m.source(0), 3);
        assert_eq!(m.source(319), 2);
    }

    #[test]
    fn rotate_shape_validation() {
        let good = SxmOp::Rotate {
            n: 3,
            src: StreamRange::new(StreamId::east(0), 3),
            dst: StreamRange::new(StreamId::east(3), 9),
        };
        assert!(good.validate().is_ok());

        let bad = SxmOp::Rotate {
            n: 3,
            src: StreamRange::new(StreamId::east(0), 3),
            dst: StreamRange::new(StreamId::east(3), 8),
        };
        assert!(bad.validate().is_err());

        let bad_n = SxmOp::Rotate {
            n: 5,
            src: StreamRange::new(StreamId::east(0), 5),
            dst: StreamRange::new(StreamId::east(5), 25),
        };
        assert!(bad_n.validate().is_err());
    }

    #[test]
    fn transpose_must_be_16_wide() {
        let bad = SxmOp::Transpose {
            src: StreamRange::new(StreamId::east(0), 8),
            dst: StreamRange::new(StreamId::east(8), 8),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn shift_distance_bounded() {
        let bad = SxmOp::ShiftUp {
            n: 320,
            src: StreamId::east(0),
            dst: StreamId::east(1),
        };
        assert!(bad.validate().is_err());
    }
}
