//! Value semantics of the switch execution module (SXM).
//!
//! Pure vector transforms (paper §III-E): lane shifts with select, the
//! 320-lane permuter, the per-superlane distributor, the n×n rotation fan-out
//! and the 16×16 transposer. The chip simulator applies these at the SXM's
//! position with the ISA's timing; tests exercise them directly.
//!
//! ## Host-performance shape (DESIGN.md §9)
//!
//! Every transform here is a byte rearrangement, so the kernels are block
//! copies over the `[u8; 320]` planes — contiguous `copy_from_slice` runs for
//! shifts/select/rotate, and 16-lane superlane words (`[u8; 16]` on the wire)
//! for distribute/transpose — instead of one closure call per lane. The
//! per-lane oracles these kernels are checked against live in
//! `tests/reference/`, and share nothing with them.

use tsp_arch::{Vector, LANES, LANES_PER_SUPERLANE, SUPERLANES};
use tsp_isa::sxm::DistributeMap;
use tsp_isa::PermuteMap;

/// Lane-shift `n` northward (toward lane 0): output lane `l` reads input lane
/// `l + n`; the southern tail zero-fills.
#[must_use]
pub fn shift_up(input: &Vector, n: u16) -> Vector {
    let n = (n as usize).min(LANES);
    let mut out = Vector::ZERO;
    out.as_bytes_mut()[..LANES - n].copy_from_slice(&input.as_bytes()[n..]);
    out
}

/// Lane-shift `n` southward (toward lane 319): output lane `l` reads input
/// lane `l − n`; the northern head zero-fills.
#[must_use]
pub fn shift_down(input: &Vector, n: u16) -> Vector {
    let n = (n as usize).min(LANES);
    let mut out = Vector::ZERO;
    out.as_bytes_mut()[n..].copy_from_slice(&input.as_bytes()[..LANES - n]);
    out
}

/// Combine two (typically opposite-shifted) vectors: lanes `0..boundary` from
/// `north`, `boundary..320` from `south` (paper Fig. 8's select).
#[must_use]
pub fn select(north: &Vector, south: &Vector, boundary: u16) -> Vector {
    let b = (boundary as usize).min(LANES);
    let mut out = south.clone();
    out.as_bytes_mut()[..b].copy_from_slice(&north.as_bytes()[..b]);
    out
}

/// Apply a programmed 320-lane bijection: output lane `i` reads input lane
/// `map.source(i)`.
#[must_use]
pub fn permute(input: &Vector, map: &PermuteMap) -> Vector {
    let src = input.as_bytes();
    let mut out = Vector::ZERO;
    for (i, o) in out.as_bytes_mut().iter_mut().enumerate() {
        *o = src[map.source(i)];
    }
    out
}

/// Remap the 16 lanes within every superlane; `None` entries zero-fill
/// (zero-padding and filter rearrangement).
#[must_use]
pub fn distribute(input: &Vector, map: &DistributeMap) -> Vector {
    let mut out = Vector::ZERO;
    for s in 0..SUPERLANES {
        let word: [u8; LANES_PER_SUPERLANE] = input.superlane(s).try_into().expect("16-lane word");
        let dst = out.superlane_mut(s);
        for (d, m) in dst.iter_mut().zip(map.iter()) {
            if let Some(src) = m {
                *d = word[*src as usize];
            }
        }
    }
    out
}

/// Rotation fan-out: `n` input row streams produce `n²` outputs, where output
/// `i·n + j` is input row `i` rotated up (toward lane 0) by `j` lanes with
/// wraparound — every (row, column-offset) combination a pooling or
/// convolution window needs.
#[must_use]
pub fn rotate(inputs: &[Vector], n: u8) -> Vec<Vector> {
    let n = n as usize;
    assert_eq!(inputs.len(), n, "rotate needs n input rows");
    let mut out = Vec::with_capacity(n * n);
    for row in inputs {
        for j in 0..n {
            // `rotate_left(j)` puts input lane `(l + j) % LANES` at lane `l`.
            let mut v = row.clone();
            v.as_bytes_mut().rotate_left(j % LANES);
            out.push(v);
        }
    }
    out
}

/// Transpose 16×16 element blocks: within each superlane, output stream `i`'s
/// lane `j` reads input stream `j`'s lane `i`.
#[must_use]
pub fn transpose(inputs: &[Vector]) -> Vec<Vector> {
    assert_eq!(inputs.len(), 16, "transpose is 16 streams wide");
    let mut out = vec![Vector::ZERO; 16];
    for s in 0..SUPERLANES {
        let base = s * LANES_PER_SUPERLANE;
        for (j, input) in inputs.iter().enumerate() {
            let word = &input.as_bytes()[base..base + LANES_PER_SUPERLANE];
            for (i, &byte) in word.iter().enumerate() {
                out[i].as_bytes_mut()[base + j] = byte;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Vector {
        Vector::from_fn(|i| i as u8)
    }

    #[test]
    fn shift_up_moves_toward_lane_zero() {
        let v = shift_up(&ramp(), 3);
        assert_eq!(v.lane(0), 3);
        assert_eq!(v.lane(100), 103);
        assert_eq!(v.lane(317), 0); // zero-filled tail
        assert_eq!(v.lane(319), 0);
    }

    #[test]
    fn shift_down_moves_toward_lane_319() {
        let v = shift_down(&ramp(), 2);
        assert_eq!(v.lane(0), 0); // zero-filled head
        assert_eq!(v.lane(1), 0);
        assert_eq!(v.lane(2), 0);
        assert_eq!(v.lane(100), 98);
    }

    #[test]
    fn shifts_compose_to_identity_in_the_middle() {
        let v = shift_down(&shift_up(&ramp(), 5), 5);
        for l in 5..315 {
            assert_eq!(v.lane(l), l as u8);
        }
    }

    #[test]
    fn oversized_shift_zero_fills_like_reference() {
        let whole = LANES as u16;
        assert_eq!(shift_up(&ramp(), whole), Vector::ZERO);
        assert_eq!(shift_down(&ramp(), whole + 7), Vector::ZERO);
    }

    #[test]
    fn select_splices_at_boundary() {
        let north = Vector::splat(1);
        let south = Vector::splat(2);
        let v = select(&north, &south, 160);
        assert_eq!(v.lane(159), 1);
        assert_eq!(v.lane(160), 2);
    }

    #[test]
    fn permute_applies_bijection() {
        let map = PermuteMap::rotation(1);
        let v = permute(&ramp(), &map);
        assert_eq!(v.lane(0), 1);
        assert_eq!(v.lane(319), 0); // wraps
    }

    #[test]
    fn permute_identity_is_noop() {
        assert_eq!(permute(&ramp(), &PermuteMap::identity()), ramp());
    }

    #[test]
    fn distribute_replicates_and_zero_fills() {
        let mut map: DistributeMap = [None; 16];
        map[0] = Some(0);
        map[1] = Some(0); // replicate lane 0
        let v = distribute(&ramp(), &map);
        // Superlane 0: lanes 0,1 = input lane 0; rest zero.
        assert_eq!(v.lane(0), 0);
        assert_eq!(v.lane(1), 0);
        assert_eq!(v.lane(2), 0);
        // Superlane 3 (base 48): lanes 48,49 = input lane 48.
        assert_eq!(v.lane(48), 48);
        assert_eq!(v.lane(49), 48);
        assert_eq!(v.lane(50), 0);
    }

    #[test]
    fn rotate_produces_all_offsets() {
        let rows = vec![ramp(), Vector::splat(7), Vector::splat(9)];
        let out = rotate(&rows, 3);
        assert_eq!(out.len(), 9);
        // Output 0 = row 0 unrotated; output 1 = row 0 rotated by 1.
        assert_eq!(out[0], ramp());
        assert_eq!(out[1].lane(0), 1);
        assert_eq!(out[2].lane(0), 2);
        // Outputs 3..6 are row 1 (constant, rotation-invariant).
        assert_eq!(out[3], Vector::splat(7));
        assert_eq!(out[5], Vector::splat(7));
    }

    #[test]
    fn transpose_is_involution() {
        let inputs: Vec<Vector> = (0..16)
            .map(|s| Vector::from_fn(|l| (s * 16 + l % 16) as u8))
            .collect();
        let t = transpose(&inputs);
        // Element (i, j) of superlane 0: t[i].lane(j) == inputs[j].lane(i).
        for (i, ti) in t.iter().enumerate() {
            for (j, inp) in inputs.iter().enumerate() {
                assert_eq!(ti.lane(j), inp.lane(i));
            }
        }
        assert_eq!(transpose(&t), inputs);
    }

    #[test]
    fn transpose_acts_per_superlane() {
        // Superlane 4 data should transpose within superlane 4, not leak.
        let inputs: Vec<Vector> = (0..16)
            .map(|s| {
                let mut v = Vector::ZERO;
                v.set_lane(4 * 16 + 2, (s + 1) as u8);
                v
            })
            .collect();
        let t = transpose(&inputs);
        // Input stream j's lane (64+2) lands in output stream 2's lane 64+j.
        for j in 0..16 {
            assert_eq!(t[2].lane(64 + j), (j + 1) as u8);
        }
    }
}
