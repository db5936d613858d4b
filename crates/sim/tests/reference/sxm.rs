//! Scalar oracle for `sxm_unit`: every transform one lane at a time.

use tsp_arch::{Vector, LANES, LANES_PER_SUPERLANE, SUPERLANES};
use tsp_isa::sxm::DistributeMap;
use tsp_isa::PermuteMap;

/// Oracle for `sxm_unit::shift_up`.
#[must_use]
pub fn shift_up(input: &Vector, n: u16) -> Vector {
    let n = n as usize;
    Vector::from_fn(|l| if l + n < LANES { input.lane(l + n) } else { 0 })
}

/// Oracle for `sxm_unit::shift_down`.
#[must_use]
pub fn shift_down(input: &Vector, n: u16) -> Vector {
    let n = n as usize;
    Vector::from_fn(|l| if l >= n { input.lane(l - n) } else { 0 })
}

/// Oracle for `sxm_unit::select`.
#[must_use]
pub fn select(north: &Vector, south: &Vector, boundary: u16) -> Vector {
    let b = boundary as usize;
    Vector::from_fn(|l| if l < b { north.lane(l) } else { south.lane(l) })
}

/// Oracle for `sxm_unit::permute`.
#[must_use]
pub fn permute(input: &Vector, map: &PermuteMap) -> Vector {
    Vector::from_fn(|i| input.lane(map.source(i)))
}

/// Oracle for `sxm_unit::distribute`.
#[must_use]
pub fn distribute(input: &Vector, map: &DistributeMap) -> Vector {
    let mut out = Vector::ZERO;
    for s in 0..SUPERLANES {
        let base = s * LANES_PER_SUPERLANE;
        for (l, m) in map.iter().enumerate() {
            if let Some(src) = m {
                out.set_lane(base + l, input.lane(base + *src as usize));
            }
        }
    }
    out
}

/// Oracle for `sxm_unit::rotate`.
#[must_use]
pub fn rotate(inputs: &[Vector], n: u8) -> Vec<Vector> {
    let n = n as usize;
    assert_eq!(inputs.len(), n, "rotate needs n input rows");
    let mut out = Vec::with_capacity(n * n);
    for row in inputs {
        for j in 0..n {
            out.push(Vector::from_fn(|l| row.lane((l + j) % LANES)));
        }
    }
    out
}

/// Oracle for `sxm_unit::transpose`.
#[must_use]
pub fn transpose(inputs: &[Vector]) -> Vec<Vector> {
    assert_eq!(inputs.len(), 16, "transpose is 16 streams wide");
    (0..16)
        .map(|i| {
            let mut out = Vector::ZERO;
            for s in 0..SUPERLANES {
                let base = s * LANES_PER_SUPERLANE;
                for (j, input) in inputs.iter().enumerate() {
                    out.set_lane(base + j, input.lane(base + i));
                }
            }
            out
        })
        .collect()
}
