//! Open-loop load generation: seeded Poisson arrivals with deadlines.
//!
//! Open-loop means arrivals do not wait for responses — the generator
//! models "millions of users" who keep clicking whether or not the service
//! keeps up, which is the regime where admission control earns its keep
//! (a closed-loop generator can never overload the server, so it can never
//! observe load shedding).
//!
//! Arrivals are a Poisson process: exponential inter-arrival gaps drawn
//! from a seeded ChaCha8 stream, quantized to whole cycles. Everything is
//! a pure function of the [`LoadSpec`], so a sweep point is reproducible
//! from its spec alone.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::request::Request;

/// One open-loop traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// RNG seed: same spec, same trace.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Mean inter-arrival gap in cycles (1/λ — smaller is more offered
    /// load), ≥ 1.
    pub mean_interarrival: f64,
    /// Deadline budget granted to every request, in cycles.
    pub deadline: u64,
    /// Size of the shared input set requests index into, ≥ 1.
    pub inputs: usize,
}

/// Generates the spec's request trace: ids `0..requests`, arrivals sorted
/// and strictly compatible with [`crate::serve`]'s `(arrival, id)` order,
/// inputs drawn uniformly from the shared set.
///
/// # Panics
///
/// Panics if `mean_interarrival < 1.0` or `inputs == 0`.
#[must_use]
pub fn open_loop(spec: &LoadSpec) -> Vec<Request> {
    assert!(
        spec.mean_interarrival >= 1.0,
        "mean inter-arrival below one cycle"
    );
    assert!(spec.inputs >= 1, "need at least one input");
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut now = 0u64;
    (0..spec.requests as u64)
        .map(|id| {
            // Inverse-CDF exponential gap; `1.0 - u` keeps ln's argument in
            // (0, 1]. Quantized to at least 0 cycles — simultaneous
            // arrivals are legal (ids break the tie).
            let u: f64 = rng.gen_range(0.0..1.0);
            // A gap past `u64::MAX` cycles (a huge or infinite mean)
            // saturates, and so does the clock: late arrivals pile up at
            // `u64::MAX`, ordered by id.
            let gap = (-(1.0 - u).ln() * spec.mean_interarrival).round() as u64;
            now = now.saturating_add(gap);
            Request {
                id,
                arrival: now,
                deadline: spec.deadline,
                input: rng.gen_range(0..spec.inputs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LoadSpec {
        LoadSpec {
            seed: 42,
            requests: 500,
            mean_interarrival: 100.0,
            deadline: 5_000,
            inputs: 8,
        }
    }

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let a = open_loop(&spec());
        let b = open_loop(&spec());
        assert_eq!(a, b, "same spec, same trace");
        for pair in a.windows(2) {
            assert!((pair[0].arrival, pair[0].id) < (pair[1].arrival, pair[1].id));
        }
        assert!(a.iter().all(|r| r.input < 8 && r.deadline == 5_000));
    }

    #[test]
    fn mean_gap_tracks_the_spec() {
        let trace = open_loop(&spec());
        let span = trace.last().expect("nonempty").arrival as f64;
        let mean = span / (trace.len() - 1) as f64;
        // Exponential sampling noise at n=500 stays well within ±20%.
        assert!(
            (mean - 100.0).abs() < 20.0,
            "observed mean gap {mean:.1} far from 100"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = open_loop(&spec());
        let b = open_loop(&LoadSpec { seed: 43, ..spec() });
        assert_ne!(a, b);
    }
}
