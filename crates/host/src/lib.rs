//! # tsp-host — host-side parallel execution primitives
//!
//! The workspace's one concurrency toolkit, shared by the experiment harness
//! (`tsp-bench`, which fans independent experiment points over host threads)
//! and the serving layer (`tsp-serve`, which dispatches request batches
//! across a chip pool). The multi-chip fabric (`tsp-c2c`) does not use it:
//! its cascade runs one chip at a time. It is dependency-free and
//! deliberately small: plain [`std::thread::scope`] plus an atomic work
//! counter — no channels, no work-stealing, no runtime.
//!
//! Everything here preserves the workspace's determinism thesis: results are
//! always returned **in input order**, so callers that merge them
//! sequentially produce byte-identical output no matter how the host
//! schedules the workers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker closure panicked while processing one input.
///
/// `fan_out` used to let the panic tear through the scoped pool, killing the
/// whole batch with no indication of *which* input was poisoned. Both entry
/// points now catch the unwind and attribute it: [`try_fan_out`] returns this
/// as a structured error, and [`fan_out`] re-panics with the same attribution
/// in its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the input whose worker panicked (the lowest such index when
    /// several inputs panic — every input is still processed, so the choice
    /// is deterministic for a deterministic closure).
    pub index: usize,
    /// The panic payload, rendered (`&str` / `String` payloads verbatim;
    /// anything else is summarized).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on input {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-slot state: the unclaimed input, then the worker's outcome.
type Slot<I, T> = Mutex<(Option<I>, Option<Result<T, String>>)>;

/// The shared pool loop: every input is processed (panics caught per input),
/// every outcome lands in its input's slot, in input order.
fn run_pool<I, T, F>(inputs: Vec<I>, f: F) -> Vec<Result<T, String>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = inputs.len();
    let catching = |input| catch_unwind(AssertUnwindSafe(|| f(input))).map_err(panic_message);
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(n);
    if workers <= 1 {
        // Single-slot (or single-core) work: skip thread spawn entirely.
        return inputs.into_iter().map(catching).collect();
    }
    let slots: Vec<Slot<I, T>> = inputs
        .into_iter()
        .map(|input| Mutex::new((Some(input), None)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (slots, next, catching) = (&slots, &next, &catching);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let input = slot.lock().unwrap().0.take().expect("claimed once");
                let result = catching(input);
                slot.lock().unwrap().1 = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().1.expect("scope joins every worker"))
        .collect()
}

/// Runs `f` over every input on a bounded pool of scoped threads and
/// returns the results **in input order**, or a [`WorkerPanic`] naming the
/// first input whose worker panicked.
///
/// The pool is capped at [`std::thread::available_parallelism`] (each worker
/// typically simulates a whole chip, so oversubscribing a small host just
/// thrashes its allocator), and workers claim inputs dynamically, so
/// heterogeneous work items (ResNet-152 next to ResNet-50) still balance.
/// Every result lands in its input's slot; the scope joins everything before
/// returning, so the caller sees a completed, ordered `Vec`.
///
/// Because every TSP simulation is deterministic (paper §IV-F) and the
/// workers share nothing but read-only data, the results — and therefore any
/// report printed from them — cannot depend on thread count or interleaving.
/// A panic in a worker is caught per input: the remaining inputs are still
/// processed, and the error names the lowest panicking index, so the
/// attribution is deterministic too.
///
/// # Errors
///
/// [`WorkerPanic`] if `f` panicked on any input.
pub fn try_fan_out<I, T, F>(inputs: Vec<I>, f: F) -> Result<Vec<T>, WorkerPanic>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let mut out = Vec::with_capacity(inputs.len());
    for (index, result) in run_pool(inputs, f).into_iter().enumerate() {
        match result {
            Ok(value) => out.push(value),
            Err(message) => return Err(WorkerPanic { index, message }),
        }
    }
    Ok(out)
}

/// Runs `f` over every input on a bounded pool of scoped threads and
/// returns the results **in input order** (see [`try_fan_out`] for the pool
/// mechanics and determinism contract).
///
/// # Panics
///
/// If `f` panics on any input — with the input index and the original
/// payload in the message, instead of the bare payload unwinding out of the
/// scoped pool.
pub fn fan_out<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    match try_fan_out(inputs, f) {
        Ok(out) => out,
        Err(e) => panic!("fan_out {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_input_order() {
        let squares = fan_out((0u64..20).collect(), |i| i * i);
        assert_eq!(squares, (0u64..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_handles_empty_and_single() {
        assert_eq!(fan_out(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(fan_out(vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    fn fan_out_balances_more_inputs_than_workers() {
        // 200 inputs on however many cores the host has: every slot filled,
        // in order.
        let doubled = fan_out((0u32..200).collect(), |i| i * 2);
        assert_eq!(doubled, (0u32..200).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_moves_mutable_state_through_workers() {
        // The tsp-c2c usage pattern: whole owned values (chips) move into the
        // workers, are mutated, and come back in input order.
        let out = fan_out((0u64..32).map(|i| vec![i]).collect(), |mut v: Vec<u64>| {
            v.push(v[0] * 10);
            v
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v[..], [i as u64, i as u64 * 10]);
        }
    }

    #[test]
    fn try_fan_out_attributes_panics_to_the_lowest_input_index() {
        let err = try_fan_out((0u32..64).collect(), |i| {
            assert!(i != 9 && i != 41, "poisoned input {i}");
            i * 2
        })
        .expect_err("poisoned inputs must surface");
        assert_eq!(err.index, 9, "lowest panicking index wins: {err}");
        assert!(err.message.contains("poisoned input 9"), "{err}");
    }

    #[test]
    fn try_fan_out_succeeds_without_panics() {
        let out = try_fan_out((0u32..10).collect(), |i| i + 1).expect("clean run");
        assert_eq!(out, (1u32..11).collect::<Vec<_>>());
    }

    #[test]
    fn try_fan_out_attributes_single_input_panics() {
        // The workers == 1 fast path must catch and attribute too.
        let err = try_fan_out(vec![5u8], |_| -> u8 { panic!("lone failure") })
            .expect_err("panic must surface");
        assert_eq!(err.index, 0);
        assert!(err.message.contains("lone failure"));
    }

    #[test]
    fn fan_out_panics_with_attribution() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(vec![1u8, 2, 3], |i| {
                assert!(i != 2, "bad item");
                i
            })
        })
        .expect_err("must panic");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("input 1"), "attributed: {message}");
    }
}
