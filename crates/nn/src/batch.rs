//! Batched serving surface: one compiled model, N requests, weights resident.
//!
//! The paper's host "emplaces the model and bootstraps execution" (§II): the
//! expensive step of an inference is streaming the weights over PCIe, not the
//! deterministic on-chip run. A serving layer therefore batches compatible
//! requests (same model, same compile options) and keeps the model resident
//! on each chip — the weights stay in SRAM from one batch to the next.
//!
//! [`BatchModel`] packages that contract for `tsp-serve`:
//!
//! * the underlying program comes from [`compile_cached`], so every pool
//!   worker shares one immutable [`CompiledModel`] (and its memoized decoded
//!   program) without recompiling;
//! * each request is charged, before its first attempt, the cycles that
//!   readied its chip: [`CompiledModel::restore_cycles`] on the chip the
//!   model stayed resident on ([`CompiledModel::restore`] puts back the rows
//!   the last run disturbed, so that a rerun is bit-identical to a fresh
//!   chip's run), [`CompiledModel::emplace_cycles`] on a new chip — a pool
//!   member's first request, and the first after a request that dropped
//!   its chip. Each retry is charged one more emplace (a
//!   retry-from-weights emplaces onto a new chip);
//! * `tsp-serve` runs a batch's requests back to back on the chip's
//!   [`ResidentChip`](crate::resilient::ResidentChip), each through
//!   [`run_resilient`](crate::resilient::run_resilient), which keeps a chip
//!   only after an unstruck, completing attempt — so a batch member's fault
//!   can never corrupt its neighbours, and logits stay bit-identical to a
//!   serial fault-free oracle whenever a request succeeds.

use std::sync::Arc;

use tsp_arch::Hemisphere;

use crate::compile::{compile_cached, CompileOptions, CompiledModel, InputKind};
use crate::quant::QuantGraph;

/// A compiled model plus its serving batch bound.
#[derive(Debug, Clone)]
pub struct BatchModel {
    /// The shared compiled model (program, constants, I/O locations).
    pub model: Arc<CompiledModel>,
    /// Most requests one dispatch may carry.
    pub max_batch: usize,
}

/// [`compile_cached`] composed with the batch bound: repeated calls with an
/// identical quantized graph and options share one compiled program.
///
/// # Panics
///
/// Panics where `compile` panics, and if `max_batch` is zero.
#[must_use]
pub fn compile_batch_cached(
    q: &QuantGraph,
    options: &CompileOptions,
    max_batch: usize,
) -> BatchModel {
    assert!(max_batch >= 1, "a batch holds at least one request");
    BatchModel {
        model: compile_cached(q, options),
        max_batch,
    }
}

impl BatchModel {
    /// The SRAM site of the first word of the model's input storage — where
    /// a chaos campaign aims a *guaranteed-consumed* strike (the schedule
    /// always streams the input, so a double-bit flip here is always an
    /// uncorrectable detection, never silently vacant).
    #[must_use]
    pub fn input_site(&self) -> (Hemisphere, u8, u16) {
        let target = match &self.model.input {
            InputKind::Map(fm) => &fm.parts[0][0],
            InputKind::Im2col { chunks, .. } => &chunks[0],
        };
        target.layout.blocks[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic;
    use crate::quant::quantize;
    use crate::train::small_cnn;

    #[test]
    fn emplace_cost_and_input_site_are_deterministic() {
        let data = synthetic(11, 12, 12, 2, 4, 6);
        let (g, params) = small_cnn(12, 16, 4, 5);
        let q = quantize(&g, &params, &data.images[..2]);
        let batch = compile_batch_cached(&q, &CompileOptions::default(), 4);
        assert!(batch.model.emplace_cycles() > 0, "constants exist");
        assert_eq!(batch.model.emplace_cycles(), batch.model.emplace_cycles());
        assert_eq!(batch.input_site(), batch.input_site());
    }
}
