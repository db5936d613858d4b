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
//! * [`BatchModel::emplace_cycles`] is the deterministic model-emplace cost
//!   (one shipped constants row per cycle — the DMA bound), charged when a
//!   chip first receives the model, again after a batch that was struck or
//!   failed (its chip is dropped), and once more per retry (a
//!   retry-from-weights emplaces onto a new chip);
//! * [`BatchModel::restore_cycles`] is what every other run costs on top of
//!   its own cycles: [`CompiledModel::restore`] puts back the rows the last
//!   run disturbed, so that a rerun is bit-identical to a fresh chip's run;
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
    /// Simulated cycles to emplace the model's constants (weights, identity
    /// matrices): one 320-byte row per cycle, the PCIe-DMA bound of the
    /// paper's host runtime, for the rows that hold data — the rows
    /// [`CompiledModel::load_constants`] writes. Deterministic — a pure
    /// function of the compile.
    #[must_use]
    pub fn emplace_cycles(&self) -> u64 {
        self.model
            .constants
            .iter()
            .map(|(_, rows)| rows.len() as u64)
            .sum()
    }

    /// Simulated cycles to ready a chip the model already ran on for its next
    /// run ([`CompiledModel::restore_cycles`]), at the emplace's DMA rate.
    #[must_use]
    pub fn restore_cycles(&self) -> u64 {
        self.model.restore_cycles()
    }

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
        assert!(batch.emplace_cycles() > 0, "constants exist");
        assert_eq!(batch.emplace_cycles(), batch.emplace_cycles());
        assert_eq!(batch.input_site(), batch.input_site());
    }
}
