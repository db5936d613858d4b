//! Batched serving surface: one compiled model, N requests, weights resident.
//!
//! The paper's host "emplaces the model and bootstraps execution" (§II): the
//! expensive step of an inference is streaming the weights over PCIe, not the
//! deterministic on-chip run. A serving layer therefore batches compatible
//! requests (same model, same compile options) and amortizes the emplace —
//! the weights stay resident while the batch's inputs run back to back.
//!
//! [`BatchModel`] packages that contract for `tsp-serve`:
//!
//! * the underlying program comes from [`compile_cached`], so every pool
//!   worker shares one immutable [`CompiledModel`] (and its memoized decoded
//!   program) without recompiling;
//! * [`BatchModel::emplace_cycles`] is the deterministic model-emplace cost
//!   (one shipped constants row per cycle — the DMA bound), charged **once per
//!   batch** in the serving layer's virtual-time accounting, and once more
//!   per retry (a retry-from-weights must re-emplace);
//! * [`BatchModel::run_batch`] executes up to `max_batch` requests through
//!   [`run_resilient`], each on pristine chip state, so a batch member's
//!   fault can never corrupt its neighbours — logits stay bit-identical to
//!   a serial fault-free oracle whenever a request succeeds.

use std::sync::Arc;

use tsp_arch::{ChipConfig, Hemisphere};

use crate::compile::{compile_cached, CompileOptions, CompiledModel, InputKind};
use crate::quant::QuantGraph;
use crate::resilient::{run_resilient, ResilienceReport, ResilientOptions};
use tsp_sim::SimError;

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

    /// Runs up to `max_batch` requests back to back through the resilient
    /// host layer, one [`ResilienceReport`] (or non-transient error) per
    /// request, in input order.
    ///
    /// Each request's attempts run on pristine chip state (`run_resilient`
    /// rebuilds the chip per attempt), so faults injected into one request
    /// cannot leak into another — the bit-identity guarantee is per request,
    /// not per batch. `per_request[i]` carries request `i`'s retry budget
    /// and fault plans (the serving layer's chaos hook).
    ///
    /// # Panics
    ///
    /// Panics if the batch exceeds `max_batch` or the options slice does not
    /// match the inputs.
    pub fn run_batch(
        &self,
        config: &ChipConfig,
        inputs: &[&[i8]],
        per_request: &[ResilientOptions],
    ) -> Vec<Result<ResilienceReport, SimError>> {
        assert!(inputs.len() <= self.max_batch, "batch exceeds max_batch");
        assert_eq!(inputs.len(), per_request.len(), "one options per request");
        inputs
            .iter()
            .zip(per_request)
            .map(|(image, options)| run_resilient(&self.model, config, image, options))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic;
    use crate::quant::quantize;
    use crate::train::small_cnn;

    fn workload() -> (BatchModel, Vec<Vec<i8>>) {
        let data = synthetic(11, 12, 12, 2, 4, 6);
        let (g, params) = small_cnn(12, 16, 4, 5);
        let q = quantize(&g, &params, &data.images[..2]);
        let model = compile_batch_cached(&q, &CompileOptions::default(), 4);
        let images = data.images.iter().map(|i| q.quantize_image(i)).collect();
        (model, images)
    }

    #[test]
    fn batch_results_match_serial_oracle() {
        let (batch, images) = workload();
        let inputs: Vec<&[i8]> = images.iter().take(3).map(Vec::as_slice).collect();
        let options = vec![ResilientOptions::default(); inputs.len()];
        let results = batch.run_batch(&ChipConfig::asic(), &inputs, &options);
        for (input, result) in inputs.iter().zip(&results) {
            let report = result.as_ref().expect("fault-free batch");
            let oracle = run_resilient(
                &batch.model,
                &ChipConfig::asic(),
                input,
                &ResilientOptions::default(),
            )
            .expect("oracle run");
            assert_eq!(report.logits(), oracle.logits(), "bit-identical logits");
            assert_eq!(report.attempts, 1);
        }
    }

    #[test]
    fn emplace_cost_and_input_site_are_deterministic() {
        let (batch, _) = workload();
        assert!(batch.emplace_cycles() > 0, "constants exist");
        assert_eq!(batch.emplace_cycles(), batch.emplace_cycles());
        assert_eq!(batch.input_site(), batch.input_site());
    }
}
