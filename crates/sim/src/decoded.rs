//! Whole-program decoded-instruction cache ([`DecodedProgram`]).
//!
//! Lowers every ICU queue of a [`Program`] into the dense
//! [`DecodedOp`](tsp_isa::DecodedOp) representation of [`tsp_isa::decoded`]
//! exactly once, so the dispatch hot loop ([`crate::Chip::run_decoded`])
//! walks flat op spans instead of re-decoding instruction text on every
//! dispatch. Decoding is pure — it
//! reads only the program — so a `DecodedProgram` can be memoized alongside a
//! compiled model and shared across runs, chips and threads.

use tsp_isa::decoded::{decode_queue, DecodedQueue};

use crate::icu_id::IcuId;
use crate::program::Program;

/// A program lowered to decoded op spans, one queue per ICU, in the same
/// deterministic queue order the interpreted path iterates.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub(crate) queues: Vec<(IcuId, DecodedQueue)>,
}

impl DecodedProgram {
    /// Decodes every queue of `program`. Statically invalid instructions
    /// never fail the decode: they become [`tsp_isa::DecodedOp::Invalid`]
    /// ops that raise the interpreted error at their dispatch cycle.
    #[must_use]
    pub fn decode(program: &Program) -> DecodedProgram {
        DecodedProgram {
            queues: program
                .queues()
                .map(|(icu, instrs)| (icu, decode_queue(icu, instrs)))
                .collect(),
        }
    }

    /// The decoded queues in dispatch-seeding order.
    #[must_use]
    pub fn queues(&self) -> &[(IcuId, DecodedQueue)] {
        &self.queues
    }

    /// Total decoded ops across all queues (= total source instructions).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.ops.len()).sum()
    }

    /// Whether the program has no instructions at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
