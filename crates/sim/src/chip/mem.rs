//! MEM slice instruction bodies, the planned faults that strike SRAM words
//! and stream registers, and the CSR dump that reports them.

use std::sync::Arc;

use tsp_arch::{Cycle, Position, Vector};
use tsp_faults::{FaultEvent, FaultKind};
use tsp_isa::mem::map_addresses;
use tsp_isa::{MemAddr, MemOp};
use tsp_mem::bandwidth::Traffic;
use tsp_mem::ecc;
use tsp_mem::slice::StoredVector;

use super::{Chip, RunCtx};
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::trace::ActivityKind;

impl Chip {
    pub(super) fn mem_op(
        &mut self,
        icu: IcuId,
        op: &MemOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let IcuId::Mem { hemisphere, index } = icu else {
            unreachable!("routed by Instruction::runs_on")
        };
        match op {
            MemOp::Read { addr, stream } => {
                let slice = self.memory.slice_mut(hemisphere, index);
                slice
                    .access(t, *addr, false)
                    .map_err(|error| SimError::Memory { error, icu })?;
                // Forward data with its *stored* check bits: ECC is generated
                // at the producer and travels with the word (paper §II-D).
                // Suspicion is per stored word: a pristine word provably has
                // `check == encode(data)` and forwards on the fast path; one
                // a fault path touched forwards explicit bits and the
                // consumer really verifies them. A fault strike on one
                // address therefore never evicts the fast path for the rest
                // of its slice.
                let word = match slice.peek_ref(*addr) {
                    Some(stored) => Arc::clone(stored),
                    None => Arc::clone(&self.zero_word),
                };
                ctx.bandwidth.record(Traffic::SramRead, 320);
                ctx.note(t, icu, ActivityKind::MemRead, self.active_lanes());
                ctx.count_read(word.is_pristine());
                self.forward(*stream, pos, t + d_func, word, ctx);
            }
            MemOp::Write { addr, stream } => {
                let word = self.take(icu, *stream, pos, t, ctx)?;
                let slice = self.memory.slice_mut(hemisphere, index);
                slice
                    .access(t, *addr, true)
                    .map_err(|error| SimError::Memory { error, icu })?;
                if word.is_pristine() {
                    // The interpreted-semantics store is `protect(data)`:
                    // for a pristine word that is this very word — share it.
                    let displaced = slice.poke_shared(*addr, word);
                    if let Some(old) = displaced {
                        self.streams.recycle(old);
                    }
                } else {
                    // Check skipped (timing-only / ECC off): the store
                    // re-protects the raw data, dropping the latent error,
                    // exactly as the copying path always did.
                    slice.poke(*addr, word.data.clone());
                }
                ctx.bandwidth.record(Traffic::SramWrite, 320);
                ctx.note(t, icu, ActivityKind::MemWrite, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
            MemOp::Gather { stream, map } => {
                // The map is consumed on every path (the stream contract is
                // checked, and its addresses pick the banks the port charges).
                let map = self.take(icu, *map, pos, t, ctx)?;
                let addrs = map_addresses(&map.data);
                self.memory
                    .slice_mut(hemisphere, index)
                    .access_banks(t, bank_mask(&addrs), false)
                    .map_err(|error| SimError::Memory { error, icu })?;
                ctx.bandwidth.record(Traffic::SramRead, 320);
                ctx.note(t, icu, ActivityKind::MemGather, self.active_lanes());
                if !ctx.functional {
                    // No data to assemble: the port is charged above, the
                    // twenty peeks are not worth doing.
                    ctx.count_read(true);
                    self.emit_zero([*stream], pos, t + d_func, ctx);
                    return Ok(());
                }
                // Like `Read`, forward every superlane's *stored* check bits:
                // a latent error under a gathered word reaches the consumer's
                // check instead of being re-encoded as clean data.
                let slice = self.memory.slice(hemisphere, index);
                let mut out = Vector::ZERO;
                let mut suspect: Vec<(usize, u16)> = Vec::new();
                for (s, &addr) in addrs.iter().enumerate() {
                    if let Some(word) = slice.peek_ref(addr) {
                        out.superlane_mut(s).copy_from_slice(word.data.superlane(s));
                        if !word.is_pristine() {
                            suspect.push((s, word.check()[s]));
                        }
                    }
                }
                let check = (!suspect.is_empty()).then(|| {
                    let mut check = StoredVector::protect(out.clone()).check();
                    for &(s, stored) in &suspect {
                        check[s] = stored;
                    }
                    check
                });
                ctx.count_read(check.is_none());
                self.produce(*stream, pos, t + d_func, out, check, ctx);
            }
            MemOp::Scatter { stream, map } => {
                let data = self.operand(icu, *stream, pos, t, ctx)?;
                let map = self.take(icu, *map, pos, t, ctx)?;
                let addrs = map_addresses(&map.data);
                let slice = self.memory.slice_mut(hemisphere, index);
                slice
                    .access_banks(t, bank_mask(&addrs), true)
                    .map_err(|error| SimError::Memory { error, icu })?;
                // Timing-only runs carry no data (a `Gather` there produces
                // the shared zero word without looking at memory): the port
                // is charged above, the twenty read-modify-writes are not
                // worth doing.
                if let Some(data) = &data {
                    for (s, &addr) in addrs.iter().enumerate() {
                        let stored = slice.peek(addr);
                        let prior_check = if stored.is_pristine() {
                            None
                        } else {
                            Some(stored.check())
                        };
                        let mut merged = stored.data;
                        merged
                            .superlane_mut(s)
                            .copy_from_slice(data.data.superlane(s));
                        let word = match prior_check {
                            // Every other superlane's check already equals its
                            // encode; re-protecting the merged word (lazily)
                            // keeps the whole word pristine.
                            None => StoredVector::protect(merged),
                            // Preserve any latent error in the untouched
                            // superlanes; re-encode only the overwritten one.
                            Some(mut check) => {
                                let mut raw = [0u8; 16];
                                raw.copy_from_slice(merged.superlane(s));
                                check[s] = ecc::encode(&raw);
                                StoredVector::with_check(merged, check)
                            }
                        };
                        slice.poke_stored(addr, word);
                    }
                }
                ctx.bandwidth.record(Traffic::SramWrite, 320);
                ctx.note(t, icu, ActivityKind::MemScatter, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
        }
        Ok(())
    }

    /// Applies one planned fault to live chip state. Returns `false` when the
    /// targeted site holds nothing (a vacant stream register): the particle
    /// struck, but there was no state to disturb.
    pub(super) fn apply_fault(&mut self, event: &FaultEvent) -> bool {
        match event.kind {
            FaultKind::SramData {
                hemisphere,
                slice,
                word,
                lane,
                bit,
            } => {
                self.memory.slice_mut(hemisphere, slice).inject_fault(
                    MemAddr::new(word),
                    usize::from(lane),
                    bit,
                );
                true
            }
            FaultKind::SramCheck {
                hemisphere,
                slice,
                word,
                superlane,
                bit,
            } => {
                self.memory.slice_mut(hemisphere, slice).inject_check_fault(
                    MemAddr::new(word),
                    usize::from(superlane),
                    bit,
                );
                true
            }
            FaultKind::StreamUpset {
                stream,
                position,
                lane,
                bit,
            } => self
                .streams
                .corrupt(stream, Position(position), event.cycle, lane, bit),
        }
    }

    /// Renders the chip's CSR error log for post-mortem triage: the one-line
    /// summary followed by every recorded event (campaign tooling calls this
    /// after a trial to report what the hardware saw).
    #[must_use]
    pub fn error_log_dump(&self) -> String {
        let mut out = self.memory.errors.summary();
        for e in self.memory.errors.events() {
            out.push_str(&format!(
                "\n  cycle {:>8}: {} at {}",
                e.cycle,
                if e.corrected {
                    "corrected single-bit"
                } else {
                    "detected double-bit"
                },
                e.site
            ));
        }
        out
    }
}

/// The SRAM banks a set of word addresses touches, as a bit mask.
fn bank_mask(addrs: &[MemAddr]) -> u8 {
    addrs.iter().fold(0, |mask, a| mask | 1 << a.bank())
}
