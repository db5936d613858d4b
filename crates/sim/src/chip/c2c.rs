//! C2C instruction bodies: vectors leaving on and arriving from the links.

use tsp_arch::{Cycle, Position};
use tsp_isa::C2cOp;

use super::{Chip, RunCtx};
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::trace::ActivityKind;

impl Chip {
    pub(super) fn c2c_op(
        &mut self,
        icu: IcuId,
        op: &C2cOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        match op {
            C2cOp::Deskew { .. } => {
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
            C2cOp::Send { link, stream } => {
                // The word leaves with its ECC intact (never checked here):
                // the link is covered by the same producer-generated code.
                let word = self.read_word(icu, *stream, pos, t, false)?;
                ctx.note(t, icu, ActivityKind::C2cSend, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
                self.egress.push((link.index(), t + d_func, word));
            }
            C2cOp::Receive { link, stream } => {
                let queue = &mut self.ingress[link.index() as usize];
                let front_ready = queue.front().is_some_and(|(arr, _)| *arr <= t);
                if !front_ready {
                    return Err(SimError::LinkEmpty {
                        link: link.index(),
                        cycle: t,
                    });
                }
                let (_, word) = queue.pop_front().expect("checked non-empty");
                ctx.note(t, icu, ActivityKind::C2cReceive, self.active_lanes());
                self.forward(*stream, pos, t + d_func, word, ctx);
            }
        }
        Ok(())
    }
}
