//! SXM instruction bodies: lane shifts, select, permute, distribute, rotate
//! and transpose.

use tsp_arch::{Cycle, Position};
use tsp_isa::SxmOp;

use super::{vectors, Chip, RunCtx};
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::sxm_unit;
use crate::trace::ActivityKind;

impl Chip {
    pub(super) fn sxm_op(
        &mut self,
        icu: IcuId,
        op: &SxmOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        op.validate()
            .map_err(|reason| SimError::InvalidInstruction {
                reason,
                icu,
                cycle: t,
            })?;
        let (lanes, t_eff) = (self.active_lanes(), t + d_func);
        match op {
            SxmOp::ShiftUp { n, src, dst } | SxmOp::ShiftDown { n, src, dst } => {
                let shift = match op {
                    SxmOp::ShiftUp { .. } => sxm_unit::shift_up,
                    _ => sxm_unit::shift_down,
                };
                let x = self.operand(icu, *src, pos, t, ctx)?;
                ctx.note(t, icu, ActivityKind::SxmShift, lanes);
                self.emit([*dst], pos, t_eff, ctx, || Ok([shift(&x.data, *n)]))
            }
            SxmOp::Select {
                north,
                south,
                boundary,
                dst,
            } => {
                let n = self.operand(icu, *north, pos, t, ctx)?;
                let s = self.operand(icu, *south, pos, t, ctx)?;
                ctx.note(t, icu, ActivityKind::SxmShift, lanes);
                self.emit([*dst], pos, t_eff, ctx, || {
                    Ok([sxm_unit::select(&n.data, &s.data, *boundary)])
                })
            }
            SxmOp::Permute { map, src, dst } => {
                let x = self.operand(icu, *src, pos, t, ctx)?;
                ctx.note(t, icu, ActivityKind::SxmPermute, lanes);
                self.emit([*dst], pos, t_eff, ctx, || {
                    Ok([sxm_unit::permute(&x.data, map)])
                })
            }
            SxmOp::Distribute { map, src, dst } => {
                let x = self.operand(icu, *src, pos, t, ctx)?;
                ctx.note(t, icu, ActivityKind::SxmPermute, lanes);
                self.emit([*dst], pos, t_eff, ctx, || {
                    Ok([sxm_unit::distribute(&x.data, map)])
                })
            }
            SxmOp::Rotate { n, src, dst } => {
                let rows = self.operands(icu, src.streams(), pos, t, ctx)?;
                ctx.note(t, icu, ActivityKind::SxmRotate, lanes);
                self.emit(dst.streams(), pos, t_eff, ctx, || {
                    Ok(sxm_unit::rotate(&vectors(&rows), *n))
                })
            }
            SxmOp::Transpose { src, dst } => {
                let rows = self.operands(icu, src.streams(), pos, t, ctx)?;
                ctx.note(t, icu, ActivityKind::SxmTranspose, lanes);
                self.emit(dst.streams(), pos, t_eff, ctx, || {
                    Ok(sxm_unit::transpose(&vectors(&rows)))
                })
            }
        }
    }
}
