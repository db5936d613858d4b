//! VXM instruction bodies: point-wise ALU ops over stream groups.

use std::sync::Arc;

use tsp_arch::{Cycle, Position, StreamGroup, Vector};
use tsp_isa::{UnaryAluOp, VxmOp};

use super::{Chip, RunCtx};
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::stream_file::StreamWord;
use crate::trace::ActivityKind;
use crate::vxm_unit;

impl Chip {
    pub(super) fn vxm_op(
        &mut self,
        icu: IcuId,
        op: &VxmOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let group = |chip: &mut Chip, g: StreamGroup| chip.operands(icu, g.streams(), pos, t, ctx);
        let (a, b) = match op {
            VxmOp::Unary { src, .. } | VxmOp::Convert { src, .. } => {
                (group(self, *src)?, Vec::new())
            }
            VxmOp::Binary { a, b, .. } => (group(self, *a)?, group(self, *b)?),
        };
        let transcendental = matches!(
            op,
            VxmOp::Unary {
                op: UnaryAluOp::Tanh | UnaryAluOp::Exp | UnaryAluOp::Rsqrt,
                ..
            }
        );
        let kind = ActivityKind::VxmAlu { transcendental };
        ctx.note(t, icu, kind, self.active_lanes());
        let dst = op.dst();
        self.emit(dst.streams(), pos, t + d_func, ctx, || {
            // The ALU reads operands in place — consumed words stay shared.
            fn borrow(g: &[Arc<StreamWord>]) -> Vec<&Vector> {
                g.iter().map(|w| &w.data).collect()
            }
            let invalid = |reason| SimError::InvalidInstruction {
                reason,
                icu,
                cycle: t,
            };
            let (a, b) = (borrow(&a), borrow(&b));
            let result = match *op {
                VxmOp::Unary { op, dtype, .. } => vxm_unit::apply_unary(op, dtype, &a),
                VxmOp::Binary { op, dtype, .. } => vxm_unit::apply_binary(op, dtype, &a, &b),
                VxmOp::Convert {
                    from, to, shift, ..
                } => vxm_unit::apply_convert(from, to, shift, &a),
            };
            let vectors = result.map_err(invalid)?;
            if vectors.len() != dst.width as usize {
                let got = vectors.len();
                return Err(invalid(format!(
                    "VXM result width {got} does not match destination group {dst}"
                )));
            }
            Ok(vectors)
        })
    }
}
