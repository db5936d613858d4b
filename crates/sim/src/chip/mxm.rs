//! MXM instruction bodies: one row of an `LW`/`ABC`/`ACC` burst.

use tsp_arch::{Cycle, StreamId, Vector};
use tsp_isa::{AccumulateMode, DataType, MxmOp, Plane};
use tsp_mem::bandwidth::Traffic;

use super::{data, vectors, Chip, RunCtx};
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::lane::Lane;
use crate::mxm_unit::MxmResult;
use crate::trace::ActivityKind;

impl Chip {
    /// One row of a multi-row MXM burst, executing at cycle `t`.
    pub(super) fn mxm_row(
        &mut self,
        icu: IcuId,
        op: &MxmOp,
        row: u16,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let pos = icu.position().expect("MXM queues have positions");
        match op {
            MxmOp::LoadWeights {
                plane,
                streams,
                rows: groups,
            } => {
                let rows = self.operands(icu, streams.streams(), pos, t, ctx)?;
                if ctx.functional {
                    let plane = &mut self.planes[plane.index() as usize];
                    if row == 0 {
                        plane.begin_weight_load(*groups);
                    }
                    plane.load_weight_rows(row as u8, &vectors(&rows));
                }
                ctx.note(t, icu, ActivityKind::MxmLoadWeights, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + 1);
            }
            MxmOp::ActivationBuffer { plane, stream, .. } => {
                let idx = plane.index() as usize;
                let act = self.operand(icu, *stream, pos, t, ctx)?;
                // fp16 activations arrive as a pair of byte-plane streams
                // and run through a tandem pair of planes.
                let hi = if self.planes[idx].dtype() == DataType::Fp16 {
                    let hi_stream = StreamId::new(stream.id + 1, stream.direction);
                    let hi = self.operand(icu, hi_stream, pos, t, ctx)?;
                    if !idx.is_multiple_of(2) || idx + 1 >= self.planes.len() {
                        return Err(SimError::InvalidInstruction {
                            reason: "fp16 ABC must target an even plane (tandem pair)".into(),
                            icu,
                            cycle: t,
                        });
                    }
                    Some(hi)
                } else {
                    None
                };
                match (act, hi) {
                    // Timing-only: queue when a real pass's result is ready.
                    (None, _) => self.planes[idx].feed_ready(t),
                    (Some(act), Some(hi)) => {
                        let (a, b) = self.planes.split_at_mut(idx + 1);
                        a[idx].feed_activation_fp16(t, &b[0], &act.data, data(&hi));
                    }
                    (Some(act), None) => self.planes[idx].feed_activation_i8(t, &act.data),
                }
                ctx.note(t, icu, ActivityKind::MxmMacc, self.active_lanes());
            }
            MxmOp::Accumulate {
                plane, dst, mode, ..
            } => {
                let add = matches!(mode, AccumulateMode::Accumulate);
                if dst.width != 4 {
                    return Err(SimError::InvalidInstruction {
                        reason: format!("ACC destination must be a quad-stream group, got {dst}"),
                        icu,
                        cycle: t,
                    });
                }
                ctx.note(t, icu, ActivityKind::MxmAcc, self.active_lanes());
                if !ctx.functional {
                    // Pop (and validate) the pending result, emit zero words.
                    if !self.planes[plane.index() as usize].retire_ready(t) {
                        return Err(SimError::AccumulatorEmpty {
                            plane: plane.index(),
                            cycle: t,
                        });
                    }
                    self.emit_zero(dst.streams(), pos, t + 1, ctx);
                    return Ok(());
                }
                let Chip {
                    planes, streams, ..
                } = &mut *self;
                let result = planes[plane.index() as usize]
                    .accumulate(t, row as usize, add)
                    .ok_or(SimError::AccumulatorEmpty {
                        plane: plane.index(),
                        cycle: t,
                    })?;
                // Each byte plane of the quad is extracted straight into a
                // pooled stream word — no intermediate vectors.
                for (k, s) in dst.streams().enumerate() {
                    ctx.bandwidth.record(Traffic::Stream, 320);
                    ctx.last_effect = ctx.last_effect.max(t + 1);
                    streams.write_with(s, pos, t + 1, None, |data| match result {
                        MxmResult::Int32(vals) => plane_of(vals, k, data),
                        MxmResult::Fp32(vals) => plane_of(vals, k, data),
                    });
                    ctx.stream_level(streams.live_count());
                }
            }
            MxmOp::InstallWeights { .. } => unreachable!("IW is not a burst"),
        }
        Ok(())
    }

    /// `IW`: installs the weights `LW` staged. A timing-only run staged
    /// none, and the plane takes only their element type.
    pub(super) fn mxm_install(
        &mut self,
        icu: IcuId,
        plane: Plane,
        dtype: DataType,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) {
        let plane = &mut self.planes[plane.index() as usize];
        if ctx.functional {
            plane.install(dtype);
        } else {
            plane.install_type(dtype);
        }
        let dur = u16::try_from(d_func).unwrap_or(1);
        ctx.note_span(t, dur, icu, ActivityKind::MxmInstall, self.active_lanes());
        ctx.last_effect = ctx.last_effect.max(t + d_func);
    }
}

/// Writes byte plane `k` of `vals` into `data`, zero past the last lane.
fn plane_of<T: Lane>(vals: &[T], k: usize, data: &mut Vector) {
    let bytes = data.as_bytes_mut();
    for (b, v) in bytes.iter_mut().zip(vals) {
        *b = v.byte(k);
    }
    bytes[vals.len()..].fill(0);
}
