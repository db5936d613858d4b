//! The decoded cursor: dispatch over the op spans [`tsp_isa::decoded`]
//! resolved once — `Repeat` folding, burst rows, routing and `d_func` are
//! read off the op instead of re-derived from instruction text.

use tsp_arch::{Cycle, Position, SUPERLANES};
use tsp_isa::decoded::{decode_step, DecodedOp, InvalidKind, SpanOp};
use tsp_isa::{Instruction, MemAddr, MemOp};

use super::{resume_after_barrier, Chip, Cursor, RunCtx, RunOptions, RunReport, Step};
use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::icu_id::IcuId;

/// Per-queue cursor over a [`DecodedProgram`]: `pc` indexes decoded ops
/// (`base`, then the runtime `Ifetch` `overlay`), `sub` the iteration within
/// the current op span. One decoded op per source instruction, so `pc`
/// doubles as the interpreted raw-instruction cursor for depth accounting.
#[derive(Debug)]
struct DecodedQueueState<'p> {
    icu: IcuId,
    position: Option<Position>,
    base: &'p [DecodedOp],
    /// Ops decoded at runtime from `Ifetch`ed instruction text.
    overlay: Vec<DecodedOp>,
    /// Last source instruction in text order — `Repeat` predecessor for the
    /// first instruction of the next fetched block.
    tail: Option<Instruction>,
    pc: usize,
    sub: u16,
    barriers: u32,
}

impl DecodedQueueState<'_> {
    fn op(&self, i: usize) -> Option<&DecodedOp> {
        if i < self.base.len() {
            self.base.get(i)
        } else {
            self.overlay.get(i - self.base.len())
        }
    }

    /// Moves past the current iteration of an `n`-iteration op.
    fn advance(&mut self, n: u16) {
        if self.sub + 1 >= n {
            self.sub = 0;
            self.pc += 1;
        } else {
            self.sub += 1;
        }
    }
}

impl Cursor for DecodedQueueState<'_> {
    fn icu(&self) -> IcuId {
        self.icu
    }

    fn pending(&self) -> usize {
        self.base.len() + self.overlay.len() - self.pc
    }

    fn barriers(&self) -> usize {
        self.barriers as usize
    }

    fn pass_barrier(&mut self) {
        self.pc += 1;
        self.barriers += 1;
    }

    fn step(&mut self, chip: &mut Chip, t: Cycle, ctx: &mut RunCtx) -> Result<Step, SimError> {
        chip.dstep(self, t, ctx)
    }
}

impl Chip {
    /// Runs a pre-decoded program to completion: the same event loop walks
    /// flat decoded op spans, so the hot loop touches no instruction text,
    /// recomputes no time models, and re-validates no routing.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], exactly as [`Chip::run`].
    pub fn run_decoded(
        &mut self,
        program: &DecodedProgram,
        options: &RunOptions,
    ) -> Result<RunReport, SimError> {
        let queues: Vec<DecodedQueueState<'_>> = program
            .queues
            .iter()
            .map(|(icu, dq)| DecodedQueueState {
                icu: *icu,
                position: icu.position(),
                base: &dq.ops,
                overlay: Vec::new(),
                tail: dq.tail.clone(),
                pc: 0,
                sub: 0,
                barriers: 0,
            })
            .collect();
        self.run_queues(queues, options)
    }

    /// One decoded dispatch. Span ops execute iteration `sub` and re-arm at
    /// `t + stride`; folded `Repeat` iterations and MXM burst rows therefore
    /// cost one shallow match each instead of a re-decode. A span's first
    /// iteration lands at the cycle the interpreted path dispatches the
    /// `Repeat` (its setup pop re-arms at the same cycle and is immediately
    /// re-popped, so folding it away is unobservable).
    fn dstep(
        &mut self,
        q: &mut DecodedQueueState<'_>,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<Step, SimError> {
        let Some(op) = q.op(q.pc) else {
            return Ok(Step::Done);
        };
        // Every op counts once, at its first iteration.
        if matches!(op, DecodedOp::Nop { .. }) {
            ctx.nops += 1;
        } else if q.sub == 0 {
            ctx.instructions += 1;
        }
        let next = match op {
            DecodedOp::Nop { advance } => t + Cycle::from(*advance),
            DecodedOp::Sync => return Ok(Step::Parked),
            DecodedOp::Notify => {
                let gen = q.barriers as usize;
                if ctx.notify_times.len() != gen {
                    return Err(SimError::InvalidInstruction {
                        reason: format!("Notify for barrier generation {gen} out of order"),
                        icu: q.icu,
                        cycle: t,
                    });
                }
                ctx.notify_times.push(t);
                q.barriers += 1;
                resume_after_barrier(t, t)
            }
            DecodedOp::Config { superlanes } => {
                self.config.superlanes_enabled = usize::from(*superlanes).clamp(1, SUPERLANES);
                t + 1
            }
            DecodedOp::RepeatEmpty => t + 1,
            DecodedOp::Ifetch { stream } => {
                // Fetched text is decoded at once, the queue's `tail`
                // threaded through as the `Repeat` predecessor.
                for instr in self.fetch_block(q.icu, q.position, *stream, t, ctx)? {
                    let op = decode_step(q.icu, q.tail.as_ref(), &instr);
                    q.overlay.push(op);
                    q.tail = Some(instr);
                }
                ctx.queue_depth(q.pending());
                t + 2
            }
            DecodedOp::Invalid(inv) => {
                return Err(match inv.kind {
                    InvalidKind::WrongSlice => SimError::WrongSlice {
                        icu: q.icu,
                        instruction: inv.detail.clone(),
                        cycle: t,
                    },
                    InvalidKind::InvalidInstruction => SimError::InvalidInstruction {
                        reason: inv.detail.clone(),
                        icu: q.icu,
                        cycle: t,
                    },
                })
            }
            DecodedOp::Span {
                unit,
                n,
                stride,
                d_func,
            } => {
                let (n, stride, d_func) = (*n, *stride, Cycle::from(*d_func));
                let (icu, sub) = (q.icu, q.sub);
                let pos = q.position.expect("decode rejects data ops on host queues");
                match unit {
                    SpanOp::Mem { op, off } => {
                        let op = walked(op, *off + sub, icu, t)?;
                        self.mem_op(icu, &op, pos, t, d_func, ctx)?;
                    }
                    SpanOp::Vxm(op) => self.vxm_op(icu, op, pos, t, d_func, ctx)?,
                    SpanOp::Sxm(op) => self.sxm_op(icu, op, pos, t, d_func, ctx)?,
                    SpanOp::C2c(op) => self.c2c_op(icu, op, pos, t, d_func, ctx)?,
                    SpanOp::MxmInstall { plane, dtype } => {
                        self.mxm_install(icu, *plane, *dtype, t, d_func, ctx);
                    }
                }
                q.advance(n);
                return Ok(Step::NextAt(t + Cycle::from(stride)));
            }
            DecodedOp::MxmBurst { op, rows } => {
                let (op, rows) = (*op, *rows);
                self.mxm_row(q.icu, &op, q.sub, t, ctx)?;
                q.advance(rows);
                return Ok(Step::NextAt(t + 1));
            }
        };
        q.pc += 1;
        Ok(Step::NextAt(next))
    }
}

/// Iteration `walk` of a MEM span: a `Read`/`Write` accesses `walk` words
/// past its base address (same `u16` arithmetic and bound as the
/// interpreted `repeat_iteration`); other ops repeat unchanged. Run once
/// per MEM dispatch: left out of line it costs `resnet50_timing` ≈ 7 %.
#[inline(always)]
fn walked(op: &MemOp, walk: u16, icu: IcuId, cycle: Cycle) -> Result<MemOp, SimError> {
    let mut op = *op;
    if let (MemOp::Read { addr, .. } | MemOp::Write { addr, .. }, true) = (&mut op, walk > 0) {
        let w = addr.word() + walk;
        if w >= 8192 {
            return Err(SimError::InvalidInstruction {
                reason: format!("Repeat walked address {w:#x} past the slice"),
                icu,
                cycle,
            });
        }
        *addr = MemAddr::new(w);
    }
    Ok(op)
}
