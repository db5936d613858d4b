//! The interpreted cursor: the reference semantics of dispatch.
//!
//! `step` and `issue` walk the instruction text as written — a `Repeat`
//! re-issues its predecessor iteration by iteration, a burst runs row by
//! row, routing and `d_func` are looked up on every dispatch — sharing only
//! the event loop, the `Ifetch` read and the functional-unit bodies with
//! [`super::decoded`], which is what lets `decoded_oracle` check the
//! lowering against this path.

use tsp_arch::{Cycle, Position, StreamId, SUPERLANES};
use tsp_isa::{IcuOp, Instruction, MemOp, MxmOp};

use super::{resume_after_barrier, Chip, Cursor, RunCtx, RunOptions, RunReport, Step};
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::program::Program;
use crate::trace::ActivityKind;

#[derive(Debug)]
enum Burst {
    /// Multi-row MXM instruction; `row` is the next row to execute.
    Mxm { op: MxmOp, row: u16, rows: u16 },
    /// `Repeat n,d` of the previous instruction; MEM addresses auto-increment
    /// one word per iteration (modeling choice, DESIGN.md §2).
    Repeat {
        instr: Instruction,
        iter: u16,
        n: u16,
        d: u16,
    },
}

#[derive(Debug)]
struct QueueState {
    icu: IcuId,
    position: Option<Position>,
    instructions: Vec<Instruction>,
    pc: usize,
    burst: Option<Burst>,
    barriers: u32,
}

impl Cursor for QueueState {
    fn icu(&self) -> IcuId {
        self.icu
    }

    fn pending(&self) -> usize {
        self.instructions.len() - self.pc
    }

    fn barriers(&self) -> usize {
        self.barriers as usize
    }

    fn pass_barrier(&mut self) {
        self.pc += 1;
        self.barriers += 1;
    }

    fn step(&mut self, chip: &mut Chip, t: Cycle, ctx: &mut RunCtx) -> Result<Step, SimError> {
        chip.step(self, t, ctx)
    }
}

impl Chip {
    /// Runs a program through the interpreted dispatch path: every dispatch
    /// re-walks the instruction match tree, re-deriving `Repeat` folding,
    /// burst rows, routing and `d_func` from the text. This is the reference
    /// the decoded path's lowering is checked against (DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Any [`SimError`], exactly as [`Chip::run`].
    pub fn run_interpreted(
        &mut self,
        program: &Program,
        options: &RunOptions,
    ) -> Result<RunReport, SimError> {
        let queues: Vec<QueueState> = program
            .queues()
            .map(|(icu, instrs)| QueueState {
                icu,
                position: icu.position(),
                instructions: instrs.to_vec(),
                pc: 0,
                burst: None,
                barriers: 0,
            })
            .collect();
        self.run_queues(queues, options)
    }

    fn step(&mut self, q: &mut QueueState, t: Cycle, ctx: &mut RunCtx) -> Result<Step, SimError> {
        // Continue an in-flight burst first.
        if let Some(burst) = q.burst.take() {
            match burst {
                Burst::Mxm { op, row, rows } => {
                    self.mxm_row(q.icu, &op, row, t, ctx)?;
                    if row + 1 >= rows {
                        q.pc += 1;
                    } else {
                        q.burst = Some(Burst::Mxm {
                            op,
                            row: row + 1,
                            rows,
                        });
                    }
                    return Ok(Step::NextAt(t + 1));
                }
                Burst::Repeat { instr, iter, n, d } => {
                    let stride = Cycle::from(d.max(1));
                    let this = repeat_iteration(&instr, iter, q.icu, t)?;
                    if iter + 1 >= n {
                        q.pc += 1;
                    } else {
                        q.burst = Some(Burst::Repeat {
                            instr,
                            iter: iter + 1,
                            n,
                            d,
                        });
                    }
                    self.issue(q, &this, t, ctx)?;
                    return Ok(Step::NextAt(t + stride));
                }
            }
        }

        let Some(instr) = q.instructions.get(q.pc).cloned() else {
            return Ok(Step::Done);
        };

        if let (Instruction::Mxm(op), Some(rows)) = (&instr, instr.burst_rows()) {
            ctx.instructions += 1;
            if !instr.runs_on(q.icu) {
                return Err(wrong_slice(q.icu, &instr, t));
            }
            self.mxm_row(q.icu, op, 0, t, ctx)?;
            if rows == 1 {
                q.pc += 1;
            } else {
                q.burst = Some(Burst::Mxm {
                    op: *op,
                    row: 1,
                    rows,
                });
            }
            return Ok(Step::NextAt(t + 1));
        }

        match &instr {
            Instruction::Icu(IcuOp::Nop { count }) => {
                ctx.nops += 1;
                q.pc += 1;
                Ok(Step::NextAt(t + Cycle::from((*count).max(1))))
            }
            Instruction::Icu(IcuOp::Sync) => {
                ctx.instructions += 1;
                Ok(Step::Parked)
            }
            Instruction::Icu(IcuOp::Notify) => {
                ctx.instructions += 1;
                let gen = q.barriers as usize;
                if ctx.notify_times.len() != gen {
                    return Err(SimError::InvalidInstruction {
                        reason: format!("Notify for barrier generation {gen} out of order"),
                        icu: q.icu,
                        cycle: t,
                    });
                }
                ctx.notify_times.push(t);
                q.pc += 1;
                q.barriers += 1;
                Ok(Step::NextAt(resume_after_barrier(t, t)))
            }
            Instruction::Icu(IcuOp::Config { superlanes }) => {
                ctx.instructions += 1;
                self.config.superlanes_enabled = usize::from(*superlanes).clamp(1, SUPERLANES);
                q.pc += 1;
                Ok(Step::NextAt(t + 1))
            }
            Instruction::Icu(IcuOp::Repeat { n, d }) => {
                ctx.instructions += 1;
                if q.pc == 0 {
                    return Err(SimError::InvalidInstruction {
                        reason: "Repeat with no previous instruction".into(),
                        icu: q.icu,
                        cycle: t,
                    });
                }
                let prev = q.instructions[q.pc - 1].clone();
                if *n == 0 {
                    q.pc += 1;
                    return Ok(Step::NextAt(t + 1));
                }
                q.burst = Some(Burst::Repeat {
                    instr: prev,
                    iter: 0,
                    n: *n,
                    d: *d,
                });
                // The first repeat iteration executes at the Repeat's own
                // dispatch cycle (the ICU folds the repeat into issue).
                Ok(Step::NextAt(t))
            }
            Instruction::Icu(IcuOp::Ifetch { stream }) => {
                ctx.instructions += 1;
                self.ifetch(q, *stream, t, ctx)?;
                q.pc += 1;
                Ok(Step::NextAt(t + 2))
            }
            _ => {
                ctx.instructions += 1;
                self.issue(q, &instr, t, ctx)?;
                q.pc += 1;
                Ok(Step::NextAt(t + 1))
            }
        }
    }

    /// Executes a single-cycle instruction dispatched at `t`.
    fn issue(
        &mut self,
        q: &QueueState,
        instr: &Instruction,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        // A host queue has no stream position: it can issue nothing.
        let (Some(pos), true) = (q.position, instr.runs_on(q.icu)) else {
            return Err(wrong_slice(q.icu, instr, t));
        };
        let d_func = Cycle::from(instr.time_model().d_func);
        match instr {
            Instruction::Mem(op) => self.mem_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::Vxm(op) => self.vxm_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::Sxm(op) => self.sxm_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::C2c(op) => self.c2c_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::Mxm(MxmOp::InstallWeights { plane, dtype }) => {
                self.planes[plane.index() as usize].install(*dtype);
                let dur = u16::try_from(d_func).unwrap_or(1);
                ctx.note_span(t, dur, q.icu, ActivityKind::MxmInstall, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
            Instruction::Mxm(_) | Instruction::Icu(_) => return Err(wrong_slice(q.icu, instr, t)),
        }
        Ok(())
    }

    fn ifetch(
        &mut self,
        q: &mut QueueState,
        stream: StreamId,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let fetched = self.fetch_block(q.icu, q.position, stream, t, ctx)?;
        q.instructions.extend(fetched);
        ctx.queue_depth(q.pending());
        Ok(())
    }
}

/// The `iter`-th iteration of a repeated instruction. MEM addresses advance
/// one word per iteration so `Read a,s ; Repeat n,d` streams a contiguous
/// tensor (modeling choice, DESIGN.md §2).
fn repeat_iteration(
    instr: &Instruction,
    iter: u16,
    icu: IcuId,
    cycle: Cycle,
) -> Result<Instruction, SimError> {
    let bump = |addr: tsp_isa::MemAddr| -> Result<tsp_isa::MemAddr, SimError> {
        let w = addr.word() + iter + 1;
        if w >= 8192 {
            return Err(SimError::InvalidInstruction {
                reason: format!("Repeat walked address {w:#x} past the slice"),
                icu,
                cycle,
            });
        }
        Ok(tsp_isa::MemAddr::new(w))
    };
    Ok(match instr {
        Instruction::Mem(MemOp::Read { addr, stream }) => Instruction::Mem(MemOp::Read {
            addr: bump(*addr)?,
            stream: *stream,
        }),
        Instruction::Mem(MemOp::Write { addr, stream }) => Instruction::Mem(MemOp::Write {
            addr: bump(*addr)?,
            stream: *stream,
        }),
        other => other.clone(),
    })
}

/// The error of an instruction dispatched on a queue that cannot issue it.
fn wrong_slice(icu: IcuId, instr: &Instruction, cycle: Cycle) -> SimError {
    SimError::WrongSlice {
        icu,
        instruction: instr.to_string(),
        cycle,
    }
}
