//! Pre-decoded instruction representation for the dispatch hot loop.
//!
//! The interpreted simulator re-walks the nested `Instruction`/`IcuOp`/…
//! match tree, recomputes `time_model()`, and re-validates routing on every
//! dispatch — including once per folded `Repeat` iteration and once per MXM
//! burst row. All of that is a pure function of the *program text* and the
//! queue it sits on, so it can be done once: [`decode_queue`] lowers a
//! queue's instruction list into a flat [`DecodedOp`] vector with
//!
//! * repeat/burst expansions folded into explicit **op spans** (`n`
//!   iterations, `stride` cycles apart, MEM address auto-increment carried as
//!   a word offset instead of a rewritten instruction);
//! * `d_func` and routing/shape validation **pre-resolved** — statically
//!   detectable errors become [`DecodedOp::Invalid`] ops that raise the
//!   exact interpreted error when (and only when) they are dispatched;
//! * a small, shallow enum the simulator dispatches on — every
//!   functional-unit op is one [`DecodedOp::Span`] over a [`SpanOp`] — with
//!   no per-dispatch instruction cloning or string formatting.
//!
//! What is lowered here is exactly what the simulator's interpreted cursor
//! re-derives from the text on every dispatch; the `decoded_oracle` suite in
//! `tsp-sim` pins the two bit-identical (cycles, results, telemetry, trace
//! bytes, errors).

use crate::dtype::DataType;
use crate::icu::IcuOp;
use crate::icu_id::IcuId;
use crate::instruction::Instruction;
use crate::mem::MemOp;
use crate::mxm::{MxmOp, Plane};
use crate::sxm::SxmOp;
use crate::vxm::VxmOp;
use crate::C2cOp;
use tsp_arch::StreamId;

/// Which of the simulator's errors (`tsp_sim::SimError`) an [`InvalidOp`]
/// raises at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidKind {
    /// Instruction routed to a queue whose slice cannot execute it.
    WrongSlice,
    /// Instruction failed shape/ordering validation.
    InvalidInstruction,
}

/// A statically detected error, deferred to its dispatch cycle (boxed to keep
/// [`DecodedOp`] small; the error path is cold by definition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidOp {
    /// The error variant to raise.
    pub kind: InvalidKind,
    /// Rendered instruction (for `WrongSlice`) or reason (for
    /// `InvalidInstruction`) — exactly the string the interpreter produces.
    pub detail: String,
}

/// The operation a [`DecodedOp::Span`] issues on every iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanOp {
    /// A MEM op. Iteration `sub` of a `Read`/`Write` accesses word
    /// `addr + off + sub`: `off` is 0 for the instruction itself and 1 for
    /// a span folded from a `Repeat`, whose first iteration already advances
    /// one word past the base instruction's access.
    Mem {
        /// The base operation.
        op: MemOp,
        /// Address offset of iteration 0.
        off: u16,
    },
    /// A VXM op (`Repeat` re-issues it unchanged).
    Vxm(VxmOp),
    /// An SXM op (shape-validated at decode time).
    Sxm(SxmOp),
    /// A C2C op.
    C2c(C2cOp),
    /// `IW`: install the staged weight buffer.
    MxmInstall {
        /// Plane whose buffer is installed.
        plane: Plane,
        /// Element type of the installed weights.
        dtype: DataType,
    },
}

/// One decoded dispatch-queue entry. Exactly one per source [`Instruction`]
/// (spans fold a `Repeat` or burst's iterations into their one op), so
/// decoded and interpreted queue depths coincide.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedOp {
    /// `NOP(count)`: advance this queue's dispatch clock.
    Nop {
        /// Cycles until the next dispatch (`count.max(1)` pre-applied).
        advance: u16,
    },
    /// Park awaiting the current barrier generation's `Notify`.
    Sync,
    /// Release the current barrier generation.
    Notify,
    /// Power-gate superlanes.
    Config {
        /// Superlanes to keep powered.
        superlanes: u8,
    },
    /// Fetch 640 bytes of instruction text; the simulator decodes the block
    /// and appends its ops to this queue at runtime.
    Ifetch {
        /// Stream carrying the text.
        stream: StreamId,
    },
    /// A `Repeat 0,d`: counts as one dispatched instruction, does nothing.
    RepeatEmpty,
    /// A functional-unit op span: `unit` issues `n` times, `stride` cycles
    /// apart. A single instruction is the span of one iteration; a `Repeat`
    /// folds into the span of its predecessor.
    Span {
        /// What each iteration issues.
        unit: SpanOp,
        /// Iterations in the span.
        n: u16,
        /// Cycles between iterations (`d.max(1)` pre-applied).
        stride: u16,
        /// Pre-resolved functional delay.
        d_func: u32,
    },
    /// A multi-row MXM instruction (`LW`/`ABC`/`ACC`): row `sub` executes at
    /// dispatch + `sub`, one row per cycle.
    MxmBurst {
        /// The operation (row index supplied by the executor).
        op: MxmOp,
        /// Rows in the burst (`rows.max(1)` pre-applied: a zero-row burst
        /// still executes row 0).
        rows: u16,
    },
    /// A statically detected error; dispatching it raises the interpreted
    /// error at the dispatch cycle.
    Invalid(Box<InvalidOp>),
}

/// A fully decoded instruction queue.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedQueue {
    /// One decoded op per source instruction, in dispatch order.
    pub ops: Vec<DecodedOp>,
    /// The last source instruction in text order — the `Repeat` predecessor
    /// for the first instruction of a runtime `Ifetch` extension.
    pub tail: Option<Instruction>,
}

fn wrong_slice(instr: &Instruction) -> DecodedOp {
    DecodedOp::Invalid(Box::new(InvalidOp {
        kind: InvalidKind::WrongSlice,
        detail: instr.to_string(),
    }))
}

fn invalid(detail: String) -> DecodedOp {
    DecodedOp::Invalid(Box::new(InvalidOp {
        kind: InvalidKind::InvalidInstruction,
        detail,
    }))
}

/// Lowers one *issueable* instruction (anything the interpreter routes
/// through its single-cycle `issue` path) into a span of `n` iterations.
/// `off` is the MEM word offset of iteration 0.
fn decode_issue(icu: IcuId, instr: &Instruction, n: u16, stride: u16, off: u16) -> DecodedOp {
    // A host queue has no stream position: it can issue nothing.
    if !instr.runs_on(icu) || icu.position().is_none() {
        return wrong_slice(instr);
    }
    let unit = match instr {
        Instruction::Mem(op) => SpanOp::Mem { op: *op, off },
        Instruction::Vxm(op) => SpanOp::Vxm(*op),
        Instruction::Sxm(op) => match op.validate() {
            Ok(()) => SpanOp::Sxm(op.clone()),
            Err(reason) => return invalid(reason),
        },
        Instruction::C2c(op) => SpanOp::C2c(*op),
        Instruction::Mxm(MxmOp::InstallWeights { plane, dtype }) => SpanOp::MxmInstall {
            plane: *plane,
            dtype: *dtype,
        },
        // LW/ABC/ACC are burst instructions, not issueable: reaching the
        // issue path (only possible via `Repeat`) is a routing error.
        Instruction::Mxm(_) | Instruction::Icu(_) => return wrong_slice(instr),
    };
    DecodedOp::Span {
        unit,
        n,
        stride,
        d_func: instr.time_model().d_func,
    }
}

/// Lowers `Repeat n,d` of the preceding instruction `prev`.
fn decode_repeat(icu: IcuId, prev: Option<&Instruction>, n: u16, d: u16) -> DecodedOp {
    let Some(prev) = prev else {
        return invalid("Repeat with no previous instruction".into());
    };
    if n == 0 {
        return DecodedOp::RepeatEmpty;
    }
    let stride = d.max(1);
    // Folded iterations of a Read/Write advance one word per iteration,
    // starting one past the base instruction's own access.
    let off = match prev {
        Instruction::Mem(MemOp::Read { .. } | MemOp::Write { .. }) => 1,
        _ => 0,
    };
    decode_issue(icu, prev, n, stride, off)
}

/// Lowers one instruction of `icu`'s queue given its predecessor in text
/// order (`prev` feeds `Repeat`; pass the previous call's instruction, or the
/// queue tail when decoding an `Ifetch` extension).
#[must_use]
pub fn decode_step(icu: IcuId, prev: Option<&Instruction>, instr: &Instruction) -> DecodedOp {
    if let (Instruction::Mxm(op), Some(rows)) = (instr, instr.burst_rows()) {
        if !instr.runs_on(icu) {
            return wrong_slice(instr);
        }
        return DecodedOp::MxmBurst { op: *op, rows };
    }
    match instr {
        Instruction::Icu(IcuOp::Nop { count }) => DecodedOp::Nop {
            advance: (*count).max(1),
        },
        Instruction::Icu(IcuOp::Sync) => DecodedOp::Sync,
        Instruction::Icu(IcuOp::Notify) => DecodedOp::Notify,
        Instruction::Icu(IcuOp::Config { superlanes }) => DecodedOp::Config {
            superlanes: *superlanes,
        },
        // A host queue has no stream position to fetch through.
        Instruction::Icu(IcuOp::Ifetch { .. }) if icu.position().is_none() => {
            DecodedOp::Invalid(Box::new(InvalidOp {
                kind: InvalidKind::WrongSlice,
                detail: "Ifetch".into(),
            }))
        }
        Instruction::Icu(IcuOp::Ifetch { stream }) => DecodedOp::Ifetch { stream: *stream },
        Instruction::Icu(IcuOp::Repeat { n, d }) => decode_repeat(icu, prev, *n, *d),
        issueable => decode_issue(icu, issueable, 1, 1, 0),
    }
}

/// Decodes `icu`'s whole instruction queue.
#[must_use]
pub fn decode_queue(icu: IcuId, instructions: &[Instruction]) -> DecodedQueue {
    let mut ops = Vec::with_capacity(instructions.len());
    let mut prev: Option<&Instruction> = None;
    for instr in instructions {
        ops.push(decode_step(icu, prev, instr));
        prev = Some(instr);
    }
    DecodedQueue {
        ops,
        tail: instructions.last().cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemAddr;
    use crate::vxm::AluIndex;
    use tsp_arch::Hemisphere;

    const MEM: IcuId = IcuId::Mem {
        hemisphere: Hemisphere::East,
        index: 0,
    };

    fn read(addr: u16) -> Instruction {
        Instruction::Mem(MemOp::Read {
            addr: MemAddr::new(addr),
            stream: StreamId::east(1),
        })
    }

    #[test]
    fn one_op_per_instruction() {
        let instrs = vec![
            read(0),
            Instruction::Icu(IcuOp::Repeat { n: 7, d: 2 }),
            Instruction::Icu(IcuOp::Nop { count: 0 }),
        ];
        let q = decode_queue(MEM, &instrs);
        assert_eq!(q.ops.len(), 3);
        assert_eq!(
            q.ops[1],
            DecodedOp::Span {
                unit: SpanOp::Mem {
                    op: MemOp::Read {
                        addr: MemAddr::new(0),
                        stream: StreamId::east(1),
                    },
                    off: 1,
                },
                n: 7,
                stride: 2,
                d_func: read(0).time_model().d_func,
            }
        );
        // NOP(0) still advances one cycle.
        assert_eq!(q.ops[2], DecodedOp::Nop { advance: 1 });
        assert_eq!(q.tail.as_ref(), instrs.last());
    }

    #[test]
    fn statically_wrong_routing_becomes_invalid() {
        let vxm = IcuId::Vxm {
            alu: AluIndex::new(0),
        };
        let q = decode_queue(vxm, &[read(4)]);
        let DecodedOp::Invalid(inv) = &q.ops[0] else {
            panic!("expected Invalid, got {:?}", q.ops[0]);
        };
        assert_eq!(inv.kind, InvalidKind::WrongSlice);
        assert_eq!(inv.detail, read(4).to_string());
    }

    #[test]
    fn repeat_of_icu_op_is_wrong_slice() {
        let instrs = vec![
            Instruction::Icu(IcuOp::Nop { count: 1 }),
            Instruction::Icu(IcuOp::Repeat { n: 2, d: 1 }),
        ];
        let q = decode_queue(MEM, &instrs);
        let DecodedOp::Invalid(inv) = &q.ops[1] else {
            panic!("expected Invalid");
        };
        assert_eq!(inv.kind, InvalidKind::WrongSlice);
        assert_eq!(inv.detail, "NOP(1)");
    }

    #[test]
    fn repeat_first_is_invalid_and_repeat_zero_is_empty() {
        let q = decode_queue(MEM, &[Instruction::Icu(IcuOp::Repeat { n: 3, d: 1 })]);
        assert!(matches!(&q.ops[0], DecodedOp::Invalid(i)
            if i.kind == InvalidKind::InvalidInstruction
            && i.detail == "Repeat with no previous instruction"));
        let q = decode_queue(
            MEM,
            &[read(0), Instruction::Icu(IcuOp::Repeat { n: 0, d: 1 })],
        );
        assert_eq!(q.ops[1], DecodedOp::RepeatEmpty);
    }

    #[test]
    fn host_queue_accepts_only_pure_icu_ops() {
        let q = decode_queue(
            IcuId::Host { port: 0 },
            &[
                Instruction::Icu(IcuOp::Sync),
                Instruction::Icu(IcuOp::Notify),
                Instruction::Icu(IcuOp::Ifetch {
                    stream: StreamId::east(0),
                }),
                read(0),
            ],
        );
        assert_eq!(q.ops[0], DecodedOp::Sync);
        assert_eq!(q.ops[1], DecodedOp::Notify);
        assert!(matches!(&q.ops[2], DecodedOp::Invalid(i)
            if i.kind == InvalidKind::WrongSlice && i.detail == "Ifetch"));
        assert!(matches!(&q.ops[3], DecodedOp::Invalid(i) if i.kind == InvalidKind::WrongSlice));
    }

    #[test]
    fn zero_row_burst_still_runs_one_row() {
        use tsp_arch::StreamGroup;
        let acc = Instruction::Mxm(MxmOp::Accumulate {
            plane: Plane::new(0),
            dst: StreamGroup::new(StreamId::east(4), 4),
            rows: 0,
            mode: crate::mxm::AccumulateMode::Overwrite,
        });
        let port = IcuId::Mxm {
            plane: Plane::new(0),
            port: 3,
        };
        let q = decode_queue(port, &[acc]);
        assert!(matches!(q.ops[0], DecodedOp::MxmBurst { rows: 1, .. }));
    }
}
