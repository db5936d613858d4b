//! # tsp-isa — the Tensor Streaming Processor instruction set
//!
//! Defines every instruction of paper Table I across the six functional areas
//! (ICU, MEM, VXM, MXM, SXM, C2C), together with:
//!
//! * the **temporal metadata** (`d_func`, `d_skew`) each instruction exposes
//!   across the static–dynamic interface so the compiler can schedule in time
//!   and space (paper §III), and the dispatch-queue cycles it occupies;
//! * a **binary encoding** ([`encode`]) — instruction text lives in ordinary
//!   MEM slices and is fetched onto streams by `Ifetch`, so instructions must
//!   serialize to bytes;
//! * an **assembly text** rendering (`Display`) after the paper's notation:
//!   `Read 0x0040,S1.E`, `NOP(3)`, and operand groups spelled out, as in
//!   `add_sat SG1[1-1].E,SG1[2-2].E,SG1[3-3].W (int8,alu2)`;
//! * the 144 instruction queues ([`IcuId`]) and which of them may hold an
//!   instruction ([`Instruction::runs_on`]);
//! * the paper's **Table I** as data ([`table::isa_summary`]), tied to the
//!   definitions by a test over every sample instruction's mnemonic.
//!
//! The top-level type is [`Instruction`]; per-area operation enums are
//! [`IcuOp`], [`MemOp`], [`VxmOp`], [`MxmOp`], [`SxmOp`] and [`C2cOp`]. Each
//! instruction is one row of the table in [`instruction`], from which its
//! encoding, text, mnemonic, `d_func` and queue occupancy are all generated.
//!
//! ```
//! use tsp_isa::{Instruction, MemOp, MemAddr};
//! use tsp_arch::StreamId;
//!
//! let read = Instruction::Mem(MemOp::Read { addr: MemAddr::new(0x40), stream: StreamId::east(1) });
//! assert_eq!(read.to_string(), "Read 0x0040,S1.E");
//! // Every instruction round-trips through its binary encoding:
//! let bytes = read.encode();
//! assert_eq!(Instruction::decode(&bytes).unwrap().0, read);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod c2c;
pub mod decoded;
pub mod delays;
pub mod dtype;
pub mod encode;
pub mod icu;
pub mod icu_id;
pub mod instruction;
pub mod mem;
pub mod mxm;
pub mod sxm;
pub mod table;
pub mod vxm;

pub use c2c::{C2cOp, LinkId};
pub use decoded::{
    decode_queue, decode_step, DecodedOp, DecodedQueue, InvalidKind, InvalidOp, SpanOp,
};
pub use delays::{D_GATHER, D_IW, D_READ, D_VXM, LW_ROWS};
pub use dtype::DataType;
pub use icu::IcuOp;
pub use icu_id::IcuId;
pub use instruction::{FunctionalArea, Instruction};
pub use mem::{MemAddr, MemOp};
pub use mxm::{AccumulateMode, MxmOp, Plane, MXM_ARRAY_DELAY};
pub use sxm::{PermuteMap, SxmOp};
pub use vxm::{AluIndex, BinaryAluOp, UnaryAluOp, VxmOp};
