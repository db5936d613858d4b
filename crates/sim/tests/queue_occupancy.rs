//! The dispatch clock the compiler books is the one the simulator keeps:
//! after every instruction, the next one on its queue dispatches
//! `queue_cycles()` later, on both cursors.

use std::sync::Arc;

use tsp_arch::{
    ChipConfig, Direction, Hemisphere, Slice, StreamGroup, StreamId, StreamRange, Vector,
};
use tsp_isa::{
    AccumulateMode, AluIndex, BinaryAluOp, C2cOp, DataType, IcuOp, Instruction, LinkId, MemAddr,
    MemOp, MxmOp, PermuteMap, Plane, SxmOp, UnaryAluOp, VxmOp, D_READ, MXM_ARRAY_DELAY,
};
use tsp_mem::GlobalAddress;
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, IcuId, Program, SimError, StreamWord};

include!("../../isa/src/encode/samples.rs");

/// Where the instruction under test dispatches: late enough for any operand
/// to be read and carried to it.
const START: u64 = 200;

/// What a run found missing; the next build feeds it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Need {
    /// A word on `stream` at `position` at `cycle`.
    Stream {
        stream: StreamId,
        position: u8,
        cycle: u64,
    },
    /// A result pending on `plane` at `cycle`.
    Result { plane: u8, cycle: u64 },
    /// A vector arrived on `link` by `cycle`.
    Link { link: u8, cycle: u64 },
}

/// Every word fed: `0xFF` in the even lanes. As instruction text it is a pad
/// byte (an `Ifetch` of nothing); as a gather map it addresses word 255.
fn fill() -> Vector {
    Vector::from_fn(|lane| if lane % 2 == 0 { 0xFF } else { 0 })
}

/// The MEM slice that feeds `stream`: one per stream, far upstream, at
/// positions 2..=33 (eastward) or 59..=90 (westward), none a queue under
/// test.
fn feeder(stream: StreamId) -> (Hemisphere, u8) {
    match stream.direction {
        Direction::East => (Hemisphere::West, 43 - stream.id),
        Direction::West => (Hemisphere::East, 43 - stream.id),
    }
}

/// An instruction `icu` cannot run: dispatching it raises `WrongSlice` at its
/// dispatch cycle.
fn probe(icu: IcuId) -> Instruction {
    let probe = samples().into_iter().find(|i| !i.runs_on(icu));
    probe.expect("an instruction of another area")
}

/// `body` on `icu` from [`START`], then its probe, with `needs` fed; and the
/// cycle the builder promised the probe. `None` if a need cannot be fed.
fn build(body: &[Instruction], icu: IcuId, needs: &[Need]) -> Option<(Chip, Program, u64)> {
    let mut chip = Chip::new(ChipConfig::asic());
    let mut program = Program::new();
    let mut queue = program.builder(icu);
    queue.pad_to(START);
    for instruction in body {
        queue.push(instruction.clone());
    }
    let promised = queue.push(probe(icu));
    let mut feeds: Vec<(u64, IcuId, Instruction)> = Vec::new();
    for &need in needs {
        match need {
            Need::Stream {
                stream,
                position,
                cycle,
            } => {
                let (hemisphere, index) = feeder(stream);
                let from = Slice::mem(hemisphere, index).position().0;
                let upstream = match stream.direction {
                    Direction::East => from < position,
                    Direction::West => from > position,
                };
                if !upstream {
                    return None;
                }
                let addr = MemAddr::new(0);
                chip.memory
                    .write(GlobalAddress::new(hemisphere, index, addr), fill());
                let mem = IcuId::Mem { hemisphere, index };
                let at = cycle - D_READ - u64::from(from.abs_diff(position));
                feeds.push((at, mem, MemOp::Read { addr, stream }.into()));
                // A word a cycle for as long as the longest burst.
                feeds.push((at + 1, mem, IcuOp::Repeat { n: 319, d: 1 }.into()));
            }
            Need::Result { plane, cycle } => {
                let plane = Plane::new(plane);
                let direction = match plane.hemisphere() {
                    Hemisphere::West => Direction::West,
                    Hemisphere::East => Direction::East,
                };
                let abc = MxmOp::ActivationBuffer {
                    plane,
                    stream: StreamId::new(31, direction),
                    rows: 320,
                };
                let at = cycle - u64::from(MXM_ARRAY_DELAY);
                feeds.push((at, IcuId::Mxm { plane, port: 3 }, abc.into()));
            }
            Need::Link { link, cycle } => {
                let word = Arc::new(StreamWord::protect(fill()));
                chip.inject_ingress(LinkId::new(link), cycle, word);
            }
        }
    }
    feeds.sort_by_key(|&(at, ..)| at);
    for (at, icu, instruction) in feeds {
        program.builder(icu).push_at(at, instruction);
    }
    Some((chip, program, promised))
}

/// Runs `body` and the probe on `icu`, feeding what each run finds missing,
/// until the probe stops it: the cycle promised and the error raised. `None`
/// if `icu` cannot be fed.
fn run(body: &[Instruction], icu: IcuId, decoded: bool) -> Option<(u64, SimError)> {
    let mut needs = Vec::new();
    loop {
        let (mut chip, program, promised) = build(body, icu, &needs)?;
        let options = RunOptions {
            decoded,
            ..RunOptions::default()
        };
        let error = chip
            .run(&program, &options)
            .expect_err("the probe cannot run");
        let need = match error {
            SimError::EmptyStreamRead {
                stream,
                position,
                cycle,
                ..
            } => Need::Stream {
                stream,
                position: position.0,
                cycle,
            },
            SimError::AccumulatorEmpty { plane, cycle } => Need::Result { plane, cycle },
            SimError::LinkEmpty { link, cycle } => Need::Link { link, cycle },
            error => return Some((promised, error)),
        };
        assert!(!needs.contains(&need), "{need:?} fed, and still missing");
        needs.push(need);
    }
}

/// After every sample instruction — and after `Repeat 0,d`, whose occupancy
/// is a case of its own — the next instruction on the queue dispatches when
/// the builder promised, on both cursors. `Sync` and `Notify` are left out:
/// their queues wait on the barrier, which no occupancy books.
#[test]
fn the_next_instruction_dispatches_when_the_builder_promised() {
    let mut cases = samples();
    cases.push(IcuOp::Repeat { n: 0, d: 3 }.into());
    let mut broken = Vec::new();
    for instruction in cases {
        let body = match instruction {
            Instruction::Icu(IcuOp::Sync | IcuOp::Notify) => continue,
            // What is repeated is a `Read`, which needs no operand.
            Instruction::Icu(IcuOp::Repeat { .. }) => {
                let read = MemOp::Read {
                    addr: MemAddr::new(0),
                    stream: StreamId::east(0),
                };
                vec![read.into(), instruction.clone()]
            }
            _ => vec![instruction.clone()],
        };
        for decoded in [true, false] {
            let (icu, (promised, error)) = IcuId::all()
                .filter(|icu| instruction.runs_on(*icu))
                .find_map(|icu| Some((icu, run(&body, icu, decoded)?)))
                .unwrap_or_else(|| panic!("no queue that runs {instruction} can be fed"));
            let SimError::WrongSlice {
                instruction: stopped,
                cycle,
                ..
            } = error
            else {
                panic!("{instruction} on {icu}: {error}");
            };
            assert_eq!(stopped, probe(icu).to_string(), "{instruction} on {icu}");
            if cycle != promised {
                let cursor = if decoded { "decoded" } else { "interpreted" };
                broken.push(format!(
                    "{instruction} on {icu} ({cursor}): the next dispatched at {cycle}, \
                     promised {promised}"
                ));
            }
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}
