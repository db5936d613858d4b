//! Decoded-vs-interpreted equivalence: the pre-decoded dispatch path
//! ([`Chip::run_decoded`]) must be bit-identical to the interpreted
//! reference oracle ([`Chip::run_interpreted`]) — cycles, result vectors,
//! telemetry counters, trace bytes, bandwidth meters, fault accounting, and
//! errors — on hand-built programs, under seeded fault plans, and on random
//! programs (valid or not: invalid schedules must raise the *same* error at
//! the same point on both paths).

use proptest::prelude::*;
use tsp_arch::{ChipConfig, Hemisphere, Slice, StreamGroup, StreamId, Vector};
use tsp_isa::{AluIndex, BinaryAluOp, DataType, IcuOp, MemAddr, MemOp, UnaryAluOp, VxmOp};
use tsp_mem::GlobalAddress;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::faults::{FaultPlan, PlanSpec};
use tsp_sim::{perfetto_json, Chip, DecodedProgram, IcuId, Program, SimError};

fn mem_icu(h: Hemisphere, i: u8) -> IcuId {
    IcuId::Mem {
        hemisphere: h,
        index: i,
    }
}

fn ga(h: Hemisphere, slice: u8, word: u16) -> GlobalAddress {
    GlobalAddress::new(h, slice, MemAddr::new(word))
}

fn sg1(s: StreamId) -> StreamGroup {
    StreamGroup::new(s, 1)
}

/// Asserts two run outcomes are bit-identical in every observable dimension.
fn assert_reports_identical(
    decoded: &Result<RunReport, SimError>,
    interpreted: &Result<RunReport, SimError>,
) {
    match (decoded, interpreted) {
        (Ok(d), Ok(i)) => {
            assert_eq!(d.cycles, i.cycles, "completion cycle");
            assert_eq!(d.instructions, i.instructions, "instruction count");
            assert_eq!(d.nops, i.nops, "NOP count");
            assert_eq!(d.telemetry, i.telemetry, "telemetry counters");
            assert_eq!(d.trace.events(), i.trace.events(), "trace events");
            assert_eq!(
                d.trace.total_recorded(),
                i.trace.total_recorded(),
                "trace totals"
            );
            assert_eq!(
                d.trace.dropped_events(),
                i.trace.dropped_events(),
                "trace overflow"
            );
            assert_eq!(
                perfetto_json(&d.trace),
                perfetto_json(&i.trace),
                "trace bytes"
            );
            assert_eq!(d.bandwidth, i.bandwidth, "bandwidth meters");
            assert_eq!(d.ecc_corrected, i.ecc_corrected, "ECC corrections");
            assert_eq!(d.faults_applied, i.faults_applied, "faults applied");
            assert_eq!(d.faults_vacant, i.faults_vacant, "faults vacant");
            assert_eq!(d.egress.len(), i.egress.len(), "egress count");
            for (dw, iw) in d.egress.iter().zip(&i.egress) {
                assert_eq!(dw.0, iw.0, "egress link");
                assert_eq!(dw.1, iw.1, "egress cycle");
                assert_eq!(*dw.2, *iw.2, "egress word");
            }
        }
        (Err(d), Err(i)) => {
            assert_eq!(format!("{d:?}"), format!("{i:?}"), "error");
        }
        (d, i) => panic!("outcome mismatch: decoded {d:?} vs interpreted {i:?}"),
    }
}

/// Runs `program` twice from identical initial state (seeded by `seed_mem`)
/// — once decoded, once interpreted — asserts bit-identical outcomes, and
/// returns both chips for memory-state comparison.
fn run_both(
    program: &Program,
    options: &RunOptions,
    seed_mem: impl Fn(&mut Chip),
) -> (Chip, Chip, Result<RunReport, SimError>) {
    let decoded = DecodedProgram::decode(program);
    assert_eq!(
        decoded.len(),
        decoded
            .queues()
            .iter()
            .map(|(_, q)| q.ops.len())
            .sum::<usize>()
    );

    let mut chip_d = Chip::new(ChipConfig::asic());
    seed_mem(&mut chip_d);
    let rd = chip_d.run_decoded(&decoded, options);

    let mut chip_i = Chip::new(ChipConfig::asic());
    seed_mem(&mut chip_i);
    let ri = chip_i.run_interpreted(program, options);

    assert_reports_identical(&rd, &ri);
    (chip_d, chip_i, rd)
}

/// The Fig. 3 vector-add: Z = X + Y through MEM_E4/E5 → VXM → MEM_E6.
fn vector_add_program() -> Program {
    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 4)).push_at(
        2,
        MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(0),
        },
    );
    p.builder(mem_icu(Hemisphere::East, 5)).push_at(
        1,
        MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(1),
        },
    );
    p.builder(IcuId::Vxm {
        alu: AluIndex::new(0),
    })
    .push_at(
        12,
        VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int8,
            a: sg1(StreamId::west(0)),
            b: sg1(StreamId::west(1)),
            dst: sg1(StreamId::east(2)),
            alu: AluIndex::new(0),
        },
    );
    p.builder(mem_icu(Hemisphere::East, 6)).push_at(
        23,
        MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::east(2),
        },
    );
    p
}

fn seed_xy(chip: &mut Chip) {
    chip.memory.write(
        ga(Hemisphere::East, 4, 0),
        Vector::from_fn(|i| (i % 100) as u8),
    );
    chip.memory.write(
        ga(Hemisphere::East, 5, 0),
        Vector::from_fn(|i| (i % 27) as u8),
    );
}

#[test]
fn vector_add_equivalent_with_trace() {
    let options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let (chip_d, chip_i, report) = run_both(&vector_add_program(), &options, seed_xy);
    let report = report.expect("valid schedule");
    assert!(report.instructions > 0);
    // Result vectors: same Z in both chips' memory.
    let zd = chip_d.memory.read_unchecked(ga(Hemisphere::East, 6, 0));
    let zi = chip_i.memory.read_unchecked(ga(Hemisphere::East, 6, 0));
    assert_eq!(zd, zi, "result vector");
}

/// A seeded fault plan drawn over the vector-add window: both dispatch paths
/// must strike the same sites at the same cycles and account identically.
#[test]
fn vector_add_equivalent_under_seeded_fault_plan() {
    for seed in [7u64, 1234, 0xDEAD_BEEF] {
        let plan = FaultPlan::generate(
            seed,
            &PlanSpec {
                cycles: 0..40,
                sram_data: 3,
                sram_check: 2,
                stream_upsets: 3,
                sram_words: 2,
            },
        );
        assert!(!plan.is_empty());
        let options = RunOptions {
            trace: true,
            faults: plan,
            ..RunOptions::default()
        };
        let (chip_d, chip_i, _) = run_both(&vector_add_program(), &options, seed_xy);
        let zd = chip_d.memory.read_unchecked(ga(Hemisphere::East, 6, 0));
        let zi = chip_i.memory.read_unchecked(ga(Hemisphere::East, 6, 0));
        assert_eq!(zd, zi, "result vector under faults, seed {seed}");
    }
}

/// Timing-only (non-functional) sweeps take a different data-path shortcut;
/// the two dispatch paths must still agree bit-for-bit.
#[test]
fn vector_add_equivalent_timing_only() {
    let options = RunOptions {
        functional: false,
        trace: true,
        ..RunOptions::default()
    };
    let _ = run_both(&vector_add_program(), &options, seed_xy);
}

/// A mistimed consumer raises the same scheduling error on both paths.
#[test]
fn mistimed_consumer_same_error() {
    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 4)).push(MemOp::Read {
        addr: MemAddr::new(0),
        stream: StreamId::west(0),
    });
    p.builder(IcuId::Vxm {
        alu: AluIndex::new(0),
    })
    .push_at(
        11, // correct arrival is 10
        VxmOp::Unary {
            op: UnaryAluOp::Mask,
            dtype: DataType::Int8,
            src: sg1(StreamId::west(0)),
            dst: sg1(StreamId::east(1)),
            alu: AluIndex::new(0),
        },
    );
    let (_, _, outcome) = run_both(&p, &RunOptions::default(), |chip| {
        chip.memory
            .write(ga(Hemisphere::East, 4, 0), Vector::splat(1));
    });
    assert!(outcome.is_err(), "mistimed consumer must fault");
}

/// Plane 2 installs a full 20-cycle load of seeded weights, then a 4-cycle
/// load of others (array rows 0..64), and streams one seeded activation
/// through them; the int32 result's four byte planes land at word 0 of
/// MEM_E20–E23. Returns the program and the words it reads, to seed.
fn short_weight_load_program(seed: u64) -> (Program, Vec<(GlobalAddress, Vector)>) {
    use tsp_isa::{AccumulateMode, MxmOp, Plane, MXM_ARRAY_DELAY};
    const E: Hemisphere = Hemisphere::East;
    let mxm = Slice::Mxm(E).position().0;
    let mut state = seed;
    let mut draw = move || {
        // SplitMix64: a vector of small signed bytes per draw.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Vector::from_fn(|i| (z.rotate_left(i as u32 % 64) as i8 >> 4) as u8)
    };
    let (mut p, mut words) = (Program::new(), Vec::new());
    // Row `r` of stream `j` (word `r` of MEM_Ej) reaches the MXM at `at`.
    let mut feed = |p: &mut Program, slice: u8, word: u16, at: u64, v: Vector| {
        let pos = Slice::mem(E, slice).position().0;
        let stream = StreamId::east(slice);
        let read = MemOp::Read {
            addr: MemAddr::new(word),
            stream,
        };
        p.builder(mem_icu(E, slice))
            .push_at(at - 5 - u64::from(mxm - pos), read);
        words.push((ga(E, slice, word), v));
        stream
    };
    let port = |port: u8| IcuId::Mxm {
        plane: Plane::new(2),
        port,
    };
    let plane = Plane::new(2);
    for (at, cycles, first) in [(100u64, 20u8, 0u16), (130, 4, 20)] {
        for r in 0..cycles {
            for j in 0..16 {
                feed(&mut p, j, first + u16::from(r), at + u64::from(r), draw());
            }
        }
        let streams = StreamGroup::new(StreamId::east(0), 16);
        let lw = MxmOp::LoadWeights {
            plane,
            streams,
            rows: cycles,
        };
        p.builder(port(0)).push_at(at, lw);
        let iw = MxmOp::InstallWeights {
            plane,
            dtype: DataType::Int8,
        };
        p.builder(port(1)).push_at(at + u64::from(cycles), iw);
    }
    let stream = feed(&mut p, 16, 0, 140, draw());
    let abc = MxmOp::ActivationBuffer {
        plane,
        stream,
        rows: 1,
    };
    p.builder(port(2)).push_at(140, abc);
    let t_acc = 140 + u64::from(MXM_ARRAY_DELAY);
    let acc = MxmOp::Accumulate {
        plane,
        dst: StreamGroup::new(StreamId::west(0), 4),
        rows: 1,
        mode: AccumulateMode::Overwrite,
    };
    p.builder(port(3)).push_at(t_acc, acc);
    for k in 0..4u8 {
        let pos = Slice::mem(E, 20 + k).position().0;
        let write = MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::west(k),
        };
        p.builder(mem_icu(E, 20 + k))
            .push_at(t_acc + 1 + u64::from(mxm - pos), write);
    }
    (p, words)
}

/// Short weight loads (fewer than 20 cycles) run identically on both
/// dispatch paths: the same results, and on both the buffer rows the short
/// load skips install as zeros — result lanes 64 and up read zero.
#[test]
fn short_weight_load_equivalent() {
    for seed in [3u64, 77, 0xC0FF_EE00] {
        let (program, words) = short_weight_load_program(seed);
        let options = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        let (chip_d, chip_i, report) = run_both(&program, &options, |chip| {
            for (addr, v) in &words {
                chip.memory.write(*addr, v.clone());
            }
        });
        report.expect("valid schedule");
        for k in 0..4u8 {
            let at = ga(Hemisphere::East, 20 + k, 0);
            let (d, i) = (
                chip_d.memory.read_unchecked(at),
                chip_i.memory.read_unchecked(at),
            );
            assert_eq!(d, i, "byte plane {k}, seed {seed}");
            assert!(
                d.as_bytes()[64..].iter().all(|&b| b == 0),
                "seed {seed}: a lane past the short load's rows carries a product"
            );
        }
    }
}

/// One pseudo-random instruction drawn from a small pool. The schedule is
/// *not* guaranteed valid — that is the point: valid programs must produce
/// identical reports, invalid ones identical errors. A `Vxm` pick is one
/// [`vxm_op`]; each of its operand streams is read from a slice of its own
/// so that it reaches the ALU as it dispatches.
#[derive(Debug, Clone)]
enum Pick {
    Nop { count: u16 },
    Read { slice: u8, word: u16, stream: u8 },
    Write { slice: u8, word: u16, stream: u8 },
    Vxm(VxmOp),
}

const DTYPES: [DataType; 5] = [
    DataType::Int8,
    DataType::Int16,
    DataType::Int32,
    DataType::Fp16,
    DataType::Fp32,
];
const UNARY: [UnaryAluOp; 7] = [
    UnaryAluOp::Mask,
    UnaryAluOp::Negate,
    UnaryAluOp::Abs,
    UnaryAluOp::Relu,
    UnaryAluOp::Tanh,
    UnaryAluOp::Exp,
    UnaryAluOp::Rsqrt,
];
const BINARY: [BinaryAluOp; 8] = [
    BinaryAluOp::AddSat,
    BinaryAluOp::AddMod,
    BinaryAluOp::SubSat,
    BinaryAluOp::SubMod,
    BinaryAluOp::MulSat,
    BinaryAluOp::MulMod,
    BinaryAluOp::Max,
    BinaryAluOp::Min,
];

fn arb_pick() -> impl Strategy<Value = Pick> {
    prop_oneof![
        (1u16..4).prop_map(|count| Pick::Nop { count }),
        (4u8..8, 0u16..4, 0u8..4).prop_map(|(slice, word, stream)| Pick::Read {
            slice,
            word,
            stream
        }),
        (4u8..8, 0u16..4, 0u8..4).prop_map(|(slice, word, stream)| Pick::Write {
            slice,
            word,
            stream
        }),
        arb_vxm(),
        arb_vxm(),
    ]
}

/// [`Pick::Vxm`], which [`arb_pick`] draws twice as often as the others.
fn arb_vxm() -> impl Strategy<Value = Pick> {
    (
        0u8..3,
        any::<u8>(),
        (0u8..5, 0u8..5),
        any::<i8>(),
        any::<[u8; 3]>(),
    )
        .prop_map(|(kind, op, dtypes, shift, widths)| {
            Pick::Vxm(vxm_op(kind, op, dtypes, shift, widths))
        })
}

/// A `VxmOp` of any kind (`kind % 3`) at any dtype and any shift: operand
/// `a` on west streams from 0, `b` from 4, the result on east streams from
/// 0. Each group is as wide as its dtype half the time, else 1, 2 or 4
/// streams whatever the dtype.
fn vxm_op(kind: u8, op: u8, (from, to): (u8, u8), shift: i8, widths: [u8; 3]) -> VxmOp {
    let (dtype, to) = (DTYPES[usize::from(from)], DTYPES[usize::from(to)]);
    let out = if kind == 2 { to } else { dtype };
    let width = |w: u8, dtype: DataType| {
        let natural = dtype.stream_width();
        [natural, natural, 1, 2, 4, natural][usize::from(w % 6)]
    };
    let a = StreamGroup::new(StreamId::west(0), width(widths[0], dtype));
    let b = StreamGroup::new(StreamId::west(4), width(widths[1], dtype));
    let dst = StreamGroup::new(StreamId::east(0), width(widths[2], out));
    let alu = AluIndex::new(0);
    match kind {
        0 => VxmOp::Unary {
            op: UNARY[usize::from(op) % UNARY.len()],
            dtype,
            src: a,
            dst,
            alu,
        },
        1 => VxmOp::Binary {
            op: BINARY[usize::from(op) % BINARY.len()],
            dtype,
            a,
            b,
            dst,
            alu,
        },
        _ => VxmOp::Convert {
            from: dtype,
            to,
            src: a,
            dst,
            shift,
            alu,
        },
    }
}

/// Builds a program from random picks, spread over random dispatch cycles
/// across a handful of MEM queues and one VXM queue. Requested cycles are
/// clamped forward to the queue's current time (a queue cannot pad into its
/// own past), so any pick sequence is constructible.
fn build_random_program(picks: &[(Pick, u8, u64)]) -> Program {
    let mut p = Program::new();
    for (pick, queue_sel, at) in picks {
        match *pick {
            Pick::Nop { count } => {
                let mut b = p.builder(mem_icu(Hemisphere::East, 4 + queue_sel % 4));
                b.push_at((*at).max(b.time()), IcuOp::Nop { count });
            }
            Pick::Read {
                slice,
                word,
                stream,
            } => {
                let mut b = p.builder(mem_icu(Hemisphere::East, slice));
                b.push_at(
                    (*at).max(b.time()),
                    MemOp::Read {
                        addr: MemAddr::new(word),
                        stream: StreamId::west(stream),
                    },
                );
            }
            Pick::Write {
                slice,
                word,
                stream,
            } => {
                let mut b = p.builder(mem_icu(Hemisphere::East, slice));
                b.push_at(
                    (*at).max(b.time()),
                    MemOp::Write {
                        addr: MemAddr::new(word),
                        stream: StreamId::west(stream),
                    },
                );
            }
            Pick::Vxm(op) => {
                let mut b = p.builder(IcuId::Vxm {
                    alu: AluIndex::new(0),
                });
                let t = (*at + 32).max(b.time());
                b.push_at(t, op);
                let operands = match op {
                    VxmOp::Binary { a, b, .. } => vec![a, b],
                    VxmOp::Unary { src, .. } | VxmOp::Convert { src, .. } => vec![src],
                };
                let vxm = Slice::Vxm.position().0;
                for stream in operands.into_iter().flat_map(StreamGroup::streams) {
                    // Stream `i` is read from slice E8+i: a 5-cycle read,
                    // then one hop a slice to the VXM.
                    let slice = 8 + stream.id;
                    let hops = Slice::mem(Hemisphere::East, slice).position().0 - vxm;
                    let mut b = p.builder(mem_icu(Hemisphere::East, slice));
                    b.push_at(
                        (t - 5 - u64::from(hops)).max(b.time()),
                        MemOp::Read {
                            addr: MemAddr::new(u16::from(*queue_sel % 4)),
                            stream,
                        },
                    );
                }
            }
        }
    }
    p
}

/// Seeds words 0–3 of MEM_E4 to MEM_E15 (the picks' read slices).
fn seed_slices(chip: &mut Chip, fill: impl Fn(u8, u16) -> Vector) {
    for slice in 4..16u8 {
        for word in 0..4u16 {
            chip.memory
                .write(ga(Hemisphere::East, slice, word), fill(slice, word));
        }
    }
}

proptest! {
    /// Random small programs — valid or not, functional or timing-only —
    /// produce bit-identical outcomes on the decoded and interpreted paths.
    #[test]
    fn random_programs_equivalent(
        picks in proptest::collection::vec((arb_pick(), 0u8..4, 0u64..48), 1..12),
        tag in any::<u8>(),
        functional in any::<bool>(),
    ) {
        let p = build_random_program(&picks);
        let options = RunOptions {
            trace: true,
            cycle_limit: 10_000,
            functional,
            ..RunOptions::default()
        };
        let _ = run_both(&p, &options, |chip| {
            seed_slices(chip, |slice, _| {
                Vector::from_fn(|i| (i as u8).wrapping_mul(tag).wrapping_add(slice))
            });
        });
    }

    /// Random programs under random seeded fault plans stay equivalent.
    #[test]
    fn random_programs_equivalent_under_faults(
        picks in proptest::collection::vec((arb_pick(), 0u8..4, 0u64..48), 1..10),
        seed in any::<u64>(),
    ) {
        let p = build_random_program(&picks);
        let plan = FaultPlan::generate(
            seed,
            &PlanSpec {
                cycles: 0..64,
                sram_data: 2,
                sram_check: 1,
                stream_upsets: 2,
                sram_words: 4,
            },
        );
        let options = RunOptions {
            trace: true,
            cycle_limit: 10_000,
            faults: plan,
            ..RunOptions::default()
        };
        let _ = run_both(&p, &options, |chip| {
            seed_slices(chip, |slice, word| Vector::splat(slice ^ word as u8));
        });
    }
}
