//! End-to-end chip execution tests with hand-scheduled programs.
//!
//! These exercise the full dispatch → stream → functional-unit → memory path
//! and pin down the timing contract the compiler relies on (Eq. 4).

use tsp_arch::{ChipConfig, Hemisphere, Slice, StreamGroup, StreamId, Vector};
use tsp_isa::mem::map_vector;
use tsp_isa::{AluIndex, BinaryAluOp, DataType, IcuOp, MemAddr, MemOp, SxmOp, VxmOp};
use tsp_mem::GlobalAddress;
use tsp_sim::chip::RunOptions;
use tsp_sim::{Chip, IcuId, Program, SimError};

fn mem_icu(h: Hemisphere, i: u8) -> IcuId {
    IcuId::Mem {
        hemisphere: h,
        index: i,
    }
}

fn vxm_icu(alu: u8) -> IcuId {
    IcuId::Vxm {
        alu: AluIndex::new(alu),
    }
}

fn ga(h: Hemisphere, slice: u8, word: u16) -> GlobalAddress {
    GlobalAddress::new(h, slice, MemAddr::new(word))
}

fn sg1(s: StreamId) -> StreamGroup {
    StreamGroup::new(s, 1)
}

/// Transit hops from a MEM slice to the VXM (index + 1).
fn hops_to_vxm(index: u8) -> u64 {
    u64::from(index) + 1
}

/// The paper's Fig. 3 example: Z = X + Y as four instructions on streams.
/// X in MEM_E4, Y in MEM_E5, Z to MEM_E6; operands flow west into the VXM,
/// the sum flows east back out.
#[test]
fn streaming_vector_add_z_x_plus_y() {
    let mut chip = Chip::new(ChipConfig::asic());
    let x = Vector::from_fn(|i| (i % 100) as u8);
    let y = Vector::from_fn(|i| (i % 27) as u8);
    chip.memory.write(ga(Hemisphere::East, 4, 0), x.clone());
    chip.memory.write(ga(Hemisphere::East, 5, 0), y.clone());

    let read_dfunc = 5u64;
    let add_dfunc = 4u64;

    // Arrange both operands to reach the VXM at the same cycle T.
    let t_arrive = 1 + read_dfunc + hops_to_vxm(5); // slice 5 reads at t=1
    let t4 = t_arrive - read_dfunc - hops_to_vxm(4); // slice 4 dispatches later

    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 4)).push_at(
        t4,
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
    p.builder(vxm_icu(0)).push_at(
        t_arrive,
        VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int8,
            a: sg1(StreamId::west(0)),
            b: sg1(StreamId::west(1)),
            dst: sg1(StreamId::east(2)),
            alu: AluIndex::new(0),
        },
    );
    // Result appears on S2.E at the VXM at t_arrive + 4, reaching MEM_E6
    // (7 hops east of the VXM) 7 cycles later.
    let t_write = t_arrive + add_dfunc + hops_to_vxm(6);
    p.builder(mem_icu(Hemisphere::East, 6)).push_at(
        t_write,
        MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::east(2),
        },
    );

    let report = chip.run(&p, &RunOptions::default()).expect("run");
    let z = chip.memory.read_unchecked(ga(Hemisphere::East, 6, 0));
    let expect = x.zip_map_i8(&y, i8::saturating_add);
    assert_eq!(z, expect);
    // Completion = write effect (t_write + 1) + 20-tile drain.
    assert_eq!(report.cycles, t_write + 1 + 20);
    assert_eq!(report.instructions, 4);
}

/// Consuming a stream slot one cycle off the scheduled time is an error, not
/// a stall: the hardware has nothing to stall *with*.
#[test]
fn mistimed_consumer_faults() {
    let mut chip = Chip::new(ChipConfig::asic());
    chip.memory
        .write(ga(Hemisphere::East, 4, 0), Vector::splat(1));

    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 4)).push(MemOp::Read {
        addr: MemAddr::new(0),
        stream: StreamId::west(0),
    });
    // Correct arrival at the VXM would be 0 + 5 + 5 = 10; dispatch at 11.
    p.builder(vxm_icu(0)).push_at(
        11,
        VxmOp::Unary {
            op: tsp_isa::UnaryAluOp::Mask,
            dtype: DataType::Int8,
            src: sg1(StreamId::west(0)),
            dst: sg1(StreamId::east(1)),
            alu: AluIndex::new(0),
        },
    );
    let err = chip.run(&p, &RunOptions::default()).unwrap_err();
    assert!(
        matches!(err, SimError::EmptyStreamRead { cycle: 11, .. }),
        "{err}"
    );
}

/// A chip-wide barrier costs 35 cycles from Notify to Sync-retire
/// (paper §III-A2).
#[test]
fn barrier_takes_35_cycles() {
    let mut chip = Chip::new(ChipConfig::asic());
    chip.memory
        .write(ga(Hemisphere::West, 0, 0), Vector::splat(9));

    let mut p = Program::new();
    // The synced queue reads immediately after the barrier releases it.
    p.builder(mem_icu(Hemisphere::West, 0)).push(MemOp::Read {
        addr: MemAddr::new(0),
        stream: StreamId::east(0),
    });
    let p = p.with_start_barrier(IcuId::Host { port: 0 });

    let report = chip.run(&p, &RunOptions::default()).expect("run");
    // Notify at 0 → Sync retires at 35 → Read dispatches at 35, effect 40;
    // completion = 40 + 20.
    assert_eq!(report.cycles, 35 + 5 + 20);
}

/// Sync with no Notify anywhere deadlocks deterministically.
#[test]
fn sync_without_notify_is_deadlock() {
    let mut chip = Chip::new(ChipConfig::asic());
    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::West, 0)).push(IcuOp::Sync);
    let err = chip.run(&p, &RunOptions::default()).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { parked: 1, .. }));
}

/// `Read; Repeat n,1` streams a contiguous region one vector per cycle with
/// auto-incrementing addresses.
#[test]
fn repeat_streams_consecutive_addresses() {
    let mut chip = Chip::new(ChipConfig::asic());
    for w in 0..4u16 {
        chip.memory
            .write(ga(Hemisphere::East, 0, w), Vector::splat(10 + w as u8));
    }
    let mut p = Program::new();
    {
        let mut b = p.builder(mem_icu(Hemisphere::East, 0));
        b.push(MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(0),
        });
        b.push(IcuOp::Repeat { n: 3, d: 0 });
    }
    // Four vectors arrive at the VXM (1 hop) on cycles 6,7,8,9; four writes
    // back east into MEM_E1 via VXM mask.
    for (i, t) in (6u64..10).enumerate() {
        p.builder(vxm_icu(i as u8)).push_at(
            t,
            VxmOp::Unary {
                op: tsp_isa::UnaryAluOp::Mask,
                dtype: DataType::Int8,
                src: sg1(StreamId::west(0)),
                dst: sg1(StreamId::east(i as u8)),
                alu: AluIndex::new(i as u8),
            },
        );
    }
    for i in 0..4u64 {
        // mask d_func = 4; VXM at 46 → MEM_E1 at 48 = 2 hops.
        let t_write = (6 + i) + 4 + 2;
        p.builder(mem_icu(Hemisphere::East, 1)).push_at(
            t_write,
            MemOp::Write {
                addr: MemAddr::new(i as u16),
                stream: StreamId::east(i as u8),
            },
        );
    }
    chip.run(&p, &RunOptions::default()).expect("run");
    for w in 0..4u16 {
        assert_eq!(
            chip.memory.read_unchecked(ga(Hemisphere::East, 1, w)),
            Vector::splat(10 + w as u8),
            "word {w}"
        );
    }
}

/// A gather fixture: MEM_W3 words 100..108 hold distinct fills, MEM_W5 word
/// 0 a map making superlane `s` fetch word `100 + s % 8`; the program
/// gathers once and commits the result (through a VXM mask) to MEM_E0 word 0.
fn gather_fixture() -> (Chip, Program) {
    gather_fixture_with(true)
}

/// [`gather_fixture`], optionally without the `Read` that streams the map.
fn gather_fixture_with(map_read: bool) -> (Chip, Program) {
    let mut chip = Chip::new(ChipConfig::asic());
    for w in 0..8u16 {
        chip.memory
            .write(ga(Hemisphere::West, 3, 100 + w), Vector::splat(w as u8 + 1));
    }
    let map = map_vector(std::array::from_fn(|s| MemAddr::new(100 + (s % 8) as u16)));
    chip.memory.write(ga(Hemisphere::West, 5, 0), map);

    let mut p = Program::new();
    // MEM_W5 (pos 40) sends the map east; MEM_W3 (pos 42) gathers with it.
    if map_read {
        p.builder(mem_icu(Hemisphere::West, 5)).push(MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::east(7),
        });
    }
    // Map value at pos 40 at cycle 5 → at pos 42 (MEM_W3) at cycle 7.
    p.builder(mem_icu(Hemisphere::West, 3)).push_at(
        7,
        MemOp::Gather {
            stream: StreamId::east(8),
            map: StreamId::east(7),
        },
    );
    // Gathered vector appears at pos 42 at 7 + 7 = 14; VXM (46) at 18; write
    // via mask into MEM_E0 (47): 18 + 4 + 1 = 23.
    p.builder(vxm_icu(0)).push_at(
        18,
        VxmOp::Unary {
            op: tsp_isa::UnaryAluOp::Mask,
            dtype: DataType::Int8,
            src: sg1(StreamId::east(8)),
            dst: sg1(StreamId::east(9)),
            alu: AluIndex::new(0),
        },
    );
    p.builder(mem_icu(Hemisphere::East, 0)).push_at(
        23,
        MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::east(9),
        },
    );
    (chip, p)
}

/// Superlane `s` of the fixture's result holds fill `s % 8 + 1`.
fn assert_gathered(chip: &Chip) {
    let got = chip.memory.read_unchecked(ga(Hemisphere::East, 0, 0));
    for s in 0..20usize {
        let expect = (s % 8) as u8 + 1;
        assert!(
            got.superlane(s).iter().all(|&b| b == expect),
            "superlane {s}: {:?}",
            got.superlane(s)
        );
    }
}

/// Gather assembles per-superlane words via a stream-carried address map.
#[test]
fn gather_indirect_read() {
    let (mut chip, p) = gather_fixture();
    let report = chip.run(&p, &RunOptions::default()).expect("run");
    assert_gathered(&chip);
    // The map read and the gather both forwarded pristine words.
    assert_eq!(report.telemetry.mem_reads_pristine, 2);
    assert_eq!(report.telemetry.mem_reads_verified, 0);
}

/// Gather forwards each superlane's *stored* check bits: a latent single-bit
/// error under a gathered superlane is corrected by the consumer, one in a
/// superlane the gather does not fetch never reaches it, and a double-bit
/// error is detected — none is re-encoded as clean data.
#[test]
fn gather_forwards_latent_sram_errors_to_the_consumer() {
    // Word 103 is fetched by superlanes 3, 11 and 19.
    let slice = |chip: &mut Chip, lane: usize, bit: u8| {
        chip.memory
            .slice_mut(Hemisphere::West, 3)
            .inject_fault(MemAddr::new(103), lane, bit);
    };
    let (mut chip, p) = gather_fixture();
    slice(&mut chip, 3 * 16 + 2, 6);
    let report = chip.run(&p, &RunOptions::default()).expect("corrected");
    assert_gathered(&chip);
    assert_eq!(report.ecc_corrected, 1);
    assert_eq!(report.telemetry.mem_reads_verified, 1);

    let (mut chip, p) = gather_fixture();
    slice(&mut chip, 4 * 16 + 2, 6);
    let report = chip.run(&p, &RunOptions::default()).expect("clean");
    assert_gathered(&chip);
    assert_eq!(report.ecc_corrected, 0, "superlane 4 fetches word 104");
    assert_eq!(
        report.telemetry.mem_reads_verified, 1,
        "word 103 is suspect"
    );

    let (mut chip, p) = gather_fixture();
    slice(&mut chip, 11 * 16, 0);
    slice(&mut chip, 11 * 16 + 5, 3);
    let error = chip.run(&p, &RunOptions::default()).unwrap_err();
    assert!(matches!(error, SimError::Ecc { .. }), "{error}");
}

/// A timing-only gather does no functional work — it produces the shared
/// zero word — yet still consumes its map (the stream contract is checked)
/// and moves every timing observable exactly as a functional run does.
#[test]
fn timing_only_gather_produces_zero_and_keeps_time() {
    let (mut chip, p) = gather_fixture();
    let functional = chip.run(&p, &RunOptions::default()).expect("run");
    let (mut chip, p) = gather_fixture();
    let options = RunOptions {
        functional: false,
        ..RunOptions::default()
    };
    let timing = chip.run(&p, &options).expect("run");
    assert!(chip
        .memory
        .read_unchecked(ga(Hemisphere::East, 0, 0))
        .is_zero());
    assert_eq!(timing.cycles, functional.cycles);
    assert_eq!(timing.telemetry, functional.telemetry);

    // Without its map the gather faults on either path.
    let (mut chip, p) = gather_fixture_with(false);
    let error = chip.run(&p, &options).unwrap_err();
    assert!(matches!(error, SimError::EmptyStreamRead { .. }), "{error}");
}

/// SXM shift: a vector detours through the switch and comes back shifted.
#[test]
fn sxm_shift_roundtrip() {
    let mut chip = Chip::new(ChipConfig::asic());
    chip.memory
        .write(ga(Hemisphere::East, 10, 0), Vector::from_fn(|i| i as u8));

    let sxm_pos = Slice::Sxm(Hemisphere::East).position().0 as u64; // 91
    let mem10_pos = Slice::mem(Hemisphere::East, 10).position().0 as u64; // 57

    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 10)).push(MemOp::Read {
        addr: MemAddr::new(0),
        stream: StreamId::east(0),
    });
    let t_sxm = 5 + (sxm_pos - mem10_pos); // arrival at the SXM
    p.builder(IcuId::Sxm {
        hemisphere: Hemisphere::East,
        unit: 0,
    })
    .push_at(
        t_sxm,
        SxmOp::ShiftUp {
            n: 16,
            src: StreamId::east(0),
            dst: StreamId::west(1),
        },
    );
    // Shifted vector flows west; write it at MEM_E20 (pos 67).
    let mem20_pos = Slice::mem(Hemisphere::East, 20).position().0 as u64;
    let t_write = t_sxm + 3 + (sxm_pos - mem20_pos);
    p.builder(mem_icu(Hemisphere::East, 20)).push_at(
        t_write,
        MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::west(1),
        },
    );
    chip.run(&p, &RunOptions::default()).expect("run");
    let got = chip.memory.read_unchecked(ga(Hemisphere::East, 20, 0));
    assert_eq!(got.lane(0), 16);
    assert_eq!(got.lane(303), (319 % 256) as u8); // lane 303 reads input lane 319
    assert_eq!(got.lane(304), 0); // zero-filled tail
}

/// The same program produces bit-identical state and cycle counts on every
/// run — the paper's determinism claim (§IV-F).
#[test]
fn runs_are_bit_identical() {
    let build = || {
        let mut chip = Chip::new(ChipConfig::asic());
        chip.memory
            .write(ga(Hemisphere::East, 4, 0), Vector::from_fn(|i| i as u8));
        chip.memory.write(
            ga(Hemisphere::East, 5, 0),
            Vector::from_fn(|i| (i * 7) as u8),
        );
        chip
    };
    let program = {
        let mut p = Program::new();
        p.builder(mem_icu(Hemisphere::East, 4)).push_at(
            1,
            MemOp::Read {
                addr: MemAddr::new(0),
                stream: StreamId::west(0),
            },
        );
        p.builder(mem_icu(Hemisphere::East, 5)).push(MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(1),
        });
        p.builder(vxm_icu(0)).push_at(
            11,
            VxmOp::Binary {
                op: BinaryAluOp::MulMod,
                dtype: DataType::Int8,
                a: sg1(StreamId::west(0)),
                b: sg1(StreamId::west(1)),
                dst: sg1(StreamId::east(2)),
                alu: AluIndex::new(0),
            },
        );
        p.builder(mem_icu(Hemisphere::East, 6)).push_at(
            22,
            MemOp::Write {
                addr: MemAddr::new(7),
                stream: StreamId::east(2),
            },
        );
        p
    };
    let mut reference: Option<(u64, Vector)> = None;
    for _ in 0..10 {
        let mut chip = build();
        let report = chip.run(&program, &RunOptions::default()).expect("run");
        let z = chip.memory.read_unchecked(ga(Hemisphere::East, 6, 7));
        match &reference {
            None => reference = Some((report.cycles, z)),
            Some((c, v)) => {
                assert_eq!(report.cycles, *c);
                assert_eq!(&z, v);
            }
        }
    }
}

/// An injected single-bit SRAM fault is corrected by the consumer's ECC check
/// and logged in the CSR; the result is unaffected.
#[test]
fn stream_ecc_corrects_sram_fault() {
    let mut chip = Chip::new(ChipConfig::asic());
    chip.memory
        .write(ga(Hemisphere::East, 4, 0), Vector::splat(0x40));
    chip.memory
        .slice_mut(Hemisphere::East, 4)
        .inject_fault(MemAddr::new(0), 33, 2);

    let mut p = Program::new();
    p.builder(mem_icu(Hemisphere::East, 4)).push(MemOp::Read {
        addr: MemAddr::new(0),
        stream: StreamId::west(0),
    });
    p.builder(vxm_icu(0)).push_at(
        10,
        VxmOp::Unary {
            op: tsp_isa::UnaryAluOp::Mask,
            dtype: DataType::Int8,
            src: sg1(StreamId::west(0)),
            dst: sg1(StreamId::east(1)),
            alu: AluIndex::new(0),
        },
    );
    p.builder(mem_icu(Hemisphere::East, 2)).push_at(
        10 + 4 + 3,
        MemOp::Write {
            addr: MemAddr::new(0),
            stream: StreamId::east(1),
        },
    );
    let report = chip.run(&p, &RunOptions::default()).expect("run");
    assert_eq!(report.ecc_corrected, 1);
    assert_eq!(
        chip.memory.read_unchecked(ga(Hemisphere::East, 2, 0)),
        Vector::splat(0x40)
    );
}

/// Ifetch pulls encoded instruction text from a stream into the queue and the
/// fetched instructions then execute.
#[test]
fn ifetch_extends_queue() {
    let mut chip = Chip::new(ChipConfig::asic());
    chip.memory
        .write(ga(Hemisphere::East, 4, 5), Vector::splat(0x11));

    // Encode "Read 0x0005, S3.W" and park it in an instruction-dispatch
    // slice (MEM_E9), padded to the 640-byte fetch window.
    let fetched: tsp_isa::Instruction = MemOp::Read {
        addr: MemAddr::new(5),
        stream: StreamId::west(3),
    }
    .into();
    let mut text = fetched.encode();
    text.resize(640, tsp_isa::encode::FETCH_PAD);
    chip.memory
        .write(ga(Hemisphere::East, 9, 0), Vector::from_slice(&text[..320]));
    chip.memory
        .write(ga(Hemisphere::East, 9, 1), Vector::from_slice(&text[320..]));

    let mut p = Program::new();
    // MEM_E9 (pos 56) streams the two text vectors west toward MEM_E4 (pos 51).
    {
        let mut b = p.builder(mem_icu(Hemisphere::East, 9));
        b.push(MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::west(30),
        });
        b.push(MemOp::Read {
            addr: MemAddr::new(1),
            stream: StreamId::west(30),
        });
    }
    // Text vector 0 arrives at MEM_E4 at 0+5+5 = 10; Ifetch reads 10 and 11.
    {
        let mut b = p.builder(mem_icu(Hemisphere::East, 4));
        b.push_at(
            10,
            IcuOp::Ifetch {
                stream: StreamId::west(30),
            },
        );
    }
    let report = chip.run(&p, &RunOptions::default()).expect("run");
    // The fetched Read executed: its vector went west on S3 (it falls off the
    // chip edge, but the dispatch is counted and fetch bandwidth recorded).
    assert_eq!(report.instructions, 2 + 1 + 1); // two text reads + Ifetch + fetched Read
    assert_eq!(
        report
            .bandwidth
            .total(tsp_mem::bandwidth::Traffic::InstructionFetch),
        640
    );
}

/// Hand-schedules operands for [`every_unit_program`]: each `feed` stores a
/// vector in a MEM slice and times the `Read` that lands it on a stream at
/// the consumer's position at the consumer's dispatch cycle.
struct Feeder {
    chip: Chip,
    program: Program,
    /// Next free word per (hemisphere, slice).
    words: [[u16; 44]; 2],
}

impl Feeder {
    fn new() -> Feeder {
        Feeder {
            chip: Chip::new(ChipConfig::asic()),
            program: Program::new(),
            words: [[0; 44]; 2],
        }
    }

    /// The stream `id` flowing from `from` toward `to`.
    fn toward(id: u8, from: u8, to: u8) -> StreamId {
        if from < to {
            StreamId::east(id)
        } else {
            StreamId::west(id)
        }
    }

    fn feed(&mut self, h: Hemisphere, slice: u8, id: u8, consumer: u8, at: u64) -> StreamId {
        let fill = Vector::from_fn(|i| (i as u8).wrapping_mul(3).wrapping_add(slice ^ id));
        self.feed_vector(h, slice, id, consumer, at, fill)
    }

    fn feed_vector(
        &mut self,
        h: Hemisphere,
        slice: u8,
        id: u8,
        consumer: u8,
        at: u64,
        vector: Vector,
    ) -> StreamId {
        let word = &mut self.words[h.index()][slice as usize];
        let addr = *word;
        *word += 1;
        self.chip.memory.write(ga(h, slice, addr), vector);
        let pos = Slice::mem(h, slice).position().0;
        let stream = Feeder::toward(id, pos, consumer);
        self.program.builder(mem_icu(h, slice)).push_at(
            at - 5 - u64::from(pos.abs_diff(consumer)),
            MemOp::Read {
                addr: MemAddr::new(addr),
                stream,
            },
        );
        stream
    }

    /// Commits stream `id`, produced at position `producer` at cycle `at`,
    /// to word 4000 of a MEM slice.
    fn sink(&mut self, h: Hemisphere, slice: u8, id: u8, producer: u8, at: u64) {
        let pos = Slice::mem(h, slice).position().0;
        self.program.builder(mem_icu(h, slice)).push_at(
            at + u64::from(pos.abs_diff(producer)),
            MemOp::Write {
                addr: MemAddr::new(4000),
                stream: Feeder::toward(id, producer, pos),
            },
        );
    }
}

/// One program through every functional-unit body: all seven `SxmOp`s
/// (rotate 3 and 4), the three `VxmOp` kinds (a transcendental and a
/// four-wide convert among them), `Read`/`Write`/`Gather`/`Scatter`, a
/// folded `Repeat`, `LW`/`IW`/`ABC`/`ACC` in int8 and as an fp16 tandem
/// pair, and `Send`/`Receive`/`Deskew` — each section in its own time window.
fn every_unit_program() -> (Chip, Program) {
    use tsp_arch::StreamRange;
    use tsp_isa::{AccumulateMode, C2cOp, LinkId, MxmOp, PermuteMap, Plane};
    const E: Hemisphere = Hemisphere::East;
    const W: Hemisphere = Hemisphere::West;
    let mut f = Feeder::new();

    // SXM East (position 91): one op per sub-unit, operands from MEM_E.
    let sxm = Slice::Sxm(E).position().0;
    let sxm_at = |f: &mut Feeder, unit: u8, at: u64, op: SxmOp| {
        f.program
            .builder(IcuId::Sxm {
                hemisphere: E,
                unit,
            })
            .push_at(at, op);
    };
    let src = f.feed(E, 0, 0, sxm, 100);
    let dst = StreamId::west(0);
    sxm_at(&mut f, 0, 100, SxmOp::ShiftUp { n: 3, src, dst });
    f.sink(E, 20, 0, sxm, 103);
    let src = f.feed(E, 1, 1, sxm, 100);
    let dst = StreamId::west(1);
    sxm_at(&mut f, 1, 100, SxmOp::ShiftDown { n: 5, src, dst });
    let north = f.feed(E, 2, 2, sxm, 100);
    let south = f.feed(E, 3, 3, sxm, 100);
    let select = SxmOp::Select {
        north,
        south,
        boundary: 100,
        dst: StreamId::west(2),
    };
    sxm_at(&mut f, 2, 100, select);
    let src = f.feed(E, 4, 4, sxm, 100);
    let permute = SxmOp::Permute {
        map: PermuteMap::rotation(7),
        src,
        dst: StreamId::west(3),
    };
    sxm_at(&mut f, 3, 100, permute);
    let src = f.feed(E, 5, 5, sxm, 100);
    let distribute = SxmOp::Distribute {
        map: std::array::from_fn(|i| (i % 3 != 0).then_some(15 - i as u8)),
        src,
        dst: StreamId::west(4),
    };
    sxm_at(&mut f, 4, 100, distribute);
    for (unit, n, base, out) in [(5u8, 3u8, 6u8, 5u8), (6, 4, 9, 14)] {
        for i in 0..n {
            f.feed(E, base + i, base + i, sxm, 100);
        }
        let rotate = SxmOp::Rotate {
            n,
            src: StreamRange::new(StreamId::east(base), n),
            dst: StreamRange::new(StreamId::west(out), n * n),
        };
        sxm_at(&mut f, unit, 100, rotate);
    }
    for i in 0..16 {
        f.feed(E, i, i, sxm, 150);
    }
    let transpose = SxmOp::Transpose {
        src: StreamRange::new(StreamId::east(0), 16),
        dst: StreamRange::new(StreamId::west(0), 16),
    };
    sxm_at(&mut f, 7, 150, transpose);
    f.sink(E, 21, 15, sxm, 155);

    // VXM (position 46): unary, transcendental unary, binary, convert.
    let vxm = Slice::Vxm.position().0;
    let group = |f: &mut Feeder, base: u8, width: u8| {
        for i in 0..width {
            f.feed(E, base + i, base + i, vxm, 200);
        }
        StreamGroup::new(StreamId::west(base), width)
    };
    let ops = [
        VxmOp::Unary {
            op: tsp_isa::UnaryAluOp::Relu,
            dtype: DataType::Int8,
            src: group(&mut f, 0, 1),
            dst: sg1(StreamId::east(8)),
            alu: AluIndex::new(0),
        },
        VxmOp::Unary {
            op: tsp_isa::UnaryAluOp::Tanh,
            dtype: DataType::Fp16,
            src: group(&mut f, 2, 2),
            dst: StreamGroup::new(StreamId::east(10), 2),
            alu: AluIndex::new(1),
        },
        VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int8,
            a: group(&mut f, 4, 1),
            b: group(&mut f, 5, 1),
            dst: sg1(StreamId::east(12)),
            alu: AluIndex::new(2),
        },
        VxmOp::Convert {
            from: DataType::Int32,
            to: DataType::Int8,
            src: group(&mut f, 8, 4),
            dst: sg1(StreamId::east(13)),
            shift: 2,
            alu: AluIndex::new(3),
        },
    ];
    for (alu, op) in ops.into_iter().enumerate() {
        f.program.builder(vxm_icu(alu as u8)).push_at(200, op);
    }
    f.sink(E, 30, 12, vxm, 204);

    // MEM: a gather and a scatter through stream-carried maps whose
    // superlane `s` addresses word `100 + s % 8`.
    let map = map_vector(std::array::from_fn(|s| MemAddr::new(100 + (s % 8) as u16)));
    for w in 0..8u16 {
        let fill = Vector::splat(w as u8 + 1);
        f.chip.memory.write(ga(W, 3, 100 + w), fill);
    }
    let gather_pos = Slice::mem(W, 3).position().0;
    let gather = MemOp::Gather {
        stream: StreamId::east(8),
        map: f.feed_vector(W, 5, 7, gather_pos, 300, map.clone()),
    };
    f.program.builder(mem_icu(W, 3)).push_at(300, gather);
    f.sink(W, 0, 8, gather_pos, 307);
    let scatter_pos = Slice::mem(W, 10).position().0;
    let scatter = MemOp::Scatter {
        stream: f.feed(W, 20, 9, scatter_pos, 300),
        map: f.feed_vector(W, 21, 10, scatter_pos, 300, map),
    };
    f.program.builder(mem_icu(W, 10)).push_at(300, scatter);

    // MXM plane 2 (East, position 92), int8: two LW rows, IW, two ABC rows
    // (the second read a folded `Repeat`), ACC overwrite then accumulate.
    let mxm_e = Slice::Mxm(E).position().0;
    let port = |plane: u8, port: u8| IcuId::Mxm {
        plane: Plane::new(plane),
        port,
    };
    for i in 0..16 {
        f.feed(E, i, i, mxm_e, 400);
        f.feed(E, i, i, mxm_e, 401);
    }
    let plane = Plane::new(2);
    let lw = MxmOp::LoadWeights {
        plane,
        streams: StreamGroup::new(StreamId::east(0), 16),
        rows: 2,
    };
    f.program.builder(port(2, 0)).push_at(400, lw);
    let iw = MxmOp::InstallWeights {
        plane,
        dtype: DataType::Int8,
    };
    f.program.builder(port(2, 1)).push_at(405, iw);
    let stream = f.feed(E, 16, 16, mxm_e, 410);
    f.words[E.index()][16] += 1;
    let repeated = f.words[E.index()][16] - 1;
    f.chip.memory.write(ga(E, 16, repeated), Vector::splat(2));
    f.program
        .builder(mem_icu(E, 16))
        .push(IcuOp::Repeat { n: 1, d: 1 });
    let abc = MxmOp::ActivationBuffer {
        plane,
        stream,
        rows: 2,
    };
    f.program.builder(port(2, 2)).push_at(410, abc);
    for (at, mode) in [
        (442, AccumulateMode::Overwrite),
        (443, AccumulateMode::Accumulate),
    ] {
        let acc = MxmOp::Accumulate {
            plane,
            dst: StreamGroup::new(StreamId::west(0), 4),
            rows: 1,
            mode,
        };
        f.program.builder(port(2, 3)).push_at(at, acc);
    }
    f.sink(E, 40, 0, mxm_e, 444);

    // MXM planes 0/1 (West, position 0), fp16 tandem: byte planes loaded and
    // installed separately, one ABC reading a stream pair, one ACC (fp32).
    let mxm_w = Slice::Mxm(W).position().0;
    for p in 0..2u8 {
        for i in 0..16 {
            f.feed(W, 16 * p + i, 16 * p + i, mxm_w, 500);
        }
        let plane = Plane::new(p);
        let lw = MxmOp::LoadWeights {
            plane,
            streams: StreamGroup::new(StreamId::west(16 * p), 16),
            rows: 1,
        };
        f.program.builder(port(p, 0)).push_at(500, lw);
        let iw = MxmOp::InstallWeights {
            plane,
            dtype: DataType::Fp16,
        };
        f.program.builder(port(p, 1)).push_at(505, iw);
    }
    let stream = f.feed(W, 0, 0, mxm_w, 510);
    f.feed(W, 1, 1, mxm_w, 510);
    let abc = MxmOp::ActivationBuffer {
        plane: Plane::new(0),
        stream,
        rows: 1,
    };
    f.program.builder(port(0, 2)).push_at(510, abc);
    let acc = MxmOp::Accumulate {
        plane: Plane::new(0),
        dst: StreamGroup::new(StreamId::east(0), 4),
        rows: 1,
        mode: AccumulateMode::Overwrite,
    };
    f.program.builder(port(0, 3)).push_at(542, acc);

    // C2C port 1 (at MXM East): send a vector out, take one in, deskew.
    let send = C2cOp::Send {
        link: LinkId::new(3),
        stream: f.feed(E, 0, 0, mxm_e, 600),
    };
    f.chip.inject_ingress(
        LinkId::new(5),
        590,
        std::sync::Arc::new(tsp_sim::StreamWord::protect(Vector::splat(0x5A))),
    );
    let receive = C2cOp::Receive {
        link: LinkId::new(5),
        stream: StreamId::west(1),
    };
    let mut c2c = f.program.builder(IcuId::C2c { port: 1 });
    c2c.push_at(600, send);
    c2c.push(receive);
    c2c.push(C2cOp::Deskew {
        link: LinkId::new(5),
    });
    f.sink(E, 41, 1, mxm_e, 603);

    (f.chip, f.program)
}

/// Timing never depends on data: a `functional: false` run of a program
/// through every functional-unit body reports the same cycles, counts,
/// telemetry, bandwidth and trace as the functional run, on both dispatch
/// paths — and the functional run really computed (results land in memory).
#[test]
fn timing_only_matches_functional_op_by_op() {
    let run = |functional: bool, decoded: bool| {
        let (mut chip, program) = every_unit_program();
        let options = RunOptions {
            functional,
            decoded,
            trace: true,
            ..RunOptions::default()
        };
        let report = chip.run(&program, &options).expect("valid schedule");
        (chip, report)
    };
    for decoded in [true, false] {
        let (chip, functional) = run(true, decoded);
        let (_, timing) = run(false, decoded);
        assert_eq!(timing.cycles, functional.cycles, "cycles");
        assert_eq!(timing.instructions, functional.instructions);
        assert_eq!(timing.nops, functional.nops);
        assert_eq!(timing.telemetry, functional.telemetry, "telemetry");
        assert_eq!(timing.bandwidth, functional.bandwidth, "bandwidth");
        assert_eq!(timing.trace.events(), functional.trace.events(), "trace");
        assert_eq!(
            timing.trace.total_recorded(),
            functional.trace.total_recorded()
        );
        let departures = |r: &tsp_sim::RunReport| -> Vec<(u8, u64)> {
            r.egress.iter().map(|(link, at, _)| (*link, *at)).collect()
        };
        assert_eq!(departures(&timing), departures(&functional), "egress");
        assert_eq!(functional.egress.len(), 1);

        // Every section ran: the kinds the trace saw, and sinks holding data.
        for slice in [20, 21, 30, 40, 41] {
            let got = chip
                .memory
                .read_unchecked(ga(Hemisphere::East, slice, 4000));
            assert!(!got.is_zero(), "sink MEM_E{slice} holds a result");
        }
        assert_eq!(functional.telemetry.mxm_macc_waves, [1, 0, 2, 0]);
    }
}

/// An operand group whose width does not match its dtype is an
/// `InvalidInstruction` on both dispatch paths, not a panic:
/// `add s0,s4 -> s12 (int32)` on 1-wide groups, and an int32 convert
/// reading a pair.
#[test]
fn vxm_group_width_mismatch_is_an_invalid_instruction() {
    const E: Hemisphere = Hemisphere::East;
    let vxm = Slice::Vxm.position().0;
    for decoded in [true, false] {
        let mut f = Feeder::new();
        let a = f.feed(E, 0, 0, vxm, 200);
        let b = f.feed(E, 4, 4, vxm, 200);
        let add = VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int32,
            a: sg1(a),
            b: sg1(b),
            dst: sg1(StreamId::east(12)),
            alu: AluIndex::new(0),
        };
        f.program.builder(vxm_icu(0)).push_at(200, add);
        f.feed(E, 8, 8, vxm, 300);
        f.feed(E, 9, 9, vxm, 300);
        let convert = VxmOp::Convert {
            from: DataType::Int32,
            to: DataType::Int8,
            src: StreamGroup::new(StreamId::west(8), 2),
            dst: sg1(StreamId::east(13)),
            shift: 100,
            alu: AluIndex::new(1),
        };
        f.program.builder(vxm_icu(1)).push_at(300, convert);
        let options = RunOptions {
            decoded,
            ..RunOptions::default()
        };
        let err = f.chip.run(&f.program, &options).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidInstruction { cycle: 200, reason, .. }
                if reason.contains("int32")),
            "decoded {decoded}: {err}"
        );
        // Without the add, the convert's pair faults the same way.
        let mut f = Feeder::new();
        f.feed(E, 8, 8, vxm, 300);
        f.feed(E, 9, 9, vxm, 300);
        f.program.builder(vxm_icu(1)).push_at(300, convert);
        let err = f.chip.run(&f.program, &options).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidInstruction { cycle: 300, .. }),
            "decoded {decoded}: {err}"
        );
    }
}

/// An `LW` of fewer than 20 cycles loads only its row groups, and the
/// buffer rows it skips read zero at the next `IW` (the ISA rule a weight
/// block of `M < 320` output rows relies on): after a full load of all-ones
/// weights, a 4-cycle load of a 64-row identity block leaves result lanes
/// 64 and up at zero, on both dispatch paths, where the stale rows would
/// have summed the activation.
#[test]
fn a_short_weight_load_installs_zeros_past_its_rows() {
    use tsp_isa::{AccumulateMode, MxmOp, Plane, MXM_ARRAY_DELAY};
    const E: Hemisphere = Hemisphere::East;
    let mxm = Slice::Mxm(E).position().0;
    let plane = Plane::new(2);
    let port = |port: u8| IcuId::Mxm { plane, port };
    let act = Vector::from_fn(|k| (k % 5 + 1) as u8);
    for decoded in [true, false] {
        let mut f = Feeder::new();
        // Cycle `r` of a load carries array rows 16r..16r+16, row `16r + j`
        // on stream `j` from MEM_Ej.
        let load = |f: &mut Feeder, at: u64, cycles: u8, row: &dyn Fn(usize) -> Vector| {
            for r in 0..cycles {
                for j in 0..16u8 {
                    let at = at + u64::from(r);
                    f.feed_vector(E, j, j, mxm, at, row(16 * usize::from(r) + usize::from(j)));
                }
            }
            let streams = StreamGroup::new(StreamId::east(0), 16);
            let lw = MxmOp::LoadWeights {
                plane,
                streams,
                rows: cycles,
            };
            f.program.builder(port(0)).push_at(at, lw);
            let iw = MxmOp::InstallWeights {
                plane,
                dtype: DataType::Int8,
            };
            f.program
                .builder(port(1))
                .push_at(at + u64::from(cycles), iw);
        };
        load(&mut f, 100, 20, &|_| Vector::splat(1));
        load(&mut f, 130, 4, &|m| Vector::from_fn(|k| u8::from(k == m)));
        let stream = f.feed_vector(E, 16, 16, mxm, 140, act.clone());
        let abc = MxmOp::ActivationBuffer {
            plane,
            stream,
            rows: 1,
        };
        f.program.builder(port(2)).push_at(140, abc);
        let t_acc = 140 + u64::from(MXM_ARRAY_DELAY);
        let acc = MxmOp::Accumulate {
            plane,
            dst: StreamGroup::new(StreamId::west(0), 4),
            rows: 1,
            mode: AccumulateMode::Overwrite,
        };
        f.program.builder(port(3)).push_at(t_acc, acc);
        for k in 0..4u8 {
            f.sink(E, 20 + k, k, mxm, t_acc + 1);
        }
        let options = RunOptions {
            decoded,
            ..RunOptions::default()
        };
        f.chip.run(&f.program, &options).expect("valid schedule");
        let planes: Vec<Vector> = (0..4u8)
            .map(|k| f.chip.memory.read_unchecked(ga(E, 20 + k, 4000)))
            .collect();
        let lane = |m: usize| i32::from_le_bytes(std::array::from_fn(|k| planes[k].as_bytes()[m]));
        for m in 0..320 {
            let want = if m < 64 {
                i32::from(act.as_bytes()[m])
            } else {
                0
            };
            assert_eq!(lane(m), want, "decoded {decoded}: result lane {m}");
        }
    }
}
