/// One instruction of every format, operands at the edges of their ranges:
/// every row of the instruction table has one. `include!`d by tsp-isa's
/// tests and by tsp-sim's queue-occupancy test, wherever the names it uses
/// are in scope.
pub(crate) fn samples() -> Vec<Instruction> {
    vec![
        IcuOp::Nop { count: 1234 }.into(),
        IcuOp::Ifetch {
            stream: StreamId::west(9),
        }
        .into(),
        IcuOp::Sync.into(),
        IcuOp::Notify.into(),
        IcuOp::Config { superlanes: 10 }.into(),
        IcuOp::Repeat { n: 64, d: 3 }.into(),
        MemOp::Read {
            addr: MemAddr::new(8191),
            stream: StreamId::east(31),
        }
        .into(),
        MemOp::Write {
            addr: MemAddr::new(4096),
            stream: StreamId::west(0),
        }
        .into(),
        MemOp::Gather {
            stream: StreamId::east(2),
            map: StreamId::east(3),
        }
        .into(),
        MemOp::Scatter {
            stream: StreamId::west(4),
            map: StreamId::west(5),
        }
        .into(),
        VxmOp::Binary {
            op: BinaryAluOp::MulSat,
            dtype: DataType::Int8,
            a: StreamGroup::new(StreamId::east(0), 1),
            b: StreamGroup::new(StreamId::east(1), 1),
            dst: StreamGroup::new(StreamId::west(2), 1),
            alu: AluIndex::new(7),
        }
        .into(),
        VxmOp::Unary {
            op: UnaryAluOp::Rsqrt,
            dtype: DataType::Fp32,
            src: StreamGroup::sg4(0, Direction::East),
            dst: StreamGroup::sg4(1, Direction::East),
            alu: AluIndex::new(15),
        }
        .into(),
        VxmOp::Convert {
            from: DataType::Int32,
            to: DataType::Int8,
            src: StreamGroup::sg4(2, Direction::West),
            dst: StreamGroup::new(StreamId::west(1), 1),
            shift: -5,
            alu: AluIndex::new(3),
        }
        .into(),
        MxmOp::LoadWeights {
            plane: Plane::new(1),
            streams: StreamGroup::new(StreamId::west(16), 16),
            rows: 20,
        }
        .into(),
        MxmOp::InstallWeights {
            plane: Plane::new(3),
            dtype: DataType::Fp16,
        }
        .into(),
        MxmOp::ActivationBuffer {
            plane: Plane::new(0),
            stream: StreamId::west(12),
            rows: 320,
        }
        .into(),
        MxmOp::Accumulate {
            plane: Plane::new(2),
            dst: StreamGroup::sg4(3, Direction::East),
            rows: 320,
            mode: AccumulateMode::Accumulate,
        }
        .into(),
        SxmOp::ShiftUp {
            n: 16,
            src: StreamId::east(1),
            dst: StreamId::east(2),
        }
        .into(),
        SxmOp::ShiftDown {
            n: 319,
            src: StreamId::west(30),
            dst: StreamId::west(31),
        }
        .into(),
        SxmOp::Select {
            north: StreamId::east(1),
            south: StreamId::east(2),
            boundary: 160,
            dst: StreamId::east(3),
        }
        .into(),
        SxmOp::Permute {
            map: PermuteMap::rotation(17),
            src: StreamId::west(7),
            dst: StreamId::west(8),
        }
        .into(),
        SxmOp::Distribute {
            map: {
                let mut m = [None; 16];
                m[0] = Some(3);
                m[15] = Some(0);
                m
            },
            src: StreamId::east(9),
            dst: StreamId::east(10),
        }
        .into(),
        SxmOp::Rotate {
            n: 3,
            src: StreamRange::new(StreamId::east(0), 3),
            dst: StreamRange::new(StreamId::east(3), 9),
        }
        .into(),
        SxmOp::Transpose {
            src: StreamRange::new(StreamId::east(0), 16),
            dst: StreamRange::new(StreamId::east(16), 16),
        }
        .into(),
        C2cOp::Deskew {
            link: LinkId::new(15),
        }
        .into(),
        C2cOp::Send {
            link: LinkId::new(0),
            stream: StreamId::east(31),
        }
        .into(),
        C2cOp::Receive {
            link: LinkId::new(7),
            stream: StreamId::west(30),
        }
        .into(),
    ]
}
