//! Property tests on the simulator's core invariants.

use proptest::prelude::*;
use std::sync::Arc;
use tsp_arch::{Position, StreamId, Vector, NUM_POSITIONS};
use tsp_isa::{BinaryAluOp, DataType, UnaryAluOp};
use tsp_sim::stream_file::{StreamFile, StreamWord};
use tsp_sim::vxm_unit;

fn arb_stream() -> impl Strategy<Value = StreamId> {
    (0u8..32, any::<bool>()).prop_map(|(id, east)| {
        if east {
            StreamId::east(id)
        } else {
            StreamId::west(id)
        }
    })
}

proptest! {
    /// A value written at (p, t) is visible at any downstream position p′ at
    /// exactly t + |p′ − p|, and at no other time.
    #[test]
    fn stream_values_flow_one_hop_per_cycle(
        stream in arb_stream(),
        p in 0u8..NUM_POSITIONS,
        t in 0u64..1000,
        hops in 0u8..32,
        tag in any::<u8>(),
    ) {
        let mut f = StreamFile::new();
        f.write(stream, Position(p), t, Arc::new(StreamWord::protect(Vector::splat(tag))));
        let q = match stream.direction {
            tsp_arch::Direction::East => p.checked_add(hops).filter(|&q| q < NUM_POSITIONS),
            tsp_arch::Direction::West => p.checked_sub(hops),
        };
        if let Some(q) = q {
            let at = t + u64::from(hops);
            prop_assert_eq!(
                f.read(stream, Position(q), at).map(|w| w.data.lane(0)),
                Some(tag)
            );
            // One cycle off in either direction: empty slot.
            if at > 0 {
                prop_assert!(f.read(stream, Position(q), at - 1).is_none());
            }
            prop_assert!(f.read(stream, Position(q), at + 1).is_none());
        }
    }

    /// Saturating int8 adds on the VXM match i16 reference arithmetic.
    #[test]
    fn vxm_add_sat_matches_reference(a in any::<i8>(), b in any::<i8>()) {
        let va = vec![Vector::splat(a as u8)];
        let vb = vec![Vector::splat(b as u8)];
        let out = vxm_unit::apply_binary(BinaryAluOp::AddSat, DataType::Int8, &va, &vb).unwrap();
        let expect = (i16::from(a) + i16::from(b)).clamp(-128, 127) as i8;
        prop_assert_eq!(out[0].lane(0) as i8, expect);
    }

    /// Modulo int8 multiplies wrap exactly like `wrapping_mul`.
    #[test]
    fn vxm_mul_mod_matches_reference(a in any::<i8>(), b in any::<i8>()) {
        let va = vec![Vector::splat(a as u8)];
        let vb = vec![Vector::splat(b as u8)];
        let out = vxm_unit::apply_binary(BinaryAluOp::MulMod, DataType::Int8, &va, &vb).unwrap();
        prop_assert_eq!(out[0].lane(0) as i8, a.wrapping_mul(b));
    }

    /// ReLU never produces negatives and is the identity on non-negatives.
    #[test]
    fn vxm_relu_invariant(x in any::<i8>()) {
        let v = vec![Vector::splat(x as u8)];
        let out = vxm_unit::apply_unary(UnaryAluOp::Relu, DataType::Int8, &v).unwrap();
        let y = out[0].lane(0) as i8;
        prop_assert!(y >= 0);
        prop_assert_eq!(y, x.max(0));
    }

    /// int32 → int8 requantization: monotone in the input and exact for
    /// in-range multiples of the scale.
    #[test]
    fn requantize_monotone(x in -100_000i32..100_000, shift in 1i8..12) {
        let mk = |v: i32| tsp_sim::lane::group(|_| v);
        let q = |v: i32| {
            let out = vxm_unit::apply_convert(DataType::Int32, DataType::Int8, shift, &mk(v)).unwrap();
            out[0].lane(0) as i8
        };
        prop_assert!(q(x) <= q(x.saturating_add(1 << shift)));
        // Exact multiples inside range map exactly.
        let m = i32::from(i8::MAX / 2);
        let exact = m << shift;
        prop_assert_eq!(q(exact), i8::MAX / 2);
    }

    /// Every instruction that encodes also decodes to itself even when
    /// embedded at an arbitrary offset in a padded fetch window.
    #[test]
    fn fetch_window_roundtrip(count in 1u16..2000, id in 0u8..32) {
        use tsp_isa::{IcuOp, Instruction, MemAddr, MemOp};
        let instrs: Vec<Instruction> = vec![
            IcuOp::Nop { count }.into(),
            MemOp::Read { addr: MemAddr::new(u16::from(id)), stream: StreamId::east(id) }.into(),
            IcuOp::Repeat { n: count, d: 1 }.into(),
        ];
        let mut image = tsp_isa::encode::encode_sequence(&instrs);
        image.resize(640, tsp_isa::encode::FETCH_PAD);
        let decoded = tsp_isa::encode::decode_fetch_block(&image).unwrap();
        prop_assert_eq!(decoded, instrs);
    }
}
