//! Pins the kernel-level programs no model golden covers: the Fig. 3 vector
//! add (`stream_vadd`'s program, the one element-wise chain the benchmark
//! runs) and the Fig. 9 roofline's peak point. A refactor of the kernels must
//! leave both fingerprints as they are; a change *meant* to move them
//! re-pins them with what `print_pins` prints.

use tsp_bench::workloads::{roofline_program, vector_add_program};
use tsp_isa::encode::encode_sequence;
use tsp_sim::Program;

/// FNV-1a (stable across toolchains) over every ICU queue's name and
/// encoded bytes.
fn fingerprint(program: &Program) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (icu, queue) in program.queues() {
        eat(icu.to_string().as_bytes());
        eat(&encode_sequence(queue));
    }
    hash
}

const VECTOR_ADD: u64 = 10_505_789_787_001_984_058;
const ROOFLINE_4096_4: u64 = 10_546_554_198_678_927_259;

/// Prints the pins as they are now, with `cargo test --release -p tsp-bench
/// --test kernel_programs -- --ignored --nocapture`.
#[test]
#[ignore = "prints the pins instead of checking them"]
fn print_pins() {
    println!(
        "const VECTOR_ADD: u64 = {};",
        fingerprint(&vector_add_program())
    );
    println!(
        "const ROOFLINE_4096_4: u64 = {};",
        fingerprint(&roofline_program(4096, 4))
    );
}

#[test]
fn vector_add_program_is_pinned() {
    assert_eq!(fingerprint(&vector_add_program()), VECTOR_ADD);
}

#[test]
fn roofline_program_is_pinned() {
    assert_eq!(fingerprint(&roofline_program(4096, 4)), ROOFLINE_4096_4);
}
