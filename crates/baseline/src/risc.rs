//! A conventional in-order RISC load-store core, at the fidelity of the
//! paper's Fig. 3: instruction counts and cycle counts for streaming vector
//! kernels, where every element costs a `LOAD`/`LOAD`/`ADD`/`STORE` round
//! trip through the GPRs plus loop control.

/// Micro-architectural parameters of the scalar core.
#[derive(Debug, Clone, Copy)]
pub struct RiscProfile {
    /// Issue width (instructions per cycle at best).
    pub issue_width: u32,
    /// Cycles for a load that hits the L1.
    pub load_latency: u32,
    /// Cycles for an ALU op.
    pub alu_latency: u32,
    /// Cycles for a store (post-commit, usually hidden).
    pub store_latency: u32,
    /// Loop-control instructions per iteration (increment + branch).
    pub loop_overhead_instructions: u32,
    /// SIMD lanes per vector instruction (1 = scalar; 64 = AVX-512 on bytes).
    pub simd_lanes: u32,
}

impl RiscProfile {
    /// A single-issue scalar core (the paper's Fig. 3 framing).
    #[must_use]
    pub fn scalar() -> RiscProfile {
        RiscProfile {
            issue_width: 1,
            load_latency: 2,
            alu_latency: 1,
            store_latency: 1,
            loop_overhead_instructions: 2,
            simd_lanes: 1,
        }
    }

    /// A generous 4-wide core with AVX-512-style 64-byte vectors — the
    /// strongest conventional configuration the comparison admits (paper
    /// §II-F notes maxVL 320 B against AVX-512's 64 B).
    #[must_use]
    pub fn wide_simd() -> RiscProfile {
        RiscProfile {
            issue_width: 4,
            load_latency: 2,
            alu_latency: 1,
            store_latency: 1,
            loop_overhead_instructions: 2,
            simd_lanes: 64,
        }
    }
}

/// Result of "executing" a streaming kernel on the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiscRun {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
}

/// The modeled core.
#[derive(Debug, Clone, Copy)]
pub struct RiscCore {
    /// Micro-architecture.
    pub profile: RiscProfile,
}

impl RiscCore {
    /// Creates a core.
    #[must_use]
    pub fn new(profile: RiscProfile) -> RiscCore {
        RiscCore { profile }
    }

    /// The paper's Fig. 3 kernel: element-wise `Z = X + Y` over `n` elements.
    /// Per vector-iteration: `LOAD x; LOAD y; ADD; STORE z` + loop control.
    #[must_use]
    pub fn vector_add(&self, n: u64) -> RiscRun {
        let p = self.profile;
        let iters = n.div_ceil(u64::from(p.simd_lanes));
        let per_iter_insns = 4 + u64::from(p.loop_overhead_instructions);
        let instructions = iters * per_iter_insns;
        // In-order issue: the ADD waits on the second load; the store and
        // loop control dual-issue on wider machines.
        let per_iter_cycles = (u64::from(2 * p.load_latency)
            + u64::from(p.alu_latency)
            + u64::from(p.store_latency)
            + u64::from(p.loop_overhead_instructions))
        .div_ceil(u64::from(p.issue_width))
        .max(per_iter_insns.div_ceil(u64::from(p.issue_width)));
        RiscRun {
            instructions,
            cycles: iters * per_iter_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_core_pays_four_instructions_per_element() {
        // Fig. 3: the RISC loop is 4 data instructions per element (+ loop
        // control); the TSP program is 4 instructions total.
        let core = RiscCore::new(RiscProfile::scalar());
        let run = core.vector_add(320);
        assert_eq!(run.instructions, 320 * 6);
        assert!(run.cycles >= 320 * 4);
    }

    #[test]
    fn simd_divides_instruction_count_by_lane_width() {
        let scalar = RiscCore::new(RiscProfile::scalar()).vector_add(64_000);
        let wide = RiscCore::new(RiscProfile::wide_simd()).vector_add(64_000);
        assert!(scalar.instructions / wide.instructions >= 60);
        assert!(wide.cycles < scalar.cycles);
    }

    #[test]
    fn kernel_cycles_scale_linearly() {
        let core = RiscCore::new(RiscProfile::scalar());
        let a = core.vector_add(1_000).cycles;
        let b = core.vector_add(2_000).cycles;
        assert_eq!(b, 2 * a);
    }
}
