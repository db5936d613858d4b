//! Instruction control unit (ICU) instructions, common to every functional
//! slice (paper §III-A): explicit fetch, delay, repeat, synchronization and
//! power configuration.

use tsp_arch::StreamId;

/// ICU instructions (paper Table I, "ICU" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcuOp {
    /// `NOP N` — no-operation repeated `N` times, delaying the queue by `N`
    /// cycles. The compiler inserts these to control the relative timing of
    /// slices and data; a 16-bit repeat count waits up to 65 µs at 1 GHz.
    Nop {
        /// Number of cycles to stall, `>= 1`.
        count: u16,
    },
    /// `Ifetch s` — fetch 640 bytes (a pair of 320-byte vectors) of
    /// instruction text from stream `s` into this slice's instruction queue.
    /// All slices can fetch simultaneously with normal execution; the compiler
    /// prefetches omnisciently so queues never run empty.
    Ifetch {
        /// Stream carrying the instruction text in program order.
        stream: StreamId,
    },
    /// `Sync` — park at the head of the dispatch queue awaiting a barrier
    /// notification (chip-wide barrier with [`IcuOp::Notify`]).
    Sync,
    /// `Notify` — release all pending `Sync`s, resuming instruction flow on
    /// every participating queue. One queue is designated the notifier.
    Notify,
    /// `Config` — configure low-power mode: power down unused superlanes so
    /// the effective vector length shrinks in 16-lane steps (paper §II-F).
    Config {
        /// Number of superlanes to keep powered, `1..=20`.
        superlanes: u8,
    },
    /// `Repeat n, d` — repeat the previous instruction `n` times with `d`
    /// cycles between iterations.
    Repeat {
        /// Number of repetitions of the previous instruction.
        n: u16,
        /// Inter-iteration gap in cycles.
        d: u16,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_occupies_count_cycles() {
        assert_eq!(IcuOp::Nop { count: 17 }.queue_cycles(), 17);
        assert_eq!(IcuOp::Nop { count: 0 }.queue_cycles(), 1);
        assert_eq!(IcuOp::Sync.queue_cycles(), 1);
    }

    #[test]
    fn nop_reaches_65us_at_1ghz() {
        // Paper §III-A1: a 16-bit repeat count waits up to 65 µs at 1 GHz.
        let max = IcuOp::Nop { count: u16::MAX }.queue_cycles();
        let us = max as f64 / 1e9 * 1e6;
        assert!(us > 65.0 && us < 66.0, "{us} µs");
    }

    #[test]
    fn display_forms() {
        assert_eq!(IcuOp::Nop { count: 3 }.to_string(), "NOP(3)");
        assert_eq!(
            IcuOp::Ifetch {
                stream: StreamId::west(2)
            }
            .to_string(),
            "Ifetch S2.W"
        );
        assert_eq!(IcuOp::Repeat { n: 8, d: 2 }.to_string(), "Repeat 8,2");
    }
}
