//! Programs: one compiler-ordered instruction queue per ICU.
//!
//! The compiler has "explicit control of the program order in each instruction
//! queue" (paper §II); relative timing between queues is expressed purely with
//! `NOP` padding and the one-time `Sync`/`Notify` barrier. [`QueueBuilder`]
//! tracks a queue's local dispatch clock so callers can schedule an
//! instruction *at* an absolute cycle.

use std::collections::BTreeMap;

use tsp_isa::{IcuOp, Instruction};

use crate::icu_id::IcuId;

/// A complete TSP program: per-ICU instruction queues.
#[derive(Debug, Clone, Default)]
pub struct Program {
    queues: BTreeMap<IcuId, Vec<Instruction>>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Program {
        Program::default()
    }

    /// Borrow a queue's instructions (empty slice if never touched).
    #[must_use]
    pub fn queue(&self, icu: IcuId) -> &[Instruction] {
        self.queues.get(&icu).map_or(&[], Vec::as_slice)
    }

    /// A builder that appends to `icu`'s queue, tracking its dispatch clock.
    pub fn builder(&mut self, icu: IcuId) -> QueueBuilder<'_> {
        let queue = self.queues.entry(icu).or_default();
        let time = queue.iter().map(Instruction::queue_cycles).sum();
        QueueBuilder { queue, time }
    }

    /// `(dispatch cycle, instruction)` of every entry of `icu`'s queue, in
    /// program order: an entry is dispatched when everything before it has
    /// taken its queue cycles.
    pub fn dispatches(&self, icu: IcuId) -> impl Iterator<Item = (u64, &Instruction)> {
        self.queue(icu).iter().scan(0u64, |clock, instruction| {
            let at = *clock;
            *clock += instruction.queue_cycles();
            Some((at, instruction))
        })
    }

    /// Iterates over the non-empty queues in deterministic order.
    pub fn queues(&self) -> impl Iterator<Item = (IcuId, &[Instruction])> {
        self.queues.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Total instructions across all queues (NOPs included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.values().map(Vec::len).sum()
    }

    /// Whether no queue has any instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The make-span lower bound: the largest per-queue dispatch-clock total.
    #[must_use]
    pub fn queue_span(&self) -> u64 {
        self.queues
            .values()
            .map(|q| q.iter().map(Instruction::queue_cycles).sum())
            .max()
            .unwrap_or(0)
    }

    /// Prepends the paper's compulsory start-of-program barrier: every
    /// non-empty queue parks on `Sync` while `notifier` issues `Notify`
    /// (paper §III-A2). Call after all real instructions are in place.
    pub fn with_start_barrier(mut self, notifier: IcuId) -> Program {
        for (icu, queue) in &mut self.queues {
            let head = if *icu == notifier {
                Instruction::Icu(IcuOp::Notify)
            } else {
                Instruction::Icu(IcuOp::Sync)
            };
            queue.insert(0, head);
        }
        // The notifier must exist even if it had no work.
        self.queues
            .entry(notifier)
            .or_insert_with(|| vec![Instruction::Icu(IcuOp::Notify)]);
        self
    }
}

/// Appends instructions to one queue while tracking its dispatch clock.
#[derive(Debug)]
pub struct QueueBuilder<'a> {
    queue: &'a mut Vec<Instruction>,
    time: u64,
}

impl QueueBuilder<'_> {
    /// The cycle at which the *next* pushed instruction will dispatch.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Appends an instruction; returns its dispatch cycle.
    pub fn push(&mut self, instruction: impl Into<Instruction>) -> u64 {
        let instruction = instruction.into();
        let at = self.time;
        self.time += instruction.queue_cycles();
        self.queue.push(instruction);
        at
    }

    /// Pads with `NOP` so the next instruction dispatches at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is in this queue's past — the compiler asked for an
    /// impossible schedule.
    pub fn pad_to(&mut self, cycle: u64) {
        assert!(
            cycle >= self.time,
            "cannot pad queue back in time (at {}, asked for {cycle})",
            self.time
        );
        let mut gap = cycle - self.time;
        while gap > 0 {
            let chunk = gap.min(u64::from(u16::MAX));
            self.push(IcuOp::Nop {
                count: chunk as u16,
            });
            gap -= chunk;
        }
    }

    /// Pushes an instruction at an absolute dispatch cycle (padding first);
    /// returns the dispatch cycle.
    pub fn push_at(&mut self, cycle: u64, instruction: impl Into<Instruction>) -> u64 {
        self.pad_to(cycle);
        self.push(instruction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::Hemisphere;
    use tsp_arch::StreamId;
    use tsp_isa::{MemAddr, MemOp};

    fn mem0() -> IcuId {
        IcuId::Mem {
            hemisphere: Hemisphere::East,
            index: 0,
        }
    }

    fn read(addr: u16) -> MemOp {
        MemOp::Read {
            addr: MemAddr::new(addr),
            stream: StreamId::east(0),
        }
    }

    #[test]
    fn builder_tracks_dispatch_clock() {
        let mut p = Program::new();
        let mut b = p.builder(mem0());
        assert_eq!(b.push(read(0)), 0);
        assert_eq!(b.push(IcuOp::Nop { count: 9 }), 1);
        assert_eq!(b.push(read(1)), 10);
        assert_eq!(b.time(), 11);
    }

    #[test]
    fn pad_to_inserts_minimal_nops() {
        let mut p = Program::new();
        let mut b = p.builder(mem0());
        b.push(read(0));
        assert_eq!(b.push_at(100, read(1)), 100);
        // Queue: Read, NOP(99), Read.
        assert_eq!(p.queue(mem0()).len(), 3);
    }

    #[test]
    fn pad_past_u16_max_uses_multiple_nops() {
        let mut p = Program::new();
        let mut b = p.builder(mem0());
        b.pad_to(200_000);
        assert_eq!(b.time(), 200_000);
        assert!(p.queue(mem0()).len() >= 4);
    }

    #[test]
    #[should_panic(expected = "back in time")]
    fn pad_backwards_panics() {
        let mut p = Program::new();
        let mut b = p.builder(mem0());
        b.push(IcuOp::Nop { count: 50 });
        b.pad_to(10);
    }

    #[test]
    fn builder_resumes_existing_queue() {
        let mut p = Program::new();
        p.builder(mem0()).push(IcuOp::Nop { count: 5 });
        let b = p.builder(mem0());
        assert_eq!(b.time(), 5);
    }

    #[test]
    fn start_barrier_prepends_sync_everywhere() {
        let mut p = Program::new();
        p.builder(mem0()).push(read(0));
        let notifier = IcuId::Host { port: 0 };
        let p = p.with_start_barrier(notifier);
        assert_eq!(p.queue(mem0())[0], Instruction::Icu(IcuOp::Sync));
        assert_eq!(p.queue(notifier)[0], Instruction::Icu(IcuOp::Notify));
    }

    #[test]
    fn queue_span_is_max_clock() {
        let mut p = Program::new();
        p.builder(mem0()).pad_to(77);
        p.builder(IcuId::Host { port: 1 }).pad_to(33);
        assert_eq!(p.queue_span(), 77);
    }
}
