//! The chip: 144 instruction queues driving functional slices over the
//! stream-register file, with one global deterministic clock.
//!
//! Execution is event-driven. Every instruction's dispatch cycle is a pure
//! function of its queue position (plus the one-time `Sync`/`Notify`
//! barrier), so the simulator advances a priority queue of per-ICU "next
//! dispatch" times instead of ticking idle hardware. Reads take effect at the
//! dispatch cycle, writes `d_func` cycles later; because every `d_func ≥ 1`,
//! processing dispatches in nondecreasing time order can never miss a write
//! (no value is produced into the past).
//!
//! There is deliberately **no arbitration anywhere**: a resource conflict is
//! a scheduling bug and surfaces as a [`SimError`], reproducing the paper's
//! hardware–software contract.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use tsp_arch::{vector, ChipConfig, Cycle, Position, StreamId, Vector, SUPERLANES};
use tsp_faults::{FaultEvent, FaultKind, FaultPlan};
use tsp_isa::decoded::{decode_step, DecodedOp, InvalidKind, QueueClass};
use tsp_isa::{
    encode::decode_fetch_block, C2cOp, DataType, IcuOp, Instruction, LinkId, MemOp, MxmOp, SxmOp,
    VxmOp,
};
use tsp_mem::ecc::{self, ErrorSite};
use tsp_mem::{bandwidth::Traffic, BandwidthMeter, Memory};

use tsp_telemetry::{LayerMark, LayerSlice, Telemetry};

use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::mxm_unit::{MxmPlane, MxmResult};
use crate::program::Program;
use crate::stream_file::{StreamFile, StreamWord};
use crate::trace::{ActivityKind, Trace, DEFAULT_EVENT_CAPACITY};
use crate::{sxm_unit, vxm_unit};

/// Options controlling one [`Chip::run`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Record activity events (needed by the power model; costs memory).
    pub trace: bool,
    /// Cap on stored trace events (counters keep counting past it; overflow
    /// is reported in [`Telemetry::dropped_events`]). Irrelevant when
    /// `trace` is off.
    pub trace_capacity: usize,
    /// Aggregate per-unit utilization counters ([`RunReport::telemetry`]).
    /// O(1) per instruction and independent of `trace`, so it stays
    /// affordable on long runs; `false` leaves the report's telemetry zeroed.
    pub counters: bool,
    /// Abort with [`SimError::CycleLimit`] past this cycle (runaway guard).
    pub cycle_limit: u64,
    /// Compute real results. `false` skips the data path — MXM dot products,
    /// VXM/SXM arithmetic, and ECC encode/check — producing zero words, for
    /// timing-only sweeps. Cycle counts, instruction counts and traces are
    /// unaffected because timing never depends on data (the determinism
    /// thesis); reads are still validated against the schedule.
    pub functional: bool,
    /// Deterministic fault-injection plan replayed during the run (see
    /// `tsp-faults`): each event strikes before the first dispatch at or
    /// after its cycle. Empty by default — fault-free runs pay nothing.
    pub faults: FaultPlan,
    /// Execute through the pre-decoded op cache ([`Chip::run_decoded`],
    /// the default) instead of re-decoding instruction text per dispatch
    /// ([`Chip::run_interpreted`], kept as the reference oracle). The two
    /// paths are bit-identical — cycles, results, telemetry, trace and
    /// errors — pinned by the `decoded_oracle` test suite.
    pub decoded: bool,
    /// Layer-boundary markers (sorted by `end`, as the compiler emits them —
    /// `CompiledModel::layer_marks`). Non-empty turns on per-layer counter
    /// slicing: [`RunReport::layers`] gets one [`LayerSlice`] per mark whose
    /// merge reproduces [`RunReport::telemetry`] bit-exactly. Slicing is pure
    /// observation — one integer compare per dispatch plus one counter
    /// snapshot per boundary — and never changes simulated results.
    pub layers: Vec<LayerMark>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            trace: false,
            trace_capacity: DEFAULT_EVENT_CAPACITY,
            counters: true,
            cycle_limit: 50_000_000,
            functional: true,
            faults: FaultPlan::empty(),
            decoded: true,
            layers: Vec::new(),
        }
    }
}

/// The result of executing a program to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completion cycle: the last architectural effect plus the 20-tile
    /// pipeline drain (Eq. 4's `N`), i.e. when the final superlane of the
    /// final result has landed.
    pub cycles: Cycle,
    /// Instructions dispatched (NOPs excluded; burst rows counted once per
    /// instruction, not per row).
    pub instructions: u64,
    /// NOP instructions dispatched.
    pub nops: u64,
    /// Activity trace (empty unless requested).
    pub trace: Trace,
    /// Per-unit utilization counters (zeroed unless
    /// [`RunOptions::counters`]). Aggregated during execution without
    /// storing events, so it is populated even when `trace` is off.
    pub telemetry: Telemetry,
    /// Byte counters per traffic class.
    pub bandwidth: BandwidthMeter,
    /// Corrected single-bit ECC events observed.
    pub ecc_corrected: u64,
    /// Planned fault events that struck live state.
    pub faults_applied: u64,
    /// Planned fault events that hit a vacant site (e.g. a stream register
    /// holding nothing at the strike cycle) or fell past the end of the run.
    pub faults_vacant: u64,
    /// Vectors that left on each C2C link: `(link, departure cycle, word)`.
    pub egress: Vec<(u8, Cycle, Arc<StreamWord>)>,
    /// Per-layer counter slices (one per [`RunOptions::layers`] mark, in
    /// mark order; empty when no marks were given). Events are attributed to
    /// the layer whose `[start, end)` cycle range contains their dispatch
    /// cycle; folding every slice with `Telemetry::merge` reproduces
    /// [`RunReport::telemetry`] bit-exactly.
    pub layers: Vec<LayerSlice>,
}

#[derive(Debug)]
enum Burst {
    /// Multi-row MXM instruction; `row` is the next row to execute.
    Mxm { op: MxmOp, row: u16, rows: u16 },
    /// `Repeat n,d` of the previous instruction; MEM addresses auto-increment
    /// one word per iteration (modeling choice, DESIGN.md §2).
    Repeat {
        instr: Instruction,
        iter: u16,
        n: u16,
        d: u16,
    },
}

#[derive(Debug)]
struct QueueState {
    icu: IcuId,
    position: Option<Position>,
    instructions: Vec<Instruction>,
    pc: usize,
    burst: Option<Burst>,
    barriers: u32,
}

/// Per-queue cursor over a [`DecodedProgram`]: `pc` indexes decoded ops
/// (`base`, then the runtime `Ifetch` `overlay`), `sub` the iteration within
/// the current op span. One decoded op per source instruction, so `pc`
/// doubles as the interpreted raw-instruction cursor for depth accounting.
#[derive(Debug)]
struct DecodedQueueState<'p> {
    icu: IcuId,
    position: Option<Position>,
    class: QueueClass,
    base: &'p [DecodedOp],
    /// Ops decoded at runtime from `Ifetch`ed instruction text.
    overlay: Vec<DecodedOp>,
    /// Last source instruction in text order — `Repeat` predecessor for the
    /// first instruction of the next fetched block.
    tail: Option<Instruction>,
    pc: usize,
    sub: u16,
    barriers: u32,
}

impl DecodedQueueState<'_> {
    fn len(&self) -> usize {
        self.base.len() + self.overlay.len()
    }

    fn op(&self, i: usize) -> Option<&DecodedOp> {
        if i < self.base.len() {
            self.base.get(i)
        } else {
            self.overlay.get(i - self.base.len())
        }
    }
}

enum Step {
    NextAt(Cycle),
    Parked,
    Done,
}

/// A simulated TSP chip.
#[derive(Debug, Clone)]
pub struct Chip {
    /// The chip configuration (clock, powered superlanes, ECC).
    pub config: ChipConfig,
    /// The 88-slice on-chip memory (also holds the ECC CSR).
    pub memory: Memory,
    streams: StreamFile,
    planes: Vec<MxmPlane>,
    ingress: Vec<VecDeque<(Cycle, Arc<StreamWord>)>>,
    egress: Vec<(u8, Cycle, Arc<StreamWord>)>,
    /// Shared all-zero word produced by timing-only runs: one allocation and
    /// one ECC encode for the whole run instead of one per stream write.
    zero_word: Arc<StreamWord>,
}

impl Chip {
    /// Creates a chip with the given configuration and zeroed memory.
    #[must_use]
    pub fn new(config: ChipConfig) -> Chip {
        Chip {
            config,
            memory: Memory::new(),
            streams: StreamFile::new(),
            planes: (0..4).map(|_| MxmPlane::new()).collect(),
            ingress: (0..16).map(|_| VecDeque::new()).collect(),
            egress: Vec::new(),
            zero_word: Arc::new(StreamWord::protect(Vector::ZERO)),
        }
    }

    /// Direct access to an MXM plane (tests and tooling).
    #[must_use]
    pub fn plane(&self, index: usize) -> &MxmPlane {
        &self.planes[index]
    }

    /// Queues a vector to arrive on a C2C link at `arrival` (the lightweight
    /// host/partner-chip injection path; `tsp-c2c` uses this to couple chips).
    pub fn inject_ingress(&mut self, link: LinkId, arrival: Cycle, word: Arc<StreamWord>) {
        self.ingress[link.index() as usize].push_back((arrival, word));
    }

    /// Runs a program to completion.
    ///
    /// Dispatches through the pre-decoded op cache by default
    /// ([`RunOptions::decoded`]); decoding here is one pass over the program
    /// text. Callers that run the same program repeatedly should memoize a
    /// [`DecodedProgram`] and call [`Chip::run_decoded`] directly.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]: scheduling contract violations, uncorrectable ECC
    /// errors, deadlock, or the cycle budget.
    pub fn run(&mut self, program: &Program, options: &RunOptions) -> Result<RunReport, SimError> {
        if options.decoded {
            let decoded = DecodedProgram::decode(program);
            self.run_decoded(&decoded, options)
        } else {
            self.run_interpreted(program, options)
        }
    }

    /// Runs a program through the interpreted dispatch path: every dispatch
    /// re-walks the instruction match tree. Kept as the reference oracle the
    /// decoded path is pinned against; see [`Chip::run_decoded`].
    ///
    /// # Errors
    ///
    /// Any [`SimError`], exactly as [`Chip::run`].
    pub fn run_interpreted(
        &mut self,
        program: &Program,
        options: &RunOptions,
    ) -> Result<RunReport, SimError> {
        let mut queues: Vec<QueueState> = program
            .queues()
            .map(|(icu, instrs)| QueueState {
                icu,
                position: icu.position(),
                instructions: instrs.to_vec(),
                pc: 0,
                burst: None,
                barriers: 0,
            })
            .collect();

        let mut ctx = RunCtx {
            trace: Trace::with_capacity(options.trace, options.trace_capacity),
            telemetry: Telemetry::new(),
            counters: options.counters,
            bandwidth: BandwidthMeter::new(),
            last_effect: 0,
            instructions: 0,
            nops: 0,
            notify_times: Vec::new(),
            functional: options.functional,
            slicer: LayerSlicer::new(options.layers.clone()),
        };
        for q in &queues {
            ctx.queue_depth(q.instructions.len());
        }

        // (time, queue index) min-heap; queue index breaks ties, giving a
        // fixed deterministic order (though order within a cycle is
        // immaterial: writes never take effect at their dispatch cycle).
        debug_assert!(queues.len() <= 256, "heap key packs queue index in 8 bits");
        let mut heap: BinaryHeap<Reverse<u64>> = queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.instructions.is_empty())
            .map(|(i, _)| Reverse(i as u64))
            .collect();
        let mut parked: Vec<(usize, Cycle)> = Vec::new();

        // Planned fault events, consumed in cycle order. Dispatches pop in
        // nondecreasing time, so applying every event with `cycle <= t`
        // before the step at `t` lands each fault at a deterministic point —
        // after all effects strictly before its cycle, before any dispatch
        // at or after it.
        let fault_events = options.faults.events();
        let mut next_fault = 0usize;
        let (mut faults_applied, mut faults_vacant) = (0u64, 0u64);

        // No periodic stream sweep: the flat stream file reclaims expired
        // diagonals incrementally on write, so memory stays bounded.
        // Keys pack (cycle, queue) as `t << 8 | qi`: one u64 comparison per
        // sift step, same (time, queue-index) order as the tuple key.
        while let Some(Reverse(key)) = heap.pop() {
            let (t, qi) = (key >> 8, (key & 0xFF) as usize);
            if t > options.cycle_limit {
                return Err(SimError::CycleLimit {
                    limit: options.cycle_limit,
                });
            }
            // Layer slicing: prior pops all had cycle <= t, so crossing a
            // boundary here means the ending layer's events are complete.
            if t >= ctx.slicer.next_end {
                ctx.slicer.seal_to(t, &ctx.telemetry);
            }
            while let Some(event) = fault_events.get(next_fault).filter(|e| e.cycle <= t) {
                next_fault += 1;
                if self.apply_fault(event) {
                    faults_applied += 1;
                } else {
                    faults_vacant += 1;
                }
            }
            match self.step(&mut queues[qi], t, &mut ctx)? {
                Step::NextAt(next) => {
                    // `next == t` is legal (a Repeat's first folded iteration);
                    // progress is guaranteed because every step advances the
                    // queue's pc or burst cursor.
                    debug_assert!(next >= t, "queue went backwards in time");
                    heap.push(Reverse((next << 8) | qi as u64));
                }
                Step::Parked => {
                    // Wake immediately if the matching notify already fired.
                    let gen = queues[qi].barriers as usize;
                    if let Some(&nt) = ctx.notify_times.get(gen) {
                        let resume = resume_after_barrier(t, nt);
                        let q = &mut queues[qi];
                        q.pc += 1;
                        q.barriers += 1;
                        heap.push(Reverse((resume << 8) | qi as u64));
                    } else {
                        parked.push((qi, t));
                    }
                }
                Step::Done => {}
            }
            // A Notify may have just fired: wake every parked queue whose
            // generation it satisfies.
            if !parked.is_empty() {
                let mut still = Vec::new();
                for (pqi, pt) in parked.drain(..) {
                    let gen = queues[pqi].barriers as usize;
                    if let Some(&nt) = ctx.notify_times.get(gen) {
                        let resume = resume_after_barrier(pt, nt);
                        let q = &mut queues[pqi];
                        q.pc += 1;
                        q.barriers += 1;
                        heap.push(Reverse((resume << 8) | pqi as u64));
                    } else {
                        still.push((pqi, pt));
                    }
                }
                parked = still;
            }
        }

        if !parked.is_empty() {
            return Err(SimError::Deadlock {
                parked: parked.len(),
                sites: parked
                    .iter()
                    .map(|&(qi, at)| (queues[qi].icu, at))
                    .collect(),
            });
        }

        // Events scheduled past the last dispatch never found live state.
        faults_vacant += (fault_events.len() - next_fault) as u64;

        ctx.telemetry.dropped_events = ctx.trace.dropped_events();
        let layers = ctx.slicer.finish(&ctx.telemetry);
        Ok(RunReport {
            cycles: ctx.last_effect + Cycle::from(tsp_arch::timing::SLICE_TILES),
            instructions: ctx.instructions,
            nops: ctx.nops,
            trace: ctx.trace,
            telemetry: ctx.telemetry,
            bandwidth: ctx.bandwidth,
            ecc_corrected: self.memory.errors.corrected(),
            faults_applied,
            faults_vacant,
            egress: std::mem::take(&mut self.egress),
            layers,
        })
    }

    /// Runs a pre-decoded program to completion: the event-driven scheduler
    /// walks flat decoded op spans, so the hot loop touches no instruction
    /// text, recomputes no time models, and re-validates no routing. The
    /// event loop below is a line-for-line twin of
    /// [`Chip::run_interpreted`]'s — the `decoded_oracle` suite pins the two
    /// bit-identical, so any edit here must land there too.
    ///
    /// # Errors
    ///
    /// Any [`SimError`], exactly as [`Chip::run`].
    pub fn run_decoded(
        &mut self,
        program: &DecodedProgram,
        options: &RunOptions,
    ) -> Result<RunReport, SimError> {
        let mut queues: Vec<DecodedQueueState<'_>> = program
            .queues
            .iter()
            .map(|(icu, dq)| DecodedQueueState {
                icu: *icu,
                position: icu.position(),
                class: crate::decoded::class_of(*icu),
                base: &dq.ops,
                overlay: Vec::new(),
                tail: dq.tail.clone(),
                pc: 0,
                sub: 0,
                barriers: 0,
            })
            .collect();

        let mut ctx = RunCtx {
            trace: Trace::with_capacity(options.trace, options.trace_capacity),
            telemetry: Telemetry::new(),
            counters: options.counters,
            bandwidth: BandwidthMeter::new(),
            last_effect: 0,
            instructions: 0,
            nops: 0,
            notify_times: Vec::new(),
            functional: options.functional,
            slicer: LayerSlicer::new(options.layers.clone()),
        };
        for q in &queues {
            ctx.queue_depth(q.len());
        }

        debug_assert!(queues.len() <= 256, "heap key packs queue index in 8 bits");
        let mut heap: BinaryHeap<Reverse<u64>> = queues
            .iter()
            .enumerate()
            .filter(|(_, q)| q.len() > 0)
            .map(|(i, _)| Reverse(i as u64))
            .collect();
        let mut parked: Vec<(usize, Cycle)> = Vec::new();

        let fault_events = options.faults.events();
        let mut next_fault = 0usize;
        let (mut faults_applied, mut faults_vacant) = (0u64, 0u64);

        // Keys pack (cycle, queue) as `t << 8 | qi`: one u64 comparison per
        // sift step, same (time, queue-index) order as the tuple key.
        while let Some(Reverse(key)) = heap.pop() {
            let (t, qi) = (key >> 8, (key & 0xFF) as usize);
            if t > options.cycle_limit {
                return Err(SimError::CycleLimit {
                    limit: options.cycle_limit,
                });
            }
            // Layer slicing: prior pops all had cycle <= t, so crossing a
            // boundary here means the ending layer's events are complete.
            if t >= ctx.slicer.next_end {
                ctx.slicer.seal_to(t, &ctx.telemetry);
            }
            while let Some(event) = fault_events.get(next_fault).filter(|e| e.cycle <= t) {
                next_fault += 1;
                if self.apply_fault(event) {
                    faults_applied += 1;
                } else {
                    faults_vacant += 1;
                }
            }
            match self.dstep(&mut queues[qi], t, &mut ctx)? {
                Step::NextAt(next) => {
                    debug_assert!(next >= t, "queue went backwards in time");
                    heap.push(Reverse((next << 8) | qi as u64));
                }
                Step::Parked => {
                    let gen = queues[qi].barriers as usize;
                    if let Some(&nt) = ctx.notify_times.get(gen) {
                        let resume = resume_after_barrier(t, nt);
                        let q = &mut queues[qi];
                        q.pc += 1;
                        q.barriers += 1;
                        heap.push(Reverse((resume << 8) | qi as u64));
                    } else {
                        parked.push((qi, t));
                    }
                }
                Step::Done => {}
            }
            if !parked.is_empty() {
                let mut still = Vec::new();
                for (pqi, pt) in parked.drain(..) {
                    let gen = queues[pqi].barriers as usize;
                    if let Some(&nt) = ctx.notify_times.get(gen) {
                        let resume = resume_after_barrier(pt, nt);
                        let q = &mut queues[pqi];
                        q.pc += 1;
                        q.barriers += 1;
                        heap.push(Reverse((resume << 8) | pqi as u64));
                    } else {
                        still.push((pqi, pt));
                    }
                }
                parked = still;
            }
        }

        if !parked.is_empty() {
            return Err(SimError::Deadlock {
                parked: parked.len(),
                sites: parked
                    .iter()
                    .map(|&(qi, at)| (queues[qi].icu, at))
                    .collect(),
            });
        }

        faults_vacant += (fault_events.len() - next_fault) as u64;

        ctx.telemetry.dropped_events = ctx.trace.dropped_events();
        let layers = ctx.slicer.finish(&ctx.telemetry);
        Ok(RunReport {
            cycles: ctx.last_effect + Cycle::from(tsp_arch::timing::SLICE_TILES),
            instructions: ctx.instructions,
            nops: ctx.nops,
            trace: ctx.trace,
            telemetry: ctx.telemetry,
            bandwidth: ctx.bandwidth,
            ecc_corrected: self.memory.errors.corrected(),
            faults_applied,
            faults_vacant,
            egress: std::mem::take(&mut self.egress),
            layers,
        })
    }

    /// One decoded dispatch. Span ops execute iteration `sub` and re-arm at
    /// `t + stride`; folded `Repeat` iterations and MXM burst rows therefore
    /// cost one shallow match each instead of a re-decode. Mirrors the
    /// timing/counter behaviour of [`Chip::step`] + [`Chip::issue`] exactly:
    /// a span's first iteration lands at the cycle the interpreted path
    /// dispatches the `Repeat` (its setup pop re-arms at the same cycle and
    /// is immediately re-popped, so folding it away is unobservable).
    fn dstep(
        &mut self,
        q: &mut DecodedQueueState<'_>,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<Step, SimError> {
        let Some(op) = q.op(q.pc) else {
            return Ok(Step::Done);
        };
        match op {
            DecodedOp::Nop { advance } => {
                let advance = *advance;
                ctx.nops += 1;
                q.pc += 1;
                Ok(Step::NextAt(t + Cycle::from(advance)))
            }
            DecodedOp::Sync => {
                ctx.instructions += 1;
                Ok(Step::Parked)
            }
            DecodedOp::Notify => {
                ctx.instructions += 1;
                let gen = q.barriers as usize;
                if ctx.notify_times.len() != gen {
                    return Err(SimError::InvalidInstruction {
                        reason: format!("Notify for barrier generation {gen} out of order"),
                        icu: q.icu,
                        cycle: t,
                    });
                }
                ctx.notify_times.push(t);
                q.pc += 1;
                q.barriers += 1;
                Ok(Step::NextAt(resume_after_barrier(t, t)))
            }
            DecodedOp::Config { superlanes } => {
                let superlanes = *superlanes;
                ctx.instructions += 1;
                self.config.superlanes_enabled = usize::from(superlanes).clamp(1, SUPERLANES);
                q.pc += 1;
                Ok(Step::NextAt(t + 1))
            }
            DecodedOp::RepeatEmpty => {
                ctx.instructions += 1;
                q.pc += 1;
                Ok(Step::NextAt(t + 1))
            }
            DecodedOp::Ifetch { stream } => {
                let stream = *stream;
                ctx.instructions += 1;
                self.difetch(q, stream, t, ctx)?;
                q.pc += 1;
                Ok(Step::NextAt(t + 2))
            }
            DecodedOp::Invalid(inv) => {
                ctx.instructions += 1;
                Err(match inv.kind {
                    InvalidKind::WrongSlice => SimError::WrongSlice {
                        icu: q.icu,
                        instruction: inv.detail.clone(),
                        cycle: t,
                    },
                    InvalidKind::InvalidInstruction => SimError::InvalidInstruction {
                        reason: inv.detail.clone(),
                        icu: q.icu,
                        cycle: t,
                    },
                })
            }
            DecodedOp::Mem {
                op,
                n,
                stride,
                d_func,
                off,
            } => {
                let (op, n, stride, d_func, off) = (*op, *n, *stride, *d_func, *off);
                let sub = q.sub;
                if sub == 0 {
                    ctx.instructions += 1;
                }
                if sub + 1 >= n {
                    q.sub = 0;
                    q.pc += 1;
                } else {
                    q.sub = sub + 1;
                }
                let pos = q.position.expect("decode rejects data ops on host queues");
                // Folded Read/Write iterations walk one word per iteration
                // (same u16 arithmetic and bound as `repeat_iteration`).
                let eff = if off == 0 {
                    op
                } else {
                    let bump = |addr: tsp_isa::MemAddr| -> Result<tsp_isa::MemAddr, SimError> {
                        let w = addr.word() + off + sub;
                        if w >= 8192 {
                            return Err(SimError::InvalidInstruction {
                                reason: format!("Repeat walked address {w:#x} past the slice"),
                                icu: q.icu,
                                cycle: t,
                            });
                        }
                        Ok(tsp_isa::MemAddr::new(w))
                    };
                    match op {
                        MemOp::Read { addr, stream } => MemOp::Read {
                            addr: bump(addr)?,
                            stream,
                        },
                        MemOp::Write { addr, stream } => MemOp::Write {
                            addr: bump(addr)?,
                            stream,
                        },
                        other => other,
                    }
                };
                self.mem_op(q.icu, &eff, pos, t, Cycle::from(d_func), ctx)?;
                Ok(Step::NextAt(t + Cycle::from(stride)))
            }
            DecodedOp::Vxm {
                op,
                n,
                stride,
                d_func,
            } => {
                let (op, n, stride, d_func) = (*op, *n, *stride, *d_func);
                if q.sub == 0 {
                    ctx.instructions += 1;
                }
                if q.sub + 1 >= n {
                    q.sub = 0;
                    q.pc += 1;
                } else {
                    q.sub += 1;
                }
                let pos = q.position.expect("decode rejects data ops on host queues");
                self.vxm_op(q.icu, &op, pos, t, Cycle::from(d_func), ctx)?;
                Ok(Step::NextAt(t + Cycle::from(stride)))
            }
            DecodedOp::Sxm {
                op,
                n,
                stride,
                d_func,
            } => {
                let (op, n, stride, d_func) = (op.clone(), *n, *stride, *d_func);
                if q.sub == 0 {
                    ctx.instructions += 1;
                }
                if q.sub + 1 >= n {
                    q.sub = 0;
                    q.pc += 1;
                } else {
                    q.sub += 1;
                }
                let pos = q.position.expect("decode rejects data ops on host queues");
                self.sxm_op(q.icu, &op, pos, t, Cycle::from(d_func), ctx)?;
                Ok(Step::NextAt(t + Cycle::from(stride)))
            }
            DecodedOp::C2c {
                op,
                n,
                stride,
                d_func,
            } => {
                let (op, n, stride, d_func) = (*op, *n, *stride, *d_func);
                if q.sub == 0 {
                    ctx.instructions += 1;
                }
                if q.sub + 1 >= n {
                    q.sub = 0;
                    q.pc += 1;
                } else {
                    q.sub += 1;
                }
                let pos = q.position.expect("decode rejects data ops on host queues");
                self.c2c_op(q.icu, &op, pos, t, Cycle::from(d_func), ctx)?;
                Ok(Step::NextAt(t + Cycle::from(stride)))
            }
            DecodedOp::MxmBurst { op, rows } => {
                let (op, rows) = (*op, *rows);
                let sub = q.sub;
                if sub == 0 {
                    ctx.instructions += 1;
                }
                if sub + 1 >= rows {
                    q.sub = 0;
                    q.pc += 1;
                } else {
                    q.sub = sub + 1;
                }
                self.mxm_row(q.icu, &op, sub, t, ctx)?;
                Ok(Step::NextAt(t + 1))
            }
            DecodedOp::MxmInstall {
                plane,
                dtype,
                d_func,
                n,
                stride,
            } => {
                let (plane, dtype, d_func, n, stride) = (*plane, *dtype, *d_func, *n, *stride);
                if q.sub == 0 {
                    ctx.instructions += 1;
                }
                if q.sub + 1 >= n {
                    q.sub = 0;
                    q.pc += 1;
                } else {
                    q.sub += 1;
                }
                self.planes[plane.index() as usize].install(dtype);
                let d_func = Cycle::from(d_func);
                let dur = u16::try_from(d_func).unwrap_or(1);
                ctx.note_span(t, dur, q.icu, ActivityKind::MxmInstall, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
                Ok(Step::NextAt(t + Cycle::from(stride)))
            }
        }
    }

    /// [`Chip::ifetch`] for the decoded path: fetched instruction text is
    /// decoded immediately (threading the queue's `tail` through as the
    /// `Repeat` predecessor) and appended to the runtime overlay.
    fn difetch(
        &mut self,
        q: &mut DecodedQueueState<'_>,
        stream: StreamId,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let pos = q.position.ok_or_else(|| SimError::WrongSlice {
            icu: q.icu,
            instruction: "Ifetch".into(),
            cycle: t,
        })?;
        let lo = self.read_consume(q.icu, stream, pos, t, true)?;
        let hi = self.read_consume(q.icu, stream, pos, t + 1, true)?;
        let mut text = Vec::with_capacity(640);
        text.extend_from_slice(lo.as_bytes());
        text.extend_from_slice(hi.as_bytes());
        let fetched = decode_fetch_block(&text).map_err(|e| SimError::Decode {
            reason: e.to_string(),
            icu: q.icu,
            cycle: t,
        })?;
        ctx.bandwidth.record(Traffic::InstructionFetch, 640);
        ctx.note_span(t, 2, q.icu, ActivityKind::Ifetch, self.active_lanes());
        for instr in fetched {
            q.overlay
                .push(decode_step(q.class, q.tail.as_ref(), &instr));
            q.tail = Some(instr);
        }
        ctx.queue_depth(q.len() - q.pc);
        Ok(())
    }

    /// Applies one planned fault to live chip state. Returns `false` when the
    /// targeted site holds nothing (a vacant stream register): the particle
    /// struck, but there was no state to disturb.
    fn apply_fault(&mut self, event: &FaultEvent) -> bool {
        match event.kind {
            FaultKind::SramData {
                hemisphere,
                slice,
                word,
                lane,
                bit,
            } => {
                self.memory.slice_mut(hemisphere, slice).inject_fault(
                    tsp_isa::MemAddr::new(word),
                    usize::from(lane),
                    bit,
                );
                true
            }
            FaultKind::SramCheck {
                hemisphere,
                slice,
                word,
                superlane,
                bit,
            } => {
                self.memory.slice_mut(hemisphere, slice).inject_check_fault(
                    tsp_isa::MemAddr::new(word),
                    usize::from(superlane),
                    bit,
                );
                true
            }
            FaultKind::StreamUpset {
                stream,
                position,
                lane,
                bit,
            } => self
                .streams
                .corrupt(stream, Position(position), event.cycle, lane, bit),
        }
    }

    /// Renders the chip's CSR error log for post-mortem triage: the one-line
    /// summary followed by every recorded event (campaign tooling calls this
    /// after a trial to report what the hardware saw).
    #[must_use]
    pub fn error_log_dump(&self) -> String {
        let mut out = self.memory.errors.summary();
        for e in self.memory.errors.events() {
            out.push_str(&format!(
                "\n  cycle {:>8}: {} at {}",
                e.cycle,
                if e.corrected {
                    "corrected single-bit"
                } else {
                    "detected double-bit"
                },
                e.site
            ));
        }
        out
    }

    fn step(&mut self, q: &mut QueueState, t: Cycle, ctx: &mut RunCtx) -> Result<Step, SimError> {
        // Continue an in-flight burst first.
        if let Some(burst) = q.burst.take() {
            match burst {
                Burst::Mxm { op, row, rows } => {
                    self.mxm_row(q.icu, &op, row, t, ctx)?;
                    if row + 1 >= rows {
                        q.pc += 1;
                    } else {
                        q.burst = Some(Burst::Mxm {
                            op,
                            row: row + 1,
                            rows,
                        });
                    }
                    return Ok(Step::NextAt(t + 1));
                }
                Burst::Repeat { instr, iter, n, d } => {
                    let stride = Cycle::from(d.max(1));
                    let this = repeat_iteration(&instr, iter, q.icu, t)?;
                    if iter + 1 >= n {
                        q.pc += 1;
                    } else {
                        q.burst = Some(Burst::Repeat {
                            instr,
                            iter: iter + 1,
                            n,
                            d,
                        });
                    }
                    self.issue(q, &this, t, ctx)?;
                    return Ok(Step::NextAt(t + stride));
                }
            }
        }

        let Some(instr) = q.instructions.get(q.pc).cloned() else {
            return Ok(Step::Done);
        };

        match &instr {
            Instruction::Icu(IcuOp::Nop { count }) => {
                ctx.nops += 1;
                q.pc += 1;
                Ok(Step::NextAt(t + Cycle::from((*count).max(1))))
            }
            Instruction::Icu(IcuOp::Sync) => {
                ctx.instructions += 1;
                Ok(Step::Parked)
            }
            Instruction::Icu(IcuOp::Notify) => {
                ctx.instructions += 1;
                let gen = q.barriers as usize;
                if ctx.notify_times.len() != gen {
                    return Err(SimError::InvalidInstruction {
                        reason: format!("Notify for barrier generation {gen} out of order"),
                        icu: q.icu,
                        cycle: t,
                    });
                }
                ctx.notify_times.push(t);
                q.pc += 1;
                q.barriers += 1;
                Ok(Step::NextAt(resume_after_barrier(t, t)))
            }
            Instruction::Icu(IcuOp::Config { superlanes }) => {
                ctx.instructions += 1;
                self.config.superlanes_enabled = usize::from(*superlanes).clamp(1, SUPERLANES);
                q.pc += 1;
                Ok(Step::NextAt(t + 1))
            }
            Instruction::Icu(IcuOp::Repeat { n, d }) => {
                ctx.instructions += 1;
                if q.pc == 0 {
                    return Err(SimError::InvalidInstruction {
                        reason: "Repeat with no previous instruction".into(),
                        icu: q.icu,
                        cycle: t,
                    });
                }
                let prev = q.instructions[q.pc - 1].clone();
                if *n == 0 {
                    q.pc += 1;
                    return Ok(Step::NextAt(t + 1));
                }
                q.burst = Some(Burst::Repeat {
                    instr: prev,
                    iter: 0,
                    n: *n,
                    d: *d,
                });
                // The first repeat iteration executes at the Repeat's own
                // dispatch cycle (the ICU folds the repeat into issue).
                Ok(Step::NextAt(t))
            }
            Instruction::Icu(IcuOp::Ifetch { stream }) => {
                ctx.instructions += 1;
                self.ifetch(q, *stream, t, ctx)?;
                q.pc += 1;
                Ok(Step::NextAt(t + 2))
            }
            Instruction::Mxm(
                op @ (MxmOp::LoadWeights { .. }
                | MxmOp::ActivationBuffer { .. }
                | MxmOp::Accumulate { .. }),
            ) => {
                ctx.instructions += 1;
                validate_routing(q.icu, &instr, t)?;
                let rows = match op {
                    MxmOp::LoadWeights { rows, .. } => u16::from(*rows),
                    MxmOp::ActivationBuffer { rows, .. } | MxmOp::Accumulate { rows, .. } => *rows,
                    MxmOp::InstallWeights { .. } => unreachable!("IW handled by issue()"),
                };
                self.mxm_row(q.icu, op, 0, t, ctx)?;
                if rows <= 1 {
                    q.pc += 1;
                } else {
                    q.burst = Some(Burst::Mxm {
                        op: *op,
                        row: 1,
                        rows,
                    });
                }
                Ok(Step::NextAt(t + 1))
            }
            _ => {
                ctx.instructions += 1;
                self.issue(q, &instr, t, ctx)?;
                q.pc += 1;
                Ok(Step::NextAt(t + 1))
            }
        }
    }

    /// Executes a single-cycle instruction dispatched at `t`.
    fn issue(
        &mut self,
        q: &QueueState,
        instr: &Instruction,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        validate_routing(q.icu, instr, t)?;
        let pos = q.position.ok_or_else(|| SimError::WrongSlice {
            icu: q.icu,
            instruction: instr.to_string(),
            cycle: t,
        })?;
        let d_func = Cycle::from(instr.time_model().d_func);
        match instr {
            Instruction::Mem(op) => self.mem_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::Vxm(op) => self.vxm_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::Sxm(op) => self.sxm_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::C2c(op) => self.c2c_op(q.icu, op, pos, t, d_func, ctx)?,
            Instruction::Mxm(MxmOp::InstallWeights { plane, dtype }) => {
                self.planes[plane.index() as usize].install(*dtype);
                let dur = u16::try_from(d_func).unwrap_or(1);
                ctx.note_span(t, dur, q.icu, ActivityKind::MxmInstall, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
            Instruction::Mxm(_) | Instruction::Icu(_) => {
                return Err(SimError::WrongSlice {
                    icu: q.icu,
                    instruction: instr.to_string(),
                    cycle: t,
                })
            }
        }
        Ok(())
    }

    fn active_lanes(&self) -> u16 {
        (self.config.superlanes_enabled * 16) as u16
    }

    fn read_stream(
        &self,
        icu: IcuId,
        stream: StreamId,
        pos: Position,
        t: Cycle,
    ) -> Result<Arc<StreamWord>, SimError> {
        self.streams
            .read(stream, pos, t)
            .ok_or(SimError::EmptyStreamRead {
                stream,
                position: pos,
                cycle: t,
                icu,
            })
    }

    /// Consumer-side ECC check of a stream word (paper §II-D): corrects
    /// single-bit upsets (logging to the CSR), faults on double-bit errors.
    ///
    /// `check: false` (timing-only runs) skips the per-superlane SECDED
    /// verification: the data is not computed on, and timing never depends
    /// on it.
    fn consume(
        &mut self,
        icu: IcuId,
        word: &StreamWord,
        stream: StreamId,
        t: Cycle,
        check: bool,
    ) -> Result<Vector, SimError> {
        if !check || !self.config.ecc_enabled || word.is_pristine() {
            // A pristine word's check bits equal `encode(data)` by
            // construction, so the SECDED check below could only return
            // `Clean` with the data unchanged — skipping it is
            // observationally identical (and is where the fault-free fast
            // path earns its keep).
            return Ok(word.data.clone());
        }
        let check_bits = word.check();
        let mut data = word.data.clone();
        for (s, &cb) in check_bits.iter().enumerate() {
            let mut w = [0u8; 16];
            w.copy_from_slice(data.superlane(s));
            match ecc::check_and_correct(&mut w, cb) {
                Ok(ecc::EccOutcome::Clean) => {}
                Ok(ecc::EccOutcome::Corrected { .. }) => {
                    data.superlane_mut(s).copy_from_slice(&w);
                    self.memory
                        .errors
                        .record_corrected(t, ErrorSite::Stream { stream: stream.id });
                }
                Err(_) => {
                    self.memory
                        .errors
                        .record_uncorrectable(t, ErrorSite::Stream { stream: stream.id });
                    return Err(SimError::Ecc {
                        cycle: t,
                        icu,
                        stream,
                        csr: self.memory.errors.summary(),
                    });
                }
            }
        }
        Ok(data)
    }

    fn read_consume(
        &mut self,
        icu: IcuId,
        stream: StreamId,
        pos: Position,
        t: Cycle,
        check: bool,
    ) -> Result<Vector, SimError> {
        let word = self.read_stream(icu, stream, pos, t)?;
        self.consume(icu, &word, stream, t, check)
    }

    /// [`Chip::read_consume`] at `Arc` granularity: the pristine fast path
    /// returns the stream word itself (a reference-count bump, no 320-byte
    /// copy); a word that really needs its SECDED check verified comes back
    /// as a freshly protected corrected word.
    fn read_word(
        &mut self,
        icu: IcuId,
        stream: StreamId,
        pos: Position,
        t: Cycle,
        check: bool,
    ) -> Result<Arc<StreamWord>, SimError> {
        let word = self.read_stream(icu, stream, pos, t)?;
        if !check || !self.config.ecc_enabled || word.is_pristine() {
            return Ok(word);
        }
        let data = self.consume(icu, &word, stream, t, check)?;
        Ok(Arc::new(StreamWord::protect(data)))
    }

    /// Produces a fresh (re-protected) vector onto a stream at `t_eff`,
    /// recycling a retired word from the stream file's pool when possible.
    fn produce(
        &mut self,
        stream: StreamId,
        pos: Position,
        t_eff: Cycle,
        data: Vector,
        ctx: &mut RunCtx,
    ) {
        self.produce_checked(stream, pos, t_eff, data, None, ctx);
    }

    /// [`Chip::produce`] of a vector assembled from stored words: `check` of
    /// `Some` carries their stored check bits, which may disagree with the
    /// data (a latent error travelling on to the consumer's check).
    fn produce_checked(
        &mut self,
        stream: StreamId,
        pos: Position,
        t_eff: Cycle,
        data: Vector,
        check: Option<[u16; SUPERLANES]>,
        ctx: &mut RunCtx,
    ) {
        ctx.bandwidth.record(Traffic::Stream, 320);
        ctx.last_effect = ctx.last_effect.max(t_eff);
        self.streams.write_owned(stream, pos, t_eff, data, check);
        ctx.stream_level(self.streams.live_count());
    }

    /// Timing-only produce: same bandwidth and timing bookkeeping as
    /// [`Chip::produce`], but the payload is the shared zero word — no
    /// allocation and no ECC encode.
    fn produce_zero(&mut self, stream: StreamId, pos: Position, t_eff: Cycle, ctx: &mut RunCtx) {
        ctx.bandwidth.record(Traffic::Stream, 320);
        ctx.last_effect = ctx.last_effect.max(t_eff);
        self.streams
            .write(stream, pos, t_eff, Arc::clone(&self.zero_word));
        ctx.stream_level(self.streams.live_count());
    }

    fn mem_op(
        &mut self,
        icu: IcuId,
        op: &MemOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let IcuId::Mem { hemisphere, index } = icu else {
            unreachable!("validated by validate_routing")
        };
        match op {
            MemOp::Read { addr, stream } => {
                let slice = self.memory.slice_mut(hemisphere, index);
                slice
                    .access(t, *addr, false)
                    .map_err(|error| SimError::Memory { error, icu })?;
                // Forward data with its *stored* check bits: ECC is generated
                // at the producer and travels with the word (paper §II-D).
                // Suspicion is per stored word: a pristine word provably has
                // `check == encode(data)` and forwards on the fast path; one
                // a fault path touched forwards explicit bits and the
                // consumer really verifies them. A fault strike on one
                // address therefore never evicts the fast path for the rest
                // of its slice.
                let word = match slice.peek_ref(*addr) {
                    Some(stored) => Arc::clone(stored),
                    None => Arc::clone(&self.zero_word),
                };
                ctx.bandwidth.record(Traffic::SramRead, 320);
                ctx.note(t, icu, ActivityKind::MemRead, self.active_lanes());
                if ctx.counters {
                    if word.is_pristine() {
                        ctx.telemetry.mem_reads_pristine += 1;
                    } else {
                        ctx.telemetry.mem_reads_verified += 1;
                    }
                }
                ctx.last_effect = ctx.last_effect.max(t + d_func);
                ctx.bandwidth.record(Traffic::Stream, 320);
                self.streams.write(*stream, pos, t + d_func, word);
                ctx.stream_level(self.streams.live_count());
            }
            MemOp::Write { addr, stream } => {
                let word = self.read_word(icu, *stream, pos, t, ctx.functional)?;
                let slice = self.memory.slice_mut(hemisphere, index);
                slice
                    .access(t, *addr, true)
                    .map_err(|error| SimError::Memory { error, icu })?;
                if word.is_pristine() {
                    // The interpreted-semantics store is `protect(data)`:
                    // for a pristine word that is this very word — share it.
                    let displaced = slice.poke_shared(*addr, word);
                    if let Some(old) = displaced {
                        self.streams.recycle(old);
                    }
                } else {
                    // Check skipped (timing-only / ECC off): the store
                    // re-protects the raw data, dropping the latent error,
                    // exactly as the copying path always did.
                    slice.poke(*addr, word.data.clone());
                }
                ctx.bandwidth.record(Traffic::SramWrite, 320);
                ctx.note(t, icu, ActivityKind::MemWrite, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
            MemOp::Gather { stream, map } => {
                // The map is consumed on every path (the stream contract is
                // checked, and its addresses pick the banks the port charges).
                let map_vec = self.read_consume(icu, *map, pos, t, ctx.functional)?;
                let addrs = map_addresses(&map_vec);
                self.memory
                    .slice_mut(hemisphere, index)
                    .access_banks(t, bank_mask(&addrs), false)
                    .map_err(|error| SimError::Memory { error, icu })?;
                ctx.bandwidth.record(Traffic::SramRead, 320);
                ctx.note(t, icu, ActivityKind::MemGather, self.active_lanes());
                if !ctx.functional {
                    if ctx.counters {
                        ctx.telemetry.mem_reads_pristine += 1;
                    }
                    self.produce_zero(*stream, pos, t + d_func, ctx);
                    return Ok(());
                }
                // Like `Read`, forward every superlane's *stored* check bits:
                // a latent error under a gathered word reaches the consumer's
                // check instead of being re-encoded as clean data.
                let slice = self.memory.slice(hemisphere, index);
                let mut out = Vector::ZERO;
                let mut suspect: Vec<(usize, u16)> = Vec::new();
                for (s, &addr) in addrs.iter().enumerate() {
                    if let Some(word) = slice.peek_ref(addr) {
                        out.superlane_mut(s).copy_from_slice(word.data.superlane(s));
                        if !word.is_pristine() {
                            suspect.push((s, word.check()[s]));
                        }
                    }
                }
                let check = (!suspect.is_empty()).then(|| {
                    let mut check = tsp_mem::slice::StoredVector::protect(out.clone()).check();
                    for &(s, stored) in &suspect {
                        check[s] = stored;
                    }
                    check
                });
                if ctx.counters {
                    if check.is_none() {
                        ctx.telemetry.mem_reads_pristine += 1;
                    } else {
                        ctx.telemetry.mem_reads_verified += 1;
                    }
                }
                self.produce_checked(*stream, pos, t + d_func, out, check, ctx);
            }
            MemOp::Scatter { stream, map } => {
                let data = self.read_consume(icu, *stream, pos, t, ctx.functional)?;
                let map_vec = self.read_consume(icu, *map, pos, t, ctx.functional)?;
                let addrs = map_addresses(&map_vec);
                let slice = self.memory.slice_mut(hemisphere, index);
                slice
                    .access_banks(t, bank_mask(&addrs), true)
                    .map_err(|error| SimError::Memory { error, icu })?;
                // Timing-only runs carry no data (a `Gather` there produces
                // the shared zero word without looking at memory): the port
                // is charged above, the twenty read-modify-writes are not
                // worth doing.
                let addrs = if ctx.functional { &addrs[..] } else { &[] };
                for (s, &addr) in addrs.iter().enumerate() {
                    let stored = slice.peek(addr);
                    let prior_check = if stored.is_pristine() {
                        None
                    } else {
                        Some(stored.check())
                    };
                    let mut merged = stored.data;
                    merged.superlane_mut(s).copy_from_slice(data.superlane(s));
                    let word = match prior_check {
                        // Every other superlane's check already equals its
                        // encode; re-protecting the merged word (lazily)
                        // keeps the whole word pristine.
                        None => tsp_mem::slice::StoredVector::protect(merged),
                        // Preserve any latent error in the untouched
                        // superlanes; re-encode only the overwritten one.
                        Some(mut check) => {
                            let mut raw = [0u8; 16];
                            raw.copy_from_slice(merged.superlane(s));
                            check[s] = ecc::encode(&raw);
                            tsp_mem::slice::StoredVector::with_check(merged, check)
                        }
                    };
                    slice.poke_stored(addr, word);
                }
                ctx.bandwidth.record(Traffic::SramWrite, 320);
                ctx.note(t, icu, ActivityKind::MemScatter, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
        }
        Ok(())
    }

    fn vxm_op(
        &mut self,
        icu: IcuId,
        op: &VxmOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let functional = ctx.functional;
        // Timing-only runs still perform every stream read (empty reads are
        // scheduling-contract violations either way) but skip the ALU
        // arithmetic and produce shared zero words: timing is data-blind.
        let read_group =
            |chip: &mut Chip, g: tsp_arch::StreamGroup| -> Result<Vec<Arc<StreamWord>>, SimError> {
                if functional {
                    g.streams()
                        .map(|s| chip.read_word(icu, s, pos, t, true))
                        .collect()
                } else {
                    for s in g.streams() {
                        chip.read_stream(icu, s, pos, t)?;
                    }
                    Ok(Vec::new())
                }
            };
        // The ALU reads operands in place — consumed words stay shared.
        fn borrow(g: &[Arc<StreamWord>]) -> Vec<&Vector> {
            g.iter().map(|w| &w.data).collect()
        }
        let (result, dst, transcendental) = match op {
            VxmOp::Unary {
                op,
                dtype,
                src,
                dst,
                ..
            } => {
                let x = read_group(self, *src)?;
                let tr = matches!(
                    op,
                    tsp_isa::UnaryAluOp::Tanh
                        | tsp_isa::UnaryAluOp::Exp
                        | tsp_isa::UnaryAluOp::Rsqrt
                );
                if !functional {
                    (Vec::new(), *dst, tr)
                } else {
                    let r = vxm_unit::apply_unary(*op, *dtype, &borrow(&x)).map_err(|reason| {
                        SimError::InvalidInstruction {
                            reason,
                            icu,
                            cycle: t,
                        }
                    })?;
                    (r, *dst, tr)
                }
            }
            VxmOp::Binary {
                op,
                dtype,
                a,
                b,
                dst,
                ..
            } => {
                let va = read_group(self, *a)?;
                let vb = read_group(self, *b)?;
                if !functional {
                    (Vec::new(), *dst, false)
                } else {
                    let r = vxm_unit::apply_binary(*op, *dtype, &borrow(&va), &borrow(&vb))
                        .map_err(|reason| SimError::InvalidInstruction {
                            reason,
                            icu,
                            cycle: t,
                        })?;
                    (r, *dst, false)
                }
            }
            VxmOp::Convert {
                from,
                to,
                src,
                dst,
                shift,
                ..
            } => {
                let x = read_group(self, *src)?;
                if !functional {
                    (Vec::new(), *dst, false)
                } else {
                    let r = vxm_unit::apply_convert(*from, *to, *shift, &borrow(&x)).map_err(
                        |reason| SimError::InvalidInstruction {
                            reason,
                            icu,
                            cycle: t,
                        },
                    )?;
                    (r, *dst, false)
                }
            }
        };
        if functional && result.len() != dst.width as usize {
            return Err(SimError::InvalidInstruction {
                reason: format!(
                    "VXM result width {} does not match destination group {dst}",
                    result.len()
                ),
                icu,
                cycle: t,
            });
        }
        ctx.note(
            t,
            icu,
            ActivityKind::VxmAlu { transcendental },
            self.active_lanes(),
        );
        if functional {
            for (i, vec) in result.into_iter().enumerate() {
                let s = StreamId::new(dst.base.id + i as u8, dst.base.direction);
                self.produce(s, pos, t + d_func, vec, ctx);
            }
        } else {
            for i in 0..dst.width {
                let s = StreamId::new(dst.base.id + i, dst.base.direction);
                self.produce_zero(s, pos, t + d_func, ctx);
            }
        }
        Ok(())
    }

    fn sxm_op(
        &mut self,
        icu: IcuId,
        op: &SxmOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        op.validate()
            .map_err(|reason| SimError::InvalidInstruction {
                reason,
                icu,
                cycle: t,
            })?;
        if !ctx.functional {
            // Validate every read (scheduling contract), skip the shuffle
            // arithmetic, produce shared zero words — timing is data-blind.
            let (kind, dsts) = match op {
                SxmOp::ShiftUp { src, dst, .. } | SxmOp::ShiftDown { src, dst, .. } => {
                    self.read_stream(icu, *src, pos, t)?;
                    (ActivityKind::SxmShift, vec![*dst])
                }
                SxmOp::Select {
                    north, south, dst, ..
                } => {
                    self.read_stream(icu, *north, pos, t)?;
                    self.read_stream(icu, *south, pos, t)?;
                    (ActivityKind::SxmShift, vec![*dst])
                }
                SxmOp::Permute { src, dst, .. } => {
                    self.read_stream(icu, *src, pos, t)?;
                    (ActivityKind::SxmPermute, vec![*dst])
                }
                SxmOp::Distribute { src, dst, .. } => {
                    self.read_stream(icu, *src, pos, t)?;
                    (ActivityKind::SxmPermute, vec![*dst])
                }
                SxmOp::Rotate { src, dst, .. } => {
                    for s in src.streams() {
                        self.read_stream(icu, s, pos, t)?;
                    }
                    (
                        ActivityKind::SxmRotate,
                        (0..src.len).map(|i| dst.stream(i)).collect(),
                    )
                }
                SxmOp::Transpose { src, dst } => {
                    for s in src.streams() {
                        self.read_stream(icu, s, pos, t)?;
                    }
                    (
                        ActivityKind::SxmTranspose,
                        (0..src.len).map(|i| dst.stream(i)).collect(),
                    )
                }
            };
            ctx.note(t, icu, kind, self.active_lanes());
            for s in dsts {
                self.produce_zero(s, pos, t + d_func, ctx);
            }
            return Ok(());
        }
        match op {
            SxmOp::ShiftUp { n, src, dst } => {
                let x = self.read_consume(icu, *src, pos, t, true)?;
                ctx.note(t, icu, ActivityKind::SxmShift, self.active_lanes());
                self.produce(*dst, pos, t + d_func, sxm_unit::shift_up(&x, *n), ctx);
            }
            SxmOp::ShiftDown { n, src, dst } => {
                let x = self.read_consume(icu, *src, pos, t, true)?;
                ctx.note(t, icu, ActivityKind::SxmShift, self.active_lanes());
                self.produce(*dst, pos, t + d_func, sxm_unit::shift_down(&x, *n), ctx);
            }
            SxmOp::Select {
                north,
                south,
                boundary,
                dst,
            } => {
                let n = self.read_consume(icu, *north, pos, t, true)?;
                let s = self.read_consume(icu, *south, pos, t, true)?;
                ctx.note(t, icu, ActivityKind::SxmShift, self.active_lanes());
                self.produce(
                    *dst,
                    pos,
                    t + d_func,
                    sxm_unit::select(&n, &s, *boundary),
                    ctx,
                );
            }
            SxmOp::Permute { map, src, dst } => {
                let x = self.read_consume(icu, *src, pos, t, true)?;
                ctx.note(t, icu, ActivityKind::SxmPermute, self.active_lanes());
                self.produce(*dst, pos, t + d_func, sxm_unit::permute(&x, map), ctx);
            }
            SxmOp::Distribute { map, src, dst } => {
                let x = self.read_consume(icu, *src, pos, t, true)?;
                ctx.note(t, icu, ActivityKind::SxmPermute, self.active_lanes());
                self.produce(*dst, pos, t + d_func, sxm_unit::distribute(&x, map), ctx);
            }
            SxmOp::Rotate { n, src, dst } => {
                let rows: Vec<Vector> = src
                    .streams()
                    .map(|s| self.read_consume(icu, s, pos, t, true))
                    .collect::<Result<_, _>>()?;
                ctx.note(t, icu, ActivityKind::SxmRotate, self.active_lanes());
                for (i, out) in sxm_unit::rotate(&rows, *n).into_iter().enumerate() {
                    self.produce(dst.stream(i as u8), pos, t + d_func, out, ctx);
                }
            }
            SxmOp::Transpose { src, dst } => {
                let rows: Vec<Vector> = src
                    .streams()
                    .map(|s| self.read_consume(icu, s, pos, t, true))
                    .collect::<Result<_, _>>()?;
                ctx.note(t, icu, ActivityKind::SxmTranspose, self.active_lanes());
                for (i, out) in sxm_unit::transpose(&rows).into_iter().enumerate() {
                    self.produce(dst.stream(i as u8), pos, t + d_func, out, ctx);
                }
            }
        }
        Ok(())
    }

    fn c2c_op(
        &mut self,
        icu: IcuId,
        op: &C2cOp,
        pos: Position,
        t: Cycle,
        d_func: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        match op {
            C2cOp::Deskew { .. } => {
                ctx.last_effect = ctx.last_effect.max(t + d_func);
            }
            C2cOp::Send { link, stream } => {
                // The word leaves with its ECC intact: the link is covered by
                // the same producer-generated code.
                let word = self.read_stream(icu, *stream, pos, t)?;
                ctx.note(t, icu, ActivityKind::C2cSend, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
                self.egress.push((link.index(), t + d_func, word));
            }
            C2cOp::Receive { link, stream } => {
                let queue = &mut self.ingress[link.index() as usize];
                let front_ready = queue.front().is_some_and(|(arr, _)| *arr <= t);
                if !front_ready {
                    return Err(SimError::LinkEmpty {
                        link: link.index(),
                        cycle: t,
                    });
                }
                let (_, word) = queue.pop_front().expect("checked non-empty");
                ctx.note(t, icu, ActivityKind::C2cReceive, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + d_func);
                ctx.bandwidth.record(Traffic::Stream, 320);
                self.streams.write(*stream, pos, t + d_func, word);
                ctx.stream_level(self.streams.live_count());
            }
        }
        Ok(())
    }

    /// One row of a multi-row MXM burst, executing at cycle `t`.
    fn mxm_row(
        &mut self,
        icu: IcuId,
        op: &MxmOp,
        row: u16,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let pos = icu.position().expect("MXM queues have positions");
        match op {
            MxmOp::LoadWeights { plane, streams, .. } => {
                if ctx.functional {
                    let rows: Vec<Vector> = streams
                        .streams()
                        .map(|s| self.read_consume(icu, s, pos, t, true))
                        .collect::<Result<_, _>>()?;
                    self.planes[plane.index() as usize].load_weight_rows(row as u8, &rows);
                } else {
                    // Validate the reads; the weight values are unused.
                    for s in streams.streams() {
                        self.read_stream(icu, s, pos, t)?;
                    }
                }
                ctx.note(t, icu, ActivityKind::MxmLoadWeights, self.active_lanes());
                ctx.last_effect = ctx.last_effect.max(t + 1);
            }
            MxmOp::ActivationBuffer { plane, stream, .. } => {
                let idx = plane.index() as usize;
                if self.planes[idx].dtype() == DataType::Fp16 {
                    let lo = self.read_word(icu, *stream, pos, t, ctx.functional)?;
                    let hi_stream = StreamId::new(stream.id + 1, stream.direction);
                    let hi = self.read_word(icu, hi_stream, pos, t, ctx.functional)?;
                    if !idx.is_multiple_of(2) || idx + 1 >= self.planes.len() {
                        return Err(SimError::InvalidInstruction {
                            reason: "fp16 ABC must target an even plane (tandem pair)".into(),
                            icu,
                            cycle: t,
                        });
                    }
                    if ctx.functional {
                        let (a, b) = self.planes.split_at_mut(idx + 1);
                        a[idx].feed_activation_fp16(t, &b[0], &lo.data, &hi.data);
                    } else {
                        self.planes[idx].feed_zero(t);
                    }
                } else if ctx.functional {
                    let act = self.read_word(icu, *stream, pos, t, true)?;
                    self.planes[idx].feed_activation_i8(t, &act.data);
                } else {
                    self.read_stream(icu, *stream, pos, t)?;
                    self.planes[idx].feed_zero(t);
                }
                ctx.note(t, icu, ActivityKind::MxmMacc, self.active_lanes());
            }
            MxmOp::Accumulate {
                plane, dst, mode, ..
            } => {
                let add = matches!(mode, tsp_isa::AccumulateMode::Accumulate);
                if dst.width != 4 {
                    return Err(SimError::InvalidInstruction {
                        reason: format!("ACC destination must be a quad-stream group, got {dst}"),
                        icu,
                        cycle: t,
                    });
                }
                ctx.note(t, icu, ActivityKind::MxmAcc, self.active_lanes());
                if !ctx.functional {
                    // Pop (and validate) the pending result, emit zero words.
                    self.planes[plane.index() as usize]
                        .accumulate(t, row as usize, add)
                        .ok_or(SimError::AccumulatorEmpty {
                            plane: plane.index(),
                            cycle: t,
                        })?;
                    for i in 0..4u8 {
                        let s = StreamId::new(dst.base.id + i, dst.base.direction);
                        self.produce_zero(s, pos, t + 1, ctx);
                    }
                    return Ok(());
                }
                let fp32_planes = {
                    let Chip {
                        planes, streams, ..
                    } = &mut *self;
                    let result = planes[plane.index() as usize]
                        .accumulate(t, row as usize, add)
                        .ok_or(SimError::AccumulatorEmpty {
                            plane: plane.index(),
                            cycle: t,
                        })?;
                    match result {
                        // The hot path: each of the four byte planes is
                        // extracted straight into a pooled stream word —
                        // no intermediate `split_i32` materialization.
                        MxmResult::Int32(vals) => {
                            for i in 0..4u32 {
                                let s = StreamId::new(dst.base.id + i as u8, dst.base.direction);
                                ctx.bandwidth.record(Traffic::Stream, 320);
                                ctx.last_effect = ctx.last_effect.max(t + 1);
                                streams.write_with(s, pos, t + 1, |data| {
                                    let bytes = data.as_bytes_mut();
                                    for (b, &v) in bytes.iter_mut().zip(vals.iter()) {
                                        *b = (v >> (8 * i)) as u8;
                                    }
                                    bytes[vals.len()..].fill(0);
                                });
                                ctx.stream_level(streams.live_count());
                            }
                            None
                        }
                        MxmResult::Fp32(vals) => {
                            let bits: Vec<i32> = vals.iter().map(|f| f.to_bits() as i32).collect();
                            Some(vector::split_i32(&bits))
                        }
                    }
                };
                if let Some(planes_out) = fp32_planes {
                    for (i, vec) in planes_out.into_iter().enumerate() {
                        let s = StreamId::new(dst.base.id + i as u8, dst.base.direction);
                        self.produce(s, pos, t + 1, vec, ctx);
                    }
                }
            }
            MxmOp::InstallWeights { .. } => unreachable!("IW is not a burst"),
        }
        Ok(())
    }

    fn ifetch(
        &mut self,
        q: &mut QueueState,
        stream: StreamId,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<(), SimError> {
        let pos = q.position.ok_or_else(|| SimError::WrongSlice {
            icu: q.icu,
            instruction: "Ifetch".into(),
            cycle: t,
        })?;
        // 640 bytes: a pair of 320-byte vectors on consecutive cycles. The
        // fetched text is decoded even in timing-only runs, so it is always
        // ECC-checked.
        let lo = self.read_consume(q.icu, stream, pos, t, true)?;
        let hi = self.read_consume(q.icu, stream, pos, t + 1, true)?;
        let mut text = Vec::with_capacity(640);
        text.extend_from_slice(lo.as_bytes());
        text.extend_from_slice(hi.as_bytes());
        let fetched = decode_fetch_block(&text).map_err(|e| SimError::Decode {
            reason: e.to_string(),
            icu: q.icu,
            cycle: t,
        })?;
        ctx.bandwidth.record(Traffic::InstructionFetch, 640);
        // The fetch occupies the queue's front end for both read cycles.
        ctx.note_span(t, 2, q.icu, ActivityKind::Ifetch, self.active_lanes());
        q.instructions.extend(fetched);
        ctx.queue_depth(q.instructions.len() - q.pc);
        Ok(())
    }
}

/// When a queue parked at `park_t` resumes after a notify at `notify_t`:
/// the chip-wide barrier costs [`tsp_arch::timing::BARRIER_SYNC_CYCLES`]
/// from Notify issue to Sync retire (paper §III-A2).
fn resume_after_barrier(park_t: Cycle, notify_t: Cycle) -> Cycle {
    park_t.max(notify_t + Cycle::from(tsp_arch::timing::BARRIER_SYNC_CYCLES))
}

/// The `iter`-th iteration of a repeated instruction. MEM addresses advance
/// one word per iteration so `Read a,s ; Repeat n,d` streams a contiguous
/// tensor (modeling choice, DESIGN.md §2).
fn repeat_iteration(
    instr: &Instruction,
    iter: u16,
    icu: IcuId,
    cycle: Cycle,
) -> Result<Instruction, SimError> {
    let bump = |addr: tsp_isa::MemAddr| -> Result<tsp_isa::MemAddr, SimError> {
        let w = addr.word() + iter + 1;
        if w >= 8192 {
            return Err(SimError::InvalidInstruction {
                reason: format!("Repeat walked address {w:#x} past the slice"),
                icu,
                cycle,
            });
        }
        Ok(tsp_isa::MemAddr::new(w))
    };
    Ok(match instr {
        Instruction::Mem(MemOp::Read { addr, stream }) => Instruction::Mem(MemOp::Read {
            addr: bump(*addr)?,
            stream: *stream,
        }),
        Instruction::Mem(MemOp::Write { addr, stream }) => Instruction::Mem(MemOp::Write {
            addr: bump(*addr)?,
            stream: *stream,
        }),
        other => other.clone(),
    })
}

/// The per-superlane word addresses a `Gather`/`Scatter` map vector carries
/// (one little-endian `u16` per superlane, masked to the 13-bit space).
fn map_addresses(map: &Vector) -> [tsp_isa::MemAddr; SUPERLANES] {
    std::array::from_fn(|s| {
        let a = u16::from_le_bytes([map.lane(2 * s), map.lane(2 * s + 1)]) & 0x1FFF;
        tsp_isa::MemAddr::new(a)
    })
}

/// The SRAM banks a set of word addresses touches, as a bit mask.
fn bank_mask(addrs: &[tsp_isa::MemAddr]) -> u8 {
    addrs.iter().fold(0, |mask, a| mask | 1 << a.bank())
}

/// Checks an instruction landed on a queue whose slice can execute it.
fn validate_routing(icu: IcuId, instr: &Instruction, cycle: Cycle) -> Result<(), SimError> {
    let ok = match instr {
        Instruction::Icu(_) => true,
        Instruction::Mem(_) => matches!(icu, IcuId::Mem { .. }),
        Instruction::Vxm(_) => matches!(icu, IcuId::Vxm { .. }),
        Instruction::Mxm(op) => {
            matches!(icu, IcuId::Mxm { plane, .. } if plane == op.plane())
        }
        Instruction::Sxm(_) => matches!(icu, IcuId::Sxm { .. }),
        Instruction::C2c(_) => matches!(icu, IcuId::C2c { .. }),
    };
    if ok {
        Ok(())
    } else {
        Err(SimError::WrongSlice {
            icu,
            instruction: instr.to_string(),
            cycle,
        })
    }
}

/// Slices the running [`Telemetry`] at compiler-emitted layer boundaries.
///
/// Correctness rides the event loop's dispatch order: the heap pops in
/// nondecreasing cycle order, so when a pop at cycle `t` observes
/// `t >= marks[next].end`, every event of the layer ending there has already
/// been counted and none of the next layer's have — a snapshot delta at that
/// instant is exactly the layer's share. Cost: one `u64` compare per
/// dispatch (`next_end` is `u64::MAX` with no marks), one counter snapshot
/// per boundary.
struct LayerSlicer {
    marks: Vec<LayerMark>,
    next: usize,
    /// `marks[next].end`, or `u64::MAX` when all marks are sealed.
    next_end: u64,
    /// Start cycle of the layer being accumulated.
    start: u64,
    /// Counter state at the last sealed boundary.
    snapshot: Telemetry,
    slices: Vec<LayerSlice>,
}

impl LayerSlicer {
    fn new(marks: Vec<LayerMark>) -> LayerSlicer {
        let next_end = marks.first().map_or(u64::MAX, |m| m.end);
        LayerSlicer {
            marks,
            next: 0,
            next_end,
            start: 0,
            snapshot: Telemetry::new(),
            slices: Vec::new(),
        }
    }

    /// Seals every layer whose boundary is at or before `t` (called when the
    /// loop's `t >= next_end` fast check fires).
    #[cold]
    fn seal_to(&mut self, t: Cycle, telemetry: &Telemetry) {
        while self.next_end <= t {
            self.seal_one(telemetry);
        }
    }

    fn seal_one(&mut self, telemetry: &Telemetry) {
        let mark = &self.marks[self.next];
        self.slices.push(LayerSlice {
            name: mark.name.clone(),
            start: self.start,
            end: mark.end,
            telemetry: telemetry.delta_since(&self.snapshot),
        });
        self.snapshot = telemetry.clone();
        self.start = mark.end;
        self.next += 1;
        self.next_end = self.marks.get(self.next).map_or(u64::MAX, |m| m.end);
    }

    /// Seals all remaining marks at run end and folds any residual counts
    /// (tail events past the last sealed boundary, `dropped_events` — which
    /// only lands in the counters after the loop) into the **last** slice,
    /// preserving the slices-merge-to-whole-run bit-exactness.
    fn finish(&mut self, telemetry: &Telemetry) -> Vec<LayerSlice> {
        while self.next < self.marks.len() {
            self.seal_one(telemetry);
        }
        let mut slices = std::mem::take(&mut self.slices);
        if let Some(last) = slices.last_mut() {
            last.telemetry.merge(&telemetry.delta_since(&self.snapshot));
        }
        slices
    }
}

struct RunCtx {
    trace: Trace,
    telemetry: Telemetry,
    counters: bool,
    bandwidth: BandwidthMeter,
    last_effect: Cycle,
    instructions: u64,
    nops: u64,
    notify_times: Vec<Cycle>,
    functional: bool,
    slicer: LayerSlicer,
}

impl RunCtx {
    /// Notes one cycle of architectural work: bumps the utilization counter
    /// it maps to (when counters are on) and records a trace event (when
    /// tracing is on). Pure observation — never touches simulated state.
    fn note(&mut self, t: Cycle, icu: IcuId, kind: ActivityKind, lanes: u16) {
        self.note_span(t, 1, icu, kind, lanes);
    }

    /// [`RunCtx::note`] for work occupying the unit for `dur` cycles.
    fn note_span(&mut self, t: Cycle, dur: u16, icu: IcuId, kind: ActivityKind, lanes: u16) {
        if self.counters {
            crate::telemetry::bump(&mut self.telemetry, icu, kind);
        }
        self.trace.record_span(t, dur, icu, kind, lanes);
    }

    /// Samples stream-register-file occupancy (called after every stream
    /// write) into its high-water mark.
    fn stream_level(&mut self, live: usize) {
        if self.counters {
            self.telemetry.stream_high_water = self.telemetry.stream_high_water.max(live as u64);
        }
    }

    /// Samples one queue's pending-instruction depth into the ICU-queue
    /// high-water mark (at load and after every Ifetch refill).
    fn queue_depth(&mut self, depth: usize) {
        if self.counters {
            self.telemetry.icu_queue_high_water =
                self.telemetry.icu_queue_high_water.max(depth as u64);
        }
    }
}
