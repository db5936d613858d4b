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
//!
//! Each thing is said once. **One event loop**, `run_queues`, drives either
//! kind of queue `Cursor`: `interp` re-derives `Repeat` folding and burst
//! rows from the instruction text on every dispatch and is the reference;
//! `decoded` reads them off the spans [`tsp_isa::decoded`] resolved once.
//! Both ask [`Instruction::runs_on`](tsp_isa::Instruction::runs_on) whether
//! the queue can execute an instruction. The two share the loop, the `Ifetch`
//! read and the functional-unit bodies, nothing else. **One body per
//! instruction** (`mem`, `vxm`, `sxm`, `mxm`, `c2c`): a timing-only
//! run ([`RunOptions::functional`] off) is the same body moving no data
//! nothing reads. An operand it would compute on is only checked for
//! presence (`operand`), a word it keeps or reads is taken unverified
//! (`take`: a `Write`'s data, a `Gather`/`Scatter` map), and a result is
//! the shared zero word (`emit`). Only `LW`'s buffer fill, `IW`'s install,
//! `ABC`'s feed (queued as the cycle its result is ready, with no vector),
//! `ACC`'s readout and `Gather`/`Scatter`'s SRAM access branch on it.

mod c2c;
mod decoded;
mod interp;
mod mem;
mod mxm;
mod sxm;
mod vxm;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use tsp_arch::{ChipConfig, Cycle, Position, StreamId, Vector, SUPERLANES};
use tsp_faults::FaultPlan;
use tsp_isa::{encode::decode_fetch_block, Instruction, LinkId};
use tsp_mem::ecc::{self, ErrorSite};
use tsp_mem::{bandwidth::Traffic, BandwidthMeter, Memory};
use tsp_telemetry::{LayerMark, LayerSlice, Telemetry};

use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::icu_id::IcuId;
use crate::mxm_unit::MxmPlane;
use crate::program::Program;
use crate::stream_file::{StreamFile, StreamWord};
use crate::trace::{ActivityKind, Trace, DEFAULT_EVENT_CAPACITY};

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
    /// Compute real results. `false` skips every piece of data work nothing
    /// reads, for timing-only sweeps: MXM weight installs and dot products
    /// (an `ABC` queues only the cycle its result becomes readable), VXM/SXM
    /// arithmetic, ECC checks, and the operand words themselves (a read
    /// only checks that its stream holds a word there). Every result is the
    /// shared zero word. Cycle counts, instruction counts, telemetry and
    /// traces are unaffected because timing never depends on data (the
    /// determinism thesis); reads are still validated against the schedule
    /// and fail with the same errors at the same cycles.
    pub functional: bool,
    /// Deterministic fault-injection plan replayed during the run (see
    /// `tsp-faults`): each event strikes before the first dispatch at or
    /// after its cycle. Empty by default — fault-free runs pay nothing.
    pub faults: FaultPlan,
    /// Execute through the pre-decoded op cache ([`Chip::run_decoded`],
    /// the default) instead of re-decoding instruction text per dispatch
    /// ([`Chip::run_interpreted`], the reference the lowering is checked
    /// against). One event loop drives both; they are bit-identical —
    /// cycles, results, telemetry, trace and errors — pinned by the
    /// `decoded_oracle` test suite.
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

/// What one dispatch tells the event loop.
enum Step {
    NextAt(Cycle),
    Parked,
    Done,
}

/// One ICU queue as the event loop sees it: a dispatch cursor over either
/// instruction text ([`interp`]) or pre-decoded spans ([`decoded`]).
trait Cursor {
    fn icu(&self) -> IcuId;
    /// Instructions loaded and not yet retired.
    fn pending(&self) -> usize;
    /// The barrier generation this queue parks on or releases next.
    fn barriers(&self) -> usize;
    /// Retires the `Sync` this queue is parked on.
    fn pass_barrier(&mut self);
    /// Dispatches at cycle `t`.
    fn step(&mut self, chip: &mut Chip, t: Cycle, ctx: &mut RunCtx) -> Result<Step, SimError>;
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

    /// A chip at power-on in everything but SRAM, which holds `memory`'s
    /// words: stream registers, MXM planes and link queues are new, and the
    /// memory's port books and ECC log are rewound (`Memory::rewind`), so
    /// that a program run on it sees only what was left in SRAM — nothing a
    /// program run again on it may inherit from its last run (the re-run
    /// contract `tsp_compiler::rerun` states).
    #[must_use]
    pub fn with_memory(config: ChipConfig, mut memory: Memory) -> Chip {
        memory.rewind();
        Chip {
            memory,
            ..Chip::new(config)
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

    /// The event loop: pops `(cycle, queue)` dispatches in nondecreasing
    /// time until every queue is done, and assembles the report.
    fn run_queues<Q: Cursor>(
        &mut self,
        mut queues: Vec<Q>,
        options: &RunOptions,
    ) -> Result<RunReport, SimError> {
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
            ctx.queue_depth(q.pending());
        }

        // (time, queue index) min-heap; queue index breaks ties, giving a
        // fixed deterministic order (though order within a cycle is
        // immaterial: writes never take effect at their dispatch cycle).
        // Keys pack the pair as `t << 8 | qi`: one u64 comparison per sift
        // step, same order as the tuple key.
        debug_assert!(queues.len() <= 256, "heap key packs queue index in 8 bits");
        let key = |t: Cycle, qi: usize| Reverse((t << 8) | qi as u64);
        let mut heap: BinaryHeap<Reverse<u64>> = queues
            .iter()
            .enumerate()
            .filter(|(_, q)| q.pending() > 0)
            .map(|(qi, _)| key(0, qi))
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
        while let Some(Reverse(popped)) = heap.pop() {
            let (t, qi) = (popped >> 8, (popped & 0xFF) as usize);
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
            match queues[qi].step(self, t, &mut ctx)? {
                Step::NextAt(next) => {
                    // `next == t` is legal (a Repeat's first folded iteration);
                    // progress is guaranteed because every step advances the
                    // queue's pc or burst cursor.
                    debug_assert!(next >= t, "queue went backwards in time");
                    heap.push(key(next, qi));
                }
                Step::Parked => parked.push((qi, t)),
                Step::Done => {}
            }
            // Wake every parked queue whose generation's Notify has fired —
            // just now, or before the queue parked.
            if !parked.is_empty() {
                parked.retain(|&(pqi, parked_at)| {
                    let q = &mut queues[pqi];
                    let Some(&notified) = ctx.notify_times.get(q.barriers()) else {
                        return true;
                    };
                    q.pass_barrier();
                    heap.push(key(resume_after_barrier(parked_at, notified), pqi));
                    false
                });
            }
        }

        if !parked.is_empty() {
            return Err(SimError::Deadlock {
                parked: parked.len(),
                sites: parked
                    .iter()
                    .map(|&(qi, at)| (queues[qi].icu(), at))
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

    /// The `Ifetch` both cursors share: 640 bytes of instruction text — a
    /// pair of 320-byte vectors on consecutive cycles — read, decoded and
    /// charged to the fetch bandwidth. The text is decoded even in
    /// timing-only runs, so it is always ECC-checked. The cursor appends
    /// what comes back.
    fn fetch_block(
        &mut self,
        icu: IcuId,
        position: Option<Position>,
        stream: StreamId,
        t: Cycle,
        ctx: &mut RunCtx,
    ) -> Result<Vec<Instruction>, SimError> {
        let pos = position.ok_or_else(|| SimError::WrongSlice {
            icu,
            instruction: "Ifetch".into(),
            cycle: t,
        })?;
        let lo = self.read_word(icu, stream, pos, t, true)?;
        let hi = self.read_word(icu, stream, pos, t + 1, true)?;
        let mut text = Vec::with_capacity(640);
        text.extend_from_slice(lo.data.as_bytes());
        text.extend_from_slice(hi.data.as_bytes());
        let fetched = decode_fetch_block(&text).map_err(|e| SimError::Decode {
            reason: e.to_string(),
            icu,
            cycle: t,
        })?;
        ctx.bandwidth.record(Traffic::InstructionFetch, 640);
        // The fetch occupies the queue's front end for both read cycles.
        ctx.note_span(t, 2, icu, ActivityKind::Ifetch, self.active_lanes());
        Ok(fetched)
    }

    fn active_lanes(&self) -> u16 {
        (self.config.superlanes_enabled * 16) as u16
    }

    /// Reads the word `stream` carries past `pos` at cycle `t` — an empty
    /// slot is a scheduling-contract violation on every kind of run — and,
    /// when `check` is set, runs the consumer-side ECC check (paper §II-D):
    /// single-bit upsets are corrected (logged to the CSR) and come back
    /// freshly protected, double-bit errors fault. A pristine word's check
    /// bits equal `encode(data)` by construction, so it is returned as is —
    /// a reference-count bump, where the fault-free fast path earns its keep.
    fn read_word(
        &mut self,
        icu: IcuId,
        stream: StreamId,
        pos: Position,
        t: Cycle,
        check: bool,
    ) -> Result<Arc<StreamWord>, SimError> {
        let word = self
            .streams
            .read(stream, pos, t)
            .ok_or(empty(icu, stream, pos, t))?;
        if !check || word.is_pristine() {
            return Ok(word);
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
        Ok(Arc::new(StreamWord::protect(data)))
    }

    /// Takes a word a body keeps or reads on every kind of run (a `Write`'s
    /// data, a `Gather`/`Scatter` map). Timing-only runs take it unverified:
    /// timing never depends on it.
    fn take(
        &mut self,
        icu: IcuId,
        stream: StreamId,
        pos: Position,
        t: Cycle,
        ctx: &RunCtx,
    ) -> Result<Arc<StreamWord>, SimError> {
        self.read_word(icu, stream, pos, t, ctx.functional)
    }

    /// Fetches one operand a body computes on. A timing-only run computes on
    /// nothing: it only checks that the stream holds a word there (failing
    /// as a functional read does) and returns `None`.
    fn operand(
        &mut self,
        icu: IcuId,
        stream: StreamId,
        pos: Position,
        t: Cycle,
        ctx: &RunCtx,
    ) -> Result<Option<Arc<StreamWord>>, SimError> {
        if ctx.functional {
            self.read_word(icu, stream, pos, t, true).map(Some)
        } else if self.streams.holds(stream, pos, t) {
            Ok(None)
        } else {
            Err(empty(icu, stream, pos, t))
        }
    }

    /// [`Chip::operand`] over a stream group, in order: a timing-only run
    /// checks every stream and returns an empty list.
    fn operands(
        &mut self,
        icu: IcuId,
        streams: impl Iterator<Item = StreamId>,
        pos: Position,
        t: Cycle,
        ctx: &RunCtx,
    ) -> Result<Vec<Arc<StreamWord>>, SimError> {
        let mut words = Vec::new();
        for s in streams {
            words.extend(self.operand(icu, s, pos, t, ctx)?);
        }
        Ok(words)
    }

    /// Produces a vector onto a stream at `t_eff`, recycling a retired word
    /// from the stream file's pool when possible. `check` of `None`
    /// re-protects the data; `Some` carries stored check bits, which may
    /// disagree with it (a latent error travelling on to the consumer's
    /// check).
    fn produce(
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
        self.streams
            .write_with(stream, pos, t_eff, check, |d| *d = data);
        ctx.stream_level(self.streams.live_count());
    }

    /// [`Chip::produce`] of a word that already exists (an SRAM word, a C2C
    /// arrival, the shared zero word): no allocation and no ECC encode.
    fn forward(
        &mut self,
        stream: StreamId,
        pos: Position,
        t_eff: Cycle,
        word: Arc<StreamWord>,
        ctx: &mut RunCtx,
    ) {
        ctx.bandwidth.record(Traffic::Stream, 320);
        ctx.last_effect = ctx.last_effect.max(t_eff);
        self.streams.write(stream, pos, t_eff, word);
        ctx.stream_level(self.streams.live_count());
    }

    /// Emits a functional-unit body's results, one per stream of `dsts`, at
    /// `t_eff`. A functional run computes them with `results`; a timing-only
    /// run never calls it and emits zeros — same streams, cycle, bandwidth.
    fn emit<R: IntoIterator<Item = Vector>>(
        &mut self,
        dsts: impl IntoIterator<Item = StreamId>,
        pos: Position,
        t_eff: Cycle,
        ctx: &mut RunCtx,
        results: impl FnOnce() -> Result<R, SimError>,
    ) -> Result<(), SimError> {
        if ctx.functional {
            for (s, vector) in dsts.into_iter().zip(results()?) {
                self.produce(s, pos, t_eff, vector, None, ctx);
            }
        } else {
            self.emit_zero(dsts, pos, t_eff, ctx);
        }
        Ok(())
    }

    /// What a timing-only run produces: the shared zero word on every
    /// stream of `dsts`.
    fn emit_zero(
        &mut self,
        dsts: impl IntoIterator<Item = StreamId>,
        pos: Position,
        t_eff: Cycle,
        ctx: &mut RunCtx,
    ) {
        for s in dsts {
            self.forward(s, pos, t_eff, Arc::clone(&self.zero_word), ctx);
        }
    }
}

/// The data of fetched operands, for the unit kernels that take vectors.
fn vectors(words: &[Arc<StreamWord>]) -> Vec<Vector> {
    words.iter().map(|w| w.data.clone()).collect()
}

/// The data of an operand a functional run fetched ([`Chip::operand`]).
fn data(word: &Option<Arc<StreamWord>>) -> &Vector {
    &word
        .as_ref()
        .expect("a functional run fetches its operands")
        .data
}

/// A read of a stream slot that holds nothing: a scheduling-contract
/// violation.
fn empty(icu: IcuId, stream: StreamId, position: Position, cycle: Cycle) -> SimError {
    SimError::EmptyStreamRead {
        stream,
        position,
        cycle,
        icu,
    }
}

/// When a queue parked at `park_t` resumes after a notify at `notify_t`:
/// the chip-wide barrier costs [`tsp_arch::timing::BARRIER_SYNC_CYCLES`]
/// from Notify issue to Sync retire (paper §III-A2).
fn resume_after_barrier(park_t: Cycle, notify_t: Cycle) -> Cycle {
    park_t.max(notify_t + Cycle::from(tsp_arch::timing::BARRIER_SYNC_CYCLES))
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

    /// Counts one SRAM read by whether the word it forwards is pristine or
    /// carries stored check bits the consumer must really verify.
    fn count_read(&mut self, pristine: bool) {
        if self.counters && pristine {
            self.telemetry.mem_reads_pristine += 1;
        } else if self.counters {
            self.telemetry.mem_reads_verified += 1;
        }
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
