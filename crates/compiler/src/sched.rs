//! The schedule builder: placing instructions at absolute cycles on specific
//! queues, with helpers for the two fundamental data-movement patterns —
//! streaming rows *out of* MEM toward a consumer, and committing a stream
//! *into* MEM — plus conversion into a runnable [`Program`].
//!
//! Timing discipline: a helper is told the cycle `t0` at which the first row
//! must be present at the consumer's position, and derives each MEM slice's
//! dispatch time by inverting Eq. 4 (`dispatch = arrival − d_func − δ`). The
//! same [`tsp_arch::TimeModel`] values drive the simulator, so a schedule
//! that builds without error runs without error.
//!
//! Stream discipline: picking a stream ([`Scheduler::pick_streams`], or an
//! aligned group of them) only asks the books; the burst that uses a stream
//! books it, for the cycles its values are on the stream, and nothing else
//! does. The books therefore hold what the placed instructions do and no
//! more.

use std::collections::BTreeMap;

use tsp_arch::{
    Direction, Hemisphere, Position, Slice, StreamId, Vector, STREAMS_PER_DIRECTION, SUPERLANES,
};
use tsp_isa::mem::map_vector;
use tsp_isa::{
    AluIndex, IcuOp, Instruction, MemAddr, MemOp, Plane, D_GATHER, D_READ, D_VXM, LW_ROWS,
};
use tsp_mem::GlobalAddress;
use tsp_sim::{IcuId, Program};

use crate::alloc::{MemAllocator, LOW_INNER_SLICES};
use crate::rerun::RowRuns;
use crate::resource::{Mark, Resource, ResourcePool};
use crate::tensor::TensorHandle;

/// The instruction queue of one MEM slice.
fn mem_queue(hemisphere: Hemisphere, index: u8) -> IcuId {
    IcuId::Mem { hemisphere, index }
}

/// Cycles a `direction`-flowing value takes from `from` to `to`, a hop each.
///
/// # Panics
///
/// Panics if `to` is not downstream of `from`: a kernel routed wrongly.
fn flight(direction: Direction, from: Position, to: Position) -> u64 {
    let hops = direction.hops(from, to);
    u64::from(hops.unwrap_or_else(|| panic!("{to} not downstream of {from} going {direction}")))
}

/// Hops a `direction`-flowing value at `pos` still travels before it leaves
/// the chip: adding them to a cycle gives the value's *edge time*, which is
/// what stream bookings compare (see [`Scheduler::pick_streams`]).
#[must_use]
pub fn edge_hops(direction: Direction, pos: Position) -> u64 {
    match direction {
        Direction::East => u64::from(tsp_arch::NUM_POSITIONS - 1 - pos.0),
        Direction::West => u64::from(pos.0),
    }
}

/// A scheduling contradiction (two instructions claiming the same queue
/// cycles) — a compiler bug surfaced at program-build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// The over-committed queue.
    pub icu: IcuId,
    /// The cycle at which the overlap starts.
    pub cycle: u64,
    /// Rendered offending instruction.
    pub instruction: String,
    /// The instruction already occupying those cycles, with its dispatch
    /// cycle (for diagnosing which kernels collided).
    pub previous: String,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queue {} over-committed at cycle {}: `{}` overlaps `{}`",
            self.icu, self.cycle, self.instruction, self.previous
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Per-superlane word addresses into one tensor, as a MEM `Gather` reads them
/// or a MEM `Scatter` writes through them (see [`Scheduler::add_lane_maps`]):
/// one map row per gathered or scattered vector, and nothing for the rows in
/// between.
#[derive(Debug, Clone)]
pub struct LaneMap {
    /// Map rows: row `i` carries, per superlane, the word address that
    /// superlane fetches from (or stores to) for the vector `keys[i]` names.
    pub tensor: TensorHandle,
    /// The name of each map row's vector, ascending: what
    /// [`Scheduler::gather_rows`] and [`Scheduler::scatter_rows`] are given.
    /// A name is the caller's own — a data row, an ordinal — and says nothing
    /// of where the vector's lane groups point.
    pub keys: Vec<u32>,
    /// The slice holding the one block of the data tensor every map row
    /// addresses.
    pub slice: (Hemisphere, u8),
    /// Per map row, the word of that slice each superlane addresses: where a
    /// `Scatter` through the row lands.
    words: Vec<[MemAddr; SUPERLANES]>,
}

/// One `Gather` or `Scatter` burst: consecutive entries of a key list that
/// lie in one map, and so in one block (slice) of the data tensor.
struct LaneRun<'a> {
    /// Index of the run's first entry in the key list.
    start: usize,
    /// Rows of the map tensor to stream, one per vector.
    map_rows: Vec<u32>,
    map: &'a LaneMap,
}

impl LaneRun<'_> {
    fn position(&self) -> Position {
        Slice::mem(self.map.slice.0, self.map.slice.1).position()
    }

    /// Maps live in the hemisphere opposite their data, so a map stream
    /// flowing outward through the data's hemisphere always reaches it.
    fn map_direction(&self) -> Direction {
        Direction::outward_from(self.map.slice.0)
    }

    fn icu(&self) -> IcuId {
        mem_queue(self.map.slice.0, self.map.slice.1)
    }
}

/// No slice had both room and a write port free by `t_write`.
#[derive(Debug, Clone, Copy)]
pub struct OutOfPorts {
    /// The write time that could not be satisfied.
    pub t_write: u64,
}

impl std::fmt::Display for OutOfPorts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no slice with a write port free by cycle {}",
            self.t_write
        )
    }
}

impl std::error::Error for OutOfPorts {}

/// The rows of a constant the host ships, each with its index in the
/// constant's handle, ascending. A row the list leaves out is never written
/// and reads zero on a fresh chip (the contract [`Scheduler::zero_stale`]
/// states), so only rows that hold data need be listed. A rerun on a chip
/// the program has already run on finds them as the emplace left them unless
/// a write landed there, which the [`RestoreSet`](crate::RestoreSet) puts
/// back.
pub type ConstantRows = Vec<(u32, Vector)>;

/// State captured by [`Scheduler::snapshot`].
#[derive(Debug)]
struct SchedulerSnapshot {
    queue_lens: std::collections::BTreeMap<IcuId, usize>,
    pool: Mark,
    alloc: MemAllocator,
    zero_rows: [Option<TensorHandle>; 2],
    constants_len: usize,
    fresh_len: usize,
    written_len: usize,
    completion: u64,
}

/// Builds a program by placing instructions at absolute cycles.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// When each queue, stream and MXM plane is busy: the only set of
    /// books, kept here — [`Scheduler::place`] books a queue, the bursts
    /// (`read_rows`, `write_rows`, `gather_rows`, `scatter_rows`) and the
    /// `occupy_*` / `hold_*` methods the rest — and asked about only through
    /// this type's methods.
    pool: ResourcePool,
    /// The memory allocator.
    pub alloc: MemAllocator,
    placements: BTreeMap<IcuId, Vec<(u64, Instruction)>>,
    constants: Vec<(TensorHandle, ConstantRows)>,
    /// Per constant, the cycles an `LW` streaming it as a weight block takes
    /// (see [`Scheduler::lw_cycles`]).
    lw_cycles: Vec<u8>,
    /// Per hemisphere, one never-written row (see [`Scheduler::zero_stale`]).
    zero_rows: [Option<TensorHandle>; 2],
    /// Row runs the program reads as a fresh chip left them (see
    /// [`Scheduler::fresh_rows`]), as recorded, unsorted.
    fresh: Vec<(GlobalAddress, u32)>,
    /// Row runs data writes land on (see [`Scheduler::written_rows`]), as
    /// recorded, unsorted.
    written: Vec<(GlobalAddress, u32)>,
    completion: u64,
    rollbacks: u64,
}

impl Scheduler {
    /// A fresh scheduler over an empty chip.
    #[must_use]
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// The latest architectural-effect cycle scheduled so far (before the
    /// 20-tile pipeline drain the simulator adds).
    #[must_use]
    pub fn completion(&self) -> u64 {
        self.completion
    }

    /// Raises the completion watermark.
    pub fn note_completion(&mut self, cycle: u64) {
        self.completion = self.completion.max(cycle);
    }

    /// Allocates a tensor of `rows.len()` rows and registers every one of
    /// them for host-DMA emplacement before execution (compile-time
    /// constants: weights, gather maps, identity matrices).
    ///
    /// # Panics
    ///
    /// Panics if SRAM is exhausted.
    pub fn add_constant(
        &mut self,
        rows: Vec<Vector>,
        cols: u16,
        policy: crate::alloc::BankPolicy,
        max_block: u32,
    ) -> TensorHandle {
        let shape = (rows.len() as u32, cols);
        let rows = (0u32..).zip(rows).collect();
        self.add_constant_in(None, &[], shape, rows, policy, max_block)
    }

    /// Allocates a `(rows, cols)` tensor and registers the rows of it that
    /// hold data (the rest read zero — see [`ConstantRows`]), constrained to
    /// a hemisphere and keeping off the slices in `avoid` — other tensors
    /// streamed at the same time, whose queues the constant's reads would
    /// wait behind. A model whose constants outgrow their bank (ResNet-152
    /// fills 97 % of the Low one) borrows from the activations', on words no
    /// activation has had yet (`MemAllocator::alloc_constant`: a freed
    /// activation's words are written again during the run, after the host
    /// has emplaced the constant); a constant is never freed, so it is as
    /// safe there, only no longer apart — and better there than on a slice
    /// to avoid: a weight block on the slices of its conv's shortcut keeps
    /// the shortcut's rows from meeting the chain on time, however late the
    /// chain is retried. Only when neither bank has room off them are those
    /// slices taken.
    ///
    /// # Panics
    ///
    /// Panics if SRAM is exhausted.
    pub fn add_constant_in(
        &mut self,
        hemisphere: Option<Hemisphere>,
        avoid: &[(Hemisphere, u8)],
        (n, cols): (u32, u16),
        rows: ConstantRows,
        policy: crate::alloc::BankPolicy,
        max_block: u32,
    ) -> TensorHandle {
        let high = crate::alloc::BankPolicy::High;
        let handle = [(policy, avoid), (high, avoid), (policy, &[]), (high, &[])]
            .into_iter()
            .find_map(|(bank, avoid)| {
                (self.alloc)
                    .alloc_constant(hemisphere, n, cols, bank, max_block, avoid)
                    .ok()
            })
            .expect("SRAM exhausted for constant");
        self.add_constant_at(handle.clone(), rows);
        handle
    }

    /// Registers the rows of a tensor the caller allocated itself that hold
    /// data (see [`Scheduler::add_constant_in`]).
    pub(crate) fn add_constant_at(&mut self, handle: TensorHandle, rows: ConstantRows) {
        debug_assert!(
            rows.is_sorted_by(|a, b| a.0 < b.0) && rows.last().is_none_or(|r| r.0 < handle.rows),
            "constant rows ascend within the handle"
        );
        // An LW-order block's row `20·j + r` rides stream `j` on cycle `r`:
        // the deepest cycle any shipped row needs is the `LW`'s length.
        let depth = rows.iter().map(|&(r, _)| r % LW_ROWS as u32 + 1).max();
        self.lw_cycles.push(depth.unwrap_or(1) as u8);
        self.constants.push((handle, rows));
    }

    /// The cycles an `LW` of the weight block `weights` takes: as many as
    /// the deepest row group its shipped rows fill (rows the list leaves out
    /// read zero, and so do the buffer rows a short `LW` does not load), or
    /// all [`LW_ROWS`] of a block nobody registered.
    #[must_use]
    pub fn lw_cycles(&self, weights: &TensorHandle) -> u64 {
        let registered = self.constants.iter().rposition(|(t, _)| t == weights);
        registered.map_or(LW_ROWS, |i| u64::from(self.lw_cycles[i]))
    }

    /// Registers [`LaneMap`]s over `tensor` with one row per entry of `keys`,
    /// one map — on a slice of its own — per block of the tensor the vectors
    /// address: the map row of vector `i`, named `keys[i]`, makes lane group
    /// `g` (`group_lanes` lanes wide, whole superlanes) address data row
    /// `row_of(i, g)`, all in one block. A `Gather` through it yields the
    /// groups' rows side by side — provided the tensor stores each row
    /// **lane-replicated** (`x` again in every group), since a superlane only
    /// ever fetches its own 16 lanes of a word — and a `Scatter` stores lane
    /// group `g` of a vector into row `row_of(i, g)`, leaving the word's
    /// other superlanes as they were. The maps go to the Low bank of the
    /// hemisphere opposite the data (always upstream of it, the way
    /// [`Scheduler::zero_stale`] sources its zeros) — its outer slices while
    /// they last — off the slices in `avoid`, which their own slices join:
    /// bursts on two blocks of the data overlap in time wherever the second
    /// block is the farther from the consumer, so each needs its map on a
    /// queue of its own.
    ///
    /// # Panics
    ///
    /// Panics if the keys do not strictly ascend, a map row addresses two
    /// blocks of the tensor (a `Gather` or `Scatter` runs on one slice), or
    /// `group_lanes` is not a positive multiple of 16.
    pub fn add_lane_maps(
        &mut self,
        tensor: &TensorHandle,
        group_lanes: u32,
        keys: &[u32],
        row_of: impl Fn(u32, u32) -> u32,
        avoid: &mut Vec<(Hemisphere, u8)>,
    ) -> Vec<LaneMap> {
        assert!(
            group_lanes > 0 && group_lanes.is_multiple_of(16),
            "lane groups are whole superlanes"
        );
        assert!(keys.is_sorted_by(|a, b| a < b), "map keys ascend");
        let rpb = tensor.layout.rows_per_block;
        let (hemisphere, _) = tensor.layout.slices().next().expect("tensor has a block");
        let source = Some(hemisphere.opposite());
        // Vector `i` lies in the block lane group 0 addresses.
        let block_of = |i: u32| row_of(i, 0) / rpb;
        let mut blocks: Vec<u32> = (0..keys.len() as u32).map(block_of).collect();
        blocks.sort_unstable();
        blocks.dedup();
        let mut maps = Vec::new();
        for block in blocks {
            let members = (0..keys.len() as u32).filter(|&i| block_of(i) == block);
            let mut words = Vec::new();
            let (piece, rows): (Vec<u32>, ConstantRows) = (members.zip(0u32..))
                .map(|(i, r)| {
                    let addrs = std::array::from_fn(|sl| {
                        let row = row_of(i, sl as u32 * 16 / group_lanes);
                        assert_eq!(row / rpb, block, "a map row addresses one slice");
                        tensor.row(row).word
                    });
                    words.push(addrs);
                    (keys[i as usize], (r, map_vector(addrs)))
                })
                .unzip();
            let policy = crate::alloc::BankPolicy::Low;
            let cols = 2 * SUPERLANES as u16;
            // A map streams from one slice where a weight block wants
            // sixteen at once: maps take the outer slices first and leave the
            // inner ones, which static data prefers, to the weights.
            let inner = (0..LOW_INNER_SLICES).map(|sl| (hemisphere.opposite(), sl));
            let crowded: Vec<(Hemisphere, u8)> = avoid.iter().copied().chain(inner).collect();
            let n = rows.len() as u32;
            let map = match (self.alloc).alloc_avoiding(source, n, cols, policy, 4096, &crowded) {
                Ok(map) => {
                    self.add_constant_at(map.clone(), rows);
                    map
                }
                Err(_) => self.add_constant_in(source, avoid, (n, cols), rows, policy, 4096),
            };
            avoid.extend(map.layout.slices());
            let first = tensor.row(block * rpb);
            maps.push(LaneMap {
                tensor: map,
                keys: piece,
                slice: (first.hemisphere, first.slice),
                words,
            });
        }
        maps
    }

    /// The constants registered so far (host DMA writes their rows into chip
    /// memory before the program starts).
    #[must_use]
    pub fn constants(&self) -> &[(TensorHandle, ConstantRows)] {
        &self.constants
    }

    /// Removes and returns the registered constants.
    pub fn take_constants(&mut self) -> Vec<(TensorHandle, ConstantRows)> {
        self.lw_cycles.clear();
        std::mem::take(&mut self.constants)
    }

    /// The rows the program reads without anything — the program, the
    /// emplace or the input — writing them first (set E of the re-run
    /// contract, [`crate::rerun`]): the padding borders
    /// [`Scheduler::zero_stale`] leaves to fresh SRAM, and the rows it
    /// streams its zeros from.
    #[must_use]
    pub fn fresh_rows(&self) -> RowRuns {
        RowRuns::from_runs(self.fresh.iter().copied())
    }

    /// The rows the program's data `Write`s and `Scatter`s land on (set W of
    /// the re-run contract, [`crate::rerun`]). The zeros
    /// [`Scheduler::zero_stale`] writes leave a row as a fresh chip has it,
    /// so they are not counted.
    #[must_use]
    pub fn written_rows(&self) -> RowRuns {
        RowRuns::from_runs(self.written.iter().copied())
    }

    /// Places one instruction at an absolute dispatch cycle, booking its
    /// queue for the cycles it takes to issue.
    pub fn place(&mut self, icu: IcuId, cycle: u64, instruction: impl Into<Instruction>) {
        let instruction = instruction.into();
        let issued = cycle + instruction.queue_cycles();
        self.note_completion(issued + u64::from(instruction.time_model().d_func));
        self.pool.occupy(Resource::Queue(icu), cycle, issued);
        self.placements
            .entry(icu)
            .or_default()
            .push((cycle, instruction));
    }

    /// Places `op` at cycle `t` and a `Repeat` behind it for `n − 1` further
    /// cycles: one issue a cycle, the queue busy until `t + n`.
    pub fn place_burst(&mut self, icu: IcuId, t: u64, n: u64, op: impl Into<Instruction>) {
        self.place(icu, t, op);
        if n > 1 {
            let repeat = IcuOp::Repeat {
                n: (n - 1) as u16,
                d: 1,
            };
            self.place(icu, t + 1, repeat);
        }
    }

    /// Splits `rows` of `tensor` into `Read` bursts, each `(index of its
    /// first row in the list, that row's address, length)`: a run of rows at
    /// consecutive addresses of one slice, which a `Repeat` auto-increments
    /// through. What [`Scheduler::earliest_read_arrival`] prices is what
    /// [`Scheduler::read_rows`] places.
    fn read_runs<'a>(
        tensor: &'a TensorHandle,
        rows: &'a [u32],
    ) -> impl Iterator<Item = (usize, GlobalAddress, usize)> + 'a {
        let mut i = 0usize;
        std::iter::from_fn(move || {
            let (start, first) = (i, tensor.row(*rows.get(i)?));
            let mut last = first;
            i += 1;
            while let Some(&r) = rows.get(i) {
                let next = tensor.row(r);
                let consecutive = (next.hemisphere, next.slice, next.word.word())
                    == (last.hemisphere, last.slice, last.word.word() + 1);
                if !consecutive {
                    break;
                }
                last = next;
                i += 1;
            }
            Some((start, first, i - start))
        })
    }

    /// Cycles between a `Read`'s dispatch on `addr`'s slice and its row's
    /// arrival at `consumer`, travelling in `direction`.
    fn read_lead(addr: GlobalAddress, direction: Direction, consumer: Position) -> u64 {
        let pos = Slice::mem(addr.hemisphere, addr.slice).position();
        D_READ + flight(direction, pos, consumer)
    }

    /// Streams rows of `tensor` (given by index list `rows`) onto `stream`
    /// so that row `i` is present at `consumer` exactly at cycle `t0 + i`.
    ///
    /// Contiguous row runs become `Read` + `Repeat` bursts (addresses
    /// auto-increment); arbitrary patterns fall back to per-row `Read`s, still
    /// one row per cycle. Placing them books the source slices' queues; the
    /// stream is reserved here, for the burst's own cycles.
    ///
    /// # Panics
    ///
    /// Panics if a source slice is not upstream of `consumer` for the
    /// stream's direction, or if a dispatch would land before cycle 0 —
    /// both are kernel bugs (they chose `t0` too early or routed wrongly).
    pub fn read_rows(
        &mut self,
        tensor: &TensorHandle,
        rows: &[u32],
        stream: StreamId,
        consumer: Position,
        t0: u64,
    ) {
        for (start, addr, len) in Scheduler::read_runs(tensor, rows) {
            let dispatch = (t0 + start as u64)
                .checked_sub(Scheduler::read_lead(addr, stream.direction, consumer))
                .expect("t0 too early: read dispatch before cycle 0");
            let read = MemOp::Read {
                addr: addr.word,
                stream,
            };
            self.place_burst(
                mem_queue(addr.hemisphere, addr.slice),
                dispatch,
                len as u64,
                read,
            );
        }
        self.occupy_stream(stream, consumer, t0, rows.len() as u64);
    }

    /// Commits `count` consecutive stream values into rows
    /// `[first_row, first_row + count)` of `tensor`. Value `i` is present at
    /// `producer` at cycle `t0 + i` and is consumed by the destination slice
    /// as it flows past.
    ///
    /// # Panics
    ///
    /// Panics if a destination slice is not downstream of `producer` for the
    /// stream's direction.
    pub fn write_rows(
        &mut self,
        tensor: &TensorHandle,
        first_row: u32,
        count: u32,
        stream: StreamId,
        producer: Position,
        t0: u64,
    ) {
        for (h, s, base, _, run) in tensor.layout.runs(first_row, count) {
            let first = GlobalAddress::new(h, s, MemAddr::new(base));
            self.written.push((first, run));
        }
        self.commit_rows(tensor, first_row, count, stream, producer, t0);
    }

    /// [`Scheduler::write_rows`] without counting the rows as written: the
    /// zeros [`Scheduler::zero_stale`] commits.
    fn commit_rows(
        &mut self,
        tensor: &TensorHandle,
        first_row: u32,
        count: u32,
        stream: StreamId,
        producer: Position,
        t0: u64,
    ) {
        let dir = stream.direction;
        for (h, s, base, row0, run) in tensor.layout.runs(first_row, count) {
            let lag = flight(dir, producer, Slice::mem(h, s).position());
            let dispatch = t0 + u64::from(row0 - first_row) + lag;
            let write = MemOp::Write {
                addr: MemAddr::new(base),
                stream,
            };
            self.place_burst(mem_queue(h, s), dispatch, u64::from(run), write);
        }
        self.occupy_stream(stream, producer, t0, u64::from(count));
    }

    /// Splits the vectors `keys` names into [`LaneRun`]s over `maps`.
    fn lane_runs<'a>(maps: &'a [LaneMap], keys: &[u32]) -> Vec<LaneRun<'a>> {
        let mut runs: Vec<LaneRun<'a>> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let (map, map_row) = maps
                .iter()
                .find_map(|m| Some((m, m.keys.binary_search(&key).ok()? as u32)))
                .unwrap_or_else(|| panic!("vector {key} is in no lane map"));
            match runs.last_mut() {
                // One map, one block of the data.
                Some(run) if std::ptr::eq(run.map, map) => run.map_rows.push(map_row),
                _ => runs.push(LaneRun {
                    start: i,
                    map_rows: vec![map_row],
                    map,
                }),
            }
        }
        runs
    }

    /// Places one burst of `op` (a `Gather` or a `Scatter`) for `run` from
    /// `dispatch`, its map rows `Read` onto a stream of their own so they
    /// meet the burst at the data slice.
    fn place_lane_run(&mut self, run: &LaneRun<'_>, dispatch: u64, op: impl Fn(StreamId) -> MemOp) {
        let (pos, map_dir) = (run.position(), run.map_direction());
        let (map_stream, ready) = self.pick_streams(map_dir, 1, dispatch, pos, &[]);
        assert!(ready <= dispatch, "no map stream free by cycle {dispatch}");
        self.read_rows(&run.map.tensor, &run.map_rows, map_stream[0], pos, dispatch);
        let n = run.map_rows.len() as u64;
        self.place_burst(run.icu(), dispatch, n, op(map_stream[0]));
    }

    /// The earliest `t0 ≥ not_before` for bursts over `runs` whose first
    /// instruction is dispatched at `t0 + run.start + shift(run)`: every data
    /// slice, every map slice and a map stream per burst free in time. The
    /// streams are asked for all at once, at the earliest map word's edge
    /// time, together with the five that may be claimed from the same
    /// direction before the maps are placed (the vectors' own stream, an MXM
    /// result group) — a few cycles conservative, and only when streams are
    /// scarce — and none of the `picked` streams a caller will book before
    /// the maps are placed.
    fn earliest_lane_runs(
        &self,
        runs: &[LaneRun<'_>],
        shift: impl Fn(&LaneRun<'_>) -> i64,
        not_before: u64,
        picked: &[StreamId],
    ) -> u64 {
        let mut t0 = not_before;
        // Per run: its first map word leaves the chip at `t0 + ahead` (edge
        // time, what stream bookings compare).
        let mut ahead = Vec::with_capacity(runs.len());
        for run in runs {
            let (pos, map_dir) = (run.position(), run.map_direction());
            let offset = run.start as i64 + shift(run);
            let free = self.mem_free(run.map.slice.0, run.map.slice.1);
            let first_map =
                self.earliest_read_arrival(&run.map.tensor, &run.map_rows, map_dir, pos, free);
            t0 = t0.max((first_map as i64 - offset).max(0) as u64);
            ahead.push(offset + edge_hops(map_dir, pos) as i64);
        }
        let Some(run) = runs.first() else {
            return t0;
        };
        let first_edge = ahead
            .iter()
            .map(|&a| (t0 as i64 + a) as u64)
            .min()
            .expect("at least one run");
        let count = runs.len() as u8 + 5;
        let at = first_edge.max(self.pool.floor());
        let map_dir = run.map_direction();
        let exclude: Vec<u8> = (picked.iter())
            .filter(|p| p.direction == map_dir)
            .map(|p| p.id)
            .collect();
        let (_, ready) = (self.pool).pick_streams_excluding(map_dir, count, at, &exclude);
        t0 + (ready - first_edge)
    }

    /// Like [`Scheduler::read_rows`], but every row is fetched with a MEM
    /// `Gather` through `maps` (see [`Scheduler::add_lane_maps`]; `rows` are
    /// map keys): one `Gather` + `Repeat` burst per run of rows in one block
    /// of the data tensor, its map rows `Read` from the map tensor onto a
    /// stream of their own so they meet the burst at the data slice. Occupies
    /// the data slices' and the map slices' queues — exactly what the
    /// simulator charges: a gather takes its slice's single-issue queue for a
    /// cycle like a read — and both streams.
    ///
    /// # Panics
    ///
    /// Panics where [`Scheduler::read_rows`] does, or if no map stream is
    /// free in time — `t0` must come from
    /// [`Scheduler::earliest_gather_arrival`].
    pub fn gather_rows(
        &mut self,
        maps: &[LaneMap],
        rows: &[u32],
        stream: StreamId,
        consumer: Position,
        t0: u64,
    ) {
        // First, so that no map burst picks the gathered rows' own stream.
        self.occupy_stream(stream, consumer, t0, rows.len() as u64);
        for run in Scheduler::lane_runs(maps, rows) {
            let lead = D_GATHER + flight(stream.direction, run.position(), consumer);
            let dispatch = (t0 + run.start as u64)
                .checked_sub(lead)
                .expect("t0 too early: gather dispatch before cycle 0");
            self.place_lane_run(&run, dispatch, |map| MemOp::Gather { stream, map });
        }
    }

    /// [`Scheduler::earliest_read_arrival`] for [`Scheduler::gather_rows`]:
    /// the earliest `t0 ≥ not_before` at which every data slice, every map
    /// slice and a map stream per burst are free in time.
    #[must_use]
    pub fn earliest_gather_arrival(
        &self,
        maps: &[LaneMap],
        rows: &[u32],
        direction: Direction,
        consumer: Position,
        not_before: u64,
    ) -> u64 {
        let runs = Scheduler::lane_runs(maps, rows);
        let lead = |run: &LaneRun<'_>| D_GATHER + flight(direction, run.position(), consumer);
        let shift = |run: &LaneRun<'_>| -(lead(run) as i64);
        self.earliest_lane_runs(&runs, shift, not_before, &[])
    }

    /// Like [`Scheduler::write_rows`], but stream value `i` — present at
    /// `producer` at cycle `t0 + i` — is committed with a MEM `Scatter`
    /// through the map row `rows[i]` names: lane group `g` of it lands in the
    /// data row that map row gives group `g`, and every superlane of that
    /// word the value does not cover stays as it was. One `Scatter` +
    /// `Repeat` burst per run of rows in one block of the data tensor,
    /// reserving what a gather burst does.
    ///
    /// # Panics
    ///
    /// Panics if a destination slice is not downstream of `producer`, or if
    /// no map stream is free in time — `t0` must come from
    /// [`Scheduler::earliest_scatter_start`].
    pub fn scatter_rows(
        &mut self,
        maps: &[LaneMap],
        rows: &[u32],
        stream: StreamId,
        producer: Position,
        t0: u64,
    ) {
        self.occupy_stream(stream, producer, t0, rows.len() as u64);
        for run in Scheduler::lane_runs(maps, rows) {
            let (h, s) = run.map.slice;
            for &map_row in &run.map_rows {
                let words = &run.map.words[map_row as usize];
                // A lane group's superlanes address one word.
                let firsts = (0..SUPERLANES).filter(|&sl| sl == 0 || words[sl] != words[sl - 1]);
                (self.written).extend(firsts.map(|sl| (GlobalAddress::new(h, s, words[sl]), 1)));
            }
            let lag = flight(stream.direction, producer, run.position());
            let dispatch = t0 + run.start as u64 + lag;
            self.place_lane_run(&run, dispatch, |map| MemOp::Scatter { stream, map });
        }
    }

    /// The earliest `t0 ≥ not_before` for [`Scheduler::scatter_rows`]: every
    /// destination slice, every map slice and a map stream per burst free in
    /// time, none of them one of the streams in `picked` — those the caller
    /// has picked ([`Scheduler::pick_streams`]) and will book before it
    /// scatters.
    #[must_use]
    pub fn earliest_scatter_start(
        &self,
        maps: &[LaneMap],
        rows: &[u32],
        direction: Direction,
        producer: Position,
        not_before: u64,
        picked: &[StreamId],
    ) -> u64 {
        let runs = Scheduler::lane_runs(maps, rows);
        let shift = |run: &LaneRun<'_>| flight(direction, producer, run.position()) as i64;
        self.earliest_lane_runs(&runs, shift, not_before, picked)
    }

    /// Clears rows that kernels never write but rely on reading as zero (a
    /// feature map's padding border) wherever they lie on **recycled** SRAM:
    /// of the jobs — `(first_row, count)` runs of a tensor, all tensors in one
    /// hemisphere — those whose tensor [`MemAllocator::is_dirty`] get zeros
    /// streamed outward past the VXM and committed over their runs, as soon
    /// as every port involved is free. Every tensor taps the same zero stream,
    /// so the burst is as long as the longest job. Returns the completion
    /// cycle (0 when nothing needed clearing).
    ///
    /// With `end_by`, the last zero must have passed the VXM by that cycle —
    /// the cycle the tensors' own data starts past it, which the runs' slices
    /// then take straight after the zeros (the cleared rows and the data rows
    /// are different words; a slice's queue is what orders them): a burst
    /// that cannot end in time is not placed at all, `None` is returned, and
    /// the caller clears once the data is in. Without a deadline the answer
    /// is never `None`.
    ///
    /// The zeros come from a one-row tensor in the *opposite* hemisphere
    /// (upstream of every destination) that nothing ever writes: SRAM starts
    /// out zero, and the Low bank holds only host-emplaced constants, which
    /// are never freed, so a fresh Low-bank row is zero without costing the
    /// host an emplace. The same contract — a fresh chip's SRAM reads zero,
    /// and no constant's rows are ever handed to another tensor — is why a
    /// constant ships only the rows that hold data ([`ConstantRows`]): an
    /// unwritten word reads, forwards, counts and takes a fault exactly as a
    /// written zero word does.
    ///
    /// A chip the program has already run on breaks that contract wherever
    /// the last run wrote, so the rows left to fresh SRAM — the skipped jobs'
    /// runs and the zero rows — are recorded ([`Scheduler::fresh_rows`]),
    /// and the host zeroes those a run writes before running the program
    /// again (the re-run contract of [`crate::rerun`]).
    pub fn zero_stale(
        &mut self,
        jobs: &[(&TensorHandle, &[(u32, u32)])],
        end_by: Option<u64>,
    ) -> Option<u64> {
        let (jobs, fresh): (Vec<_>, Vec<_>) = (jobs.iter())
            .filter(|(_, runs)| !runs.is_empty())
            .partition(|(tensor, _)| self.alloc.is_dirty(tensor));
        for (tensor, runs) in fresh {
            for &(first_row, count) in runs.iter() {
                let blocks = tensor.layout.runs(first_row, count).into_iter();
                (self.fresh).extend(
                    blocks.map(|(h, s, base, _, n)| {
                        (GlobalAddress::new(h, s, MemAddr::new(base)), n)
                    }),
                );
            }
        }
        let Some((first, _)) = jobs.first() else {
            return Some(0);
        };
        let (hemisphere, _) = first.layout.slices().next().expect("tensor has a block");
        let direction = Direction::outward_from(hemisphere);
        let vxm = Slice::Vxm.position();
        let (alloc, fresh) = (&mut self.alloc, &mut self.fresh);
        let zero = self.zero_rows[hemisphere.index()]
            .get_or_insert_with(|| {
                let source = Some(hemisphere.opposite());
                let zero = alloc
                    .alloc_in(source, 1, 320, crate::alloc::BankPolicy::Low, 1)
                    .expect("SRAM exhausted for a zero row");
                fresh.push((zero.row(0), 1));
                zero
            })
            .clone();
        let len = jobs
            .iter()
            .map(|(_, runs)| runs.iter().map(|&(_, count)| count).sum::<u32>())
            .max()
            .unwrap_or(0);
        let rows = vec![0u32; len as usize];

        // Nothing is reserved before the burst is known to make its deadline.
        // The zeros are read like a constant's rows, in the first window of
        // their slice's queue once the stream and every destination's port
        // are free.
        let (streams, ready) = self.pick_streams(direction, 1, 0, vxm, &[]);
        let mut t0 = ready;
        for (tensor, _) in &jobs {
            for (h, sl) in tensor.layout.slices() {
                assert_eq!(h, hemisphere, "zero_stale jobs must share a hemisphere");
                t0 = t0.max(self.mem_free(h, sl));
            }
        }
        let t0 = self.earliest_constant_arrival(&zero, &rows, direction, vxm, t0);
        let done = t0 + u64::from(len);
        if end_by.is_some_and(|deadline| done > deadline) {
            return None;
        }
        self.read_rows(&zero, &rows, streams[0], vxm, t0);
        for (tensor, runs) in jobs {
            let mut offset = 0u64;
            for &(first_row, count) in runs.iter() {
                self.commit_rows(tensor, first_row, count, streams[0], vxm, t0 + offset);
                offset += u64::from(count);
            }
        }
        self.note_completion(done);
        Some(done)
    }

    /// Holds a MEM slice's (single-issue) queue busy from cycle 0 until
    /// `until` with nothing placed on it: how a test stands in for another
    /// kernel's traffic. Placing an instruction books its queue by itself.
    pub fn occupy_mem(&mut self, h: Hemisphere, s: u8, until: u64) {
        self.pool.occupy(Resource::Queue(mem_queue(h, s)), 0, until);
    }

    /// Allocates a tensor whose rows will be **written starting at cycle
    /// `t_write`** by a stream-dictated burst: only slices whose queues are
    /// free by `t_write` are eligible (plus any `extra_avoid` exclusions for
    /// group disjointness). This is how kernels place outputs *after* their
    /// chain timing is known, eliminating write-port collisions by
    /// construction. `None` when no such slice has room — callers that
    /// control their own write time retry with a later one.
    #[allow(clippy::too_many_arguments)]
    pub fn try_alloc_for_write(
        &mut self,
        hemisphere: Option<Hemisphere>,
        rows: u32,
        cols: u16,
        policy: crate::alloc::BankPolicy,
        max_block: u32,
        t_write: u64,
        extra_avoid: &[(Hemisphere, u8)],
    ) -> Option<TensorHandle> {
        let mut avoid: Vec<(Hemisphere, u8)> = extra_avoid.to_vec();
        for h in [Hemisphere::West, Hemisphere::East] {
            for sl in 0..tsp_arch::MEM_SLICES_PER_HEMISPHERE {
                if self.mem_free(h, sl) > t_write {
                    avoid.push((h, sl));
                }
            }
        }
        self.alloc
            .alloc_avoiding(hemisphere, rows, cols, policy, max_block, &avoid)
            .ok()
    }

    /// How many slices of `hemisphere` off `avoid` a
    /// [`Scheduler::try_alloc_for_write`] of a `rows`-row block written from
    /// `t_write` could still take: their queues free by then, `rows` words
    /// free in `policy`'s bank.
    #[must_use]
    pub(crate) fn write_slices(
        &self,
        hemisphere: Hemisphere,
        rows: u32,
        policy: crate::alloc::BankPolicy,
        t_write: u64,
        avoid: &[(Hemisphere, u8)],
    ) -> usize {
        (0..tsp_arch::MEM_SLICES_PER_HEMISPHERE)
            .filter(|&sl| !avoid.contains(&(hemisphere, sl)))
            .filter(|&sl| self.mem_free(hemisphere, sl) <= t_write)
            .filter(|&sl| self.alloc.holds_block(hemisphere, sl, rows, policy))
            .count()
    }

    /// The first cycle after which a MEM slice's queue has nothing booked:
    /// its horizon.
    #[must_use]
    pub fn mem_free(&self, h: Hemisphere, s: u8) -> u64 {
        self.pool.free_at(Resource::Queue(mem_queue(h, s)))
    }

    /// Picks the VXM ALU whose queue frees first: the ALU, and the first
    /// cycle at or after `at` it can issue.
    #[must_use]
    pub fn pick_alu(&self, at: u64) -> (AluIndex, u64) {
        let (free, alu) = (0..AluIndex::COUNT)
            .map(AluIndex::new)
            .map(|alu| (self.pool.free_at(Resource::Queue(IcuId::Vxm { alu })), alu))
            .min_by_key(|&(free, alu)| (free, alu.0))
            .expect("16 ALUs exist");
        (alu, free.max(at))
    }

    /// The first cycle `t ≥ at` from which a chain of `stages` VXM ops —
    /// stage `j` issued at `t + j·D_VXM`, each consuming its predecessor's
    /// result where it is born — finds an ALU for every stage, none shared:
    /// the `j`-th freest ALU must be free by stage `j`. Placing the stages
    /// in order, each on [`Scheduler::pick_alu`] at its cycle, then issues
    /// every one on a free queue.
    ///
    /// # Panics
    ///
    /// Panics if the chain has more stages than the VXM has ALUs.
    #[must_use]
    pub fn alu_chain_free(&self, at: u64, stages: usize) -> u64 {
        assert!(
            stages <= usize::from(AluIndex::COUNT),
            "{stages} stages, 16 ALUs"
        );
        let mut free: Vec<u64> = (0..AluIndex::COUNT)
            .map(AluIndex::new)
            .map(|alu| self.pool.free_at(Resource::Queue(IcuId::Vxm { alu })))
            .collect();
        free.sort_unstable();
        (free.iter().take(stages).zip(0u64..))
            .map(|(&free, j)| free.saturating_sub(j * D_VXM))
            .fold(at, u64::max)
    }

    /// The first cycle `plane`'s weight buffer takes another `LW` (its last
    /// `IW` is through) and the first cycle its array takes another `IW` or
    /// `ABC` (its last activation row has entered), in that order.
    #[must_use]
    pub fn plane_free(&self, plane: Plane) -> (u64, u64) {
        (
            self.pool.free_at(Resource::MxmWeights(plane.index())),
            self.pool.free_at(Resource::MxmArray(plane.index())),
        )
    }

    /// Holds `plane`'s weight buffer from `from`, its `LW`, until `until`:
    /// the cycle the `IW` emptying it into the array completes.
    pub fn hold_weight_buffer(&mut self, plane: Plane, from: u64, until: u64) {
        (self.pool).occupy(Resource::MxmWeights(plane.index()), from, until);
    }

    /// Holds `plane`'s array input from `from`, its `ABC`, until `until`:
    /// the end of the rows streaming through the installed weights.
    pub fn hold_array(&mut self, plane: Plane, from: u64, until: u64) {
        (self.pool).occupy(Resource::MxmArray(plane.index()), from, until);
    }

    /// Fences every resource to `cycle`: nothing more is scheduled before it
    /// (strict layer-sequential mode; the E13 ablation baseline).
    pub fn fence(&mut self, cycle: u64) {
        self.pool.fence(cycle);
    }

    /// The highest [`Scheduler::fence`] so far.
    #[must_use]
    pub fn floor(&self) -> u64 {
        self.pool.floor()
    }

    /// The earliest cycle `t0` such that streaming `rows` of `tensor` toward
    /// `consumer` needs no dispatch before any source queue's horizon (and
    /// none before cycle 0), with `t0 ≥ not_before`.
    #[must_use]
    pub fn earliest_read_arrival(
        &self,
        tensor: &TensorHandle,
        rows: &[u32],
        direction: Direction,
        consumer: Position,
        not_before: u64,
    ) -> u64 {
        // Within a run a later row is due a cycle later from the same queue:
        // the run's first row binds. Its dispatch, `t0 + start − lead`, must
        // not precede the queue's free cycle (nor cycle 0).
        Scheduler::read_runs(tensor, rows).fold(not_before, |t0, (start, addr, _)| {
            let lead = Scheduler::read_lead(addr, direction, consumer);
            let free = self.mem_free(addr.hemisphere, addr.slice);
            t0.max((free + lead).saturating_sub(start as u64))
        })
    }

    /// [`Scheduler::earliest_read_arrival`] for rows no instruction writes
    /// during a run — of a registered constant ([`Scheduler::constants`]) or
    /// a zero row ([`Scheduler::zero_stale`]): each burst may take the first
    /// idle window of its slice's queue long enough for it, before the
    /// queue's horizon as well as after. The horizon is the only read-after-
    /// write and write-after-read fence the scheduler keeps; rows nothing
    /// writes need none, so only the queue's own cycles bind.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `tensor` is neither a registered constant
    /// nor a zero row.
    #[must_use]
    pub fn earliest_constant_arrival(
        &self,
        tensor: &TensorHandle,
        rows: &[u32],
        direction: Direction,
        consumer: Position,
        not_before: u64,
    ) -> u64 {
        debug_assert!(
            self.never_written(tensor),
            "only a constant's reads may take a gap"
        );
        let claims: Vec<_> = Scheduler::read_claims(tensor, rows, direction, consumer).collect();
        self.pool.first_window(&claims, not_before)
    }

    /// The first `t0 ≥ not_before` at which `lists` of `tensor`'s rows can
    /// stream side by side — row `i` of every list at `consumer` at `t0 + i`,
    /// list `j` on stream `base + j` of an aligned group of `lists.len()`
    /// streams in `direction` — with the group taking the first window in
    /// which each stream is idle for its list (edge time, see
    /// [`Scheduler::pick_streams`]), before its horizon where one is long
    /// enough: the group's base (the lowest among equals) and `t0`. The
    /// runs of a registered constant or zero row take windows the same way
    /// ([`Scheduler::earliest_constant_arrival`]); any other tensor's are
    /// held back to their queues' horizons, its only fence. Reserves
    /// nothing: [`Scheduler::read_rows`] books each list's burst.
    ///
    /// # Panics
    ///
    /// Panics if `lists.len()` does not divide the streams of a direction.
    #[must_use]
    pub fn earliest_group_arrival(
        &self,
        tensor: &TensorHandle,
        lists: &[Vec<u32>],
        direction: Direction,
        consumer: Position,
        not_before: u64,
    ) -> (u8, u64) {
        let width = lists.len() as u8;
        assert!(
            width > 0 && STREAMS_PER_DIRECTION.is_multiple_of(width),
            "{width} streams form no aligned group"
        );
        let mut claims: Vec<_> = (lists.iter())
            .flat_map(|rows| Scheduler::read_claims(tensor, rows, direction, consumer))
            .collect();
        let queues = claims.len();
        let not_before = if self.never_written(tensor) {
            not_before
        } else {
            (claims.iter()).fold(not_before, |t0, &(queue, offset, _)| {
                t0.max((self.pool.free_at(queue) as i64 - offset).max(0) as u64)
            })
        };
        let lead = edge_hops(direction, consumer) as i64;
        let mut best: Option<(u64, u8)> = None;
        for base in (0..STREAMS_PER_DIRECTION).step_by(usize::from(width)) {
            // No later group starts before `not_before`.
            if best.is_some_and(|(t0, _)| t0 == not_before) {
                break;
            }
            claims.truncate(queues);
            claims.extend(
                (lists.iter().zip(base..))
                    .map(|(rows, id)| (Resource::Stream(direction, id), lead, rows.len() as u64)),
            );
            let t0 = self.pool.first_window(&claims, not_before);
            if best.is_none_or(|(first, _)| t0 < first) {
                best = Some((t0, base));
            }
        }
        let (t0, base) = best.expect("at least one aligned group");
        (base, t0)
    }

    /// What a read of `rows` of `tensor` toward `consumer` asks of its
    /// source slices' queues, as claims relative to its first row's arrival
    /// (see [`ResourcePool::first_window`]): a run's dispatch leads its
    /// arrival by the run's read lead.
    fn read_claims<'a>(
        tensor: &'a TensorHandle,
        rows: &'a [u32],
        direction: Direction,
        consumer: Position,
    ) -> impl Iterator<Item = (Resource, i64, u64)> + 'a {
        Scheduler::read_runs(tensor, rows).map(move |(start, addr, len)| {
            let lead = Scheduler::read_lead(addr, direction, consumer);
            let queue = Resource::Queue(mem_queue(addr.hemisphere, addr.slice));
            (queue, start as i64 - lead as i64, len as u64)
        })
    }

    /// Whether `tensor` is a registered constant ([`Scheduler::constants`])
    /// or one of the zero rows: rows no instruction writes during a run.
    fn never_written(&self, tensor: &TensorHandle) -> bool {
        // The constant streamed next is most often the latest registered.
        self.constants.iter().rev().any(|(t, _)| t == tensor)
            || self.zero_rows.iter().flatten().any(|t| t == tensor)
    }

    /// Picks `count` streams in `direction`, none of the ids in `exclude`,
    /// for a burst whose first value is at `pos` at cycle `at` or later:
    /// the ids and the earliest such cycle. A pick asks each stream's
    /// horizon, never a gap before it, so a stream picked stays free however
    /// much later its burst starts. It books nothing: only the burst that
    /// uses a stream books it ([`Scheduler::occupy_stream`],
    /// [`Scheduler::read_rows`], [`Scheduler::write_rows`],
    /// [`Scheduler::gather_rows`], [`Scheduler::scatter_rows`]). A caller
    /// that picks several streams in one direction before booking any
    /// passes the earlier ids as `exclude`.
    ///
    /// Stream bookings are exact: a value moves one hop per cycle, so it is
    /// identified by the cycle it leaves the chip (its *edge time*), and a
    /// stream is free for a burst iff the burst's values leave while no
    /// booked one does — no matter where either was produced. The
    /// `(pos, cycle)` pairs here and in [`Scheduler::occupy_stream`] are
    /// converted to edge time with [`edge_hops`].
    #[must_use]
    pub fn pick_streams(
        &self,
        direction: Direction,
        count: u8,
        at: u64,
        pos: Position,
        exclude: &[u8],
    ) -> (Vec<StreamId>, u64) {
        let lead = edge_hops(direction, pos);
        let at = at.max(self.pool.floor()) + lead;
        let (streams, ready) = self
            .pool
            .pick_streams_excluding(direction, count, at, exclude);
        (streams, ready - lead)
    }

    /// Picks an aligned group of `width` streams for a burst whose first
    /// value is at `pos` at cycle `at` or later: the group's base and the
    /// earliest such cycle. Books nothing (see [`Scheduler::pick_streams`]).
    #[must_use]
    pub(crate) fn pick_aligned_group(
        &self,
        direction: Direction,
        width: u8,
        at: u64,
        pos: Position,
    ) -> (u8, u64) {
        let lead = edge_hops(direction, pos);
        let at = at.max(self.pool.floor()) + lead;
        let (base, ready) = self.pool.pick_aligned_group(direction, width, at);
        (base, ready - lead)
    }

    /// Reserves `stream` for a burst of `n` values, the first at `pos` at
    /// cycle `t0`.
    pub fn occupy_stream(&mut self, stream: StreamId, pos: Position, t0: u64, n: u64) {
        let edge = t0 + edge_hops(stream.direction, pos);
        let r = Resource::Stream(stream.direction, stream.id);
        self.pool.occupy(r, edge, edge + n);
    }

    /// A lightweight checkpoint: per-queue placement lengths, a mark in the
    /// pool's journal, and a clone of the allocator — what
    /// [`Scheduler::retry_later`] rolls a failed attempt back to;
    /// [`Scheduler::restore`] or [`Scheduler::release`] closes it.
    fn snapshot(&mut self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            queue_lens: self
                .placements
                .iter()
                .map(|(icu, v)| (*icu, v.len()))
                .collect(),
            pool: self.pool.mark(),
            alloc: self.alloc.clone(),
            zero_rows: self.zero_rows.clone(),
            constants_len: self.constants.len(),
            fresh_len: self.fresh.len(),
            written_len: self.written.len(),
            completion: self.completion,
        }
    }

    /// Runs `attempt` — a kernel whose stream-dictated writes may find no
    /// free port in `hemisphere` — with nothing of it before a floor, rolling
    /// it back and retrying later when it fails. The first try's floor is
    /// `not_before`. A retry's is also the cycle by which 90 % of the
    /// hemisphere's ports are free (all of them from the third try), and at
    /// least 256 cycles past the failing write time, doubling per try (a
    /// tight stream pool needs the whole kernel pushed past the congestion,
    /// not just past the ports). `None` after eight tries.
    pub fn retry_later<T>(
        &mut self,
        hemisphere: Hemisphere,
        not_before: u64,
        mut attempt: impl FnMut(&mut Scheduler, u64) -> Result<T, OutOfPorts>,
    ) -> Option<T> {
        // The `frac`-quantile of the hemisphere's MEM-port free times.
        let port_quantile = |s: &Scheduler, frac: f64| {
            let mut frees: Vec<u64> = (0..tsp_arch::MEM_SLICES_PER_HEMISPHERE)
                .map(|sl| s.mem_free(hemisphere, sl))
                .collect();
            frees.sort_unstable();
            frees[((frees.len() - 1) as f64 * frac) as usize]
        };
        let mut floor = not_before;
        for try_idx in 0usize..8 {
            let snap = self.snapshot();
            match attempt(self, floor) {
                Ok(result) => {
                    self.release(snap);
                    return Some(result);
                }
                Err(e) => {
                    self.restore(snap);
                    let quantile = if try_idx == 0 { 0.9 } else { 1.0 };
                    floor = floor
                        .max(port_quantile(self, quantile))
                        .max(e.t_write + (256u64 << try_idx.min(4)));
                }
            }
        }
        None
    }

    /// How often [`Scheduler::retry_later`] has rolled an attempt back: each
    /// is a kernel — a conv or matmul chain, a global pool's channel part,
    /// an element-wise chain or a max pool round — whose operands, VXM
    /// stages or output found no free ALU, port or stream at the cycle its
    /// chain dictated, retried later — cycles lost to placement.
    #[must_use]
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Keeps everything placed since `snap` and closes it.
    fn release(&mut self, snap: SchedulerSnapshot) {
        self.pool.release(snap.pool);
    }

    /// Rolls back to a snapshot taken earlier in this compile, and closes
    /// it.
    fn restore(&mut self, snap: SchedulerSnapshot) {
        self.rollbacks += 1;
        for (icu, v) in &mut self.placements {
            let keep = snap.queue_lens.get(icu).copied().unwrap_or(0);
            v.truncate(keep);
        }
        self.pool.rewind(snap.pool);
        self.alloc = snap.alloc;
        self.zero_rows = snap.zero_rows;
        self.constants.truncate(snap.constants_len);
        self.lw_cycles.truncate(snap.constants_len);
        self.fresh.truncate(snap.fresh_len);
        self.written.truncate(snap.written_len);
        self.completion = snap.completion;
    }

    /// Debug view of one queue's placements **in insertion (program) order**
    /// — which kernel placed what, before sorting.
    #[must_use]
    pub fn dump_queue(&self, icu: IcuId) -> Vec<(u64, String)> {
        self.placements
            .get(&icu)
            .map(|v| v.iter().map(|(c, i)| (*c, i.to_string())).collect())
            .unwrap_or_default()
    }

    /// The first of one queue's placements, in dispatch order, to start
    /// while its predecessor is still issuing.
    fn first_overlap(icu: IcuId, sorted: &[(u64, Instruction)]) -> Option<ScheduleError> {
        sorted.windows(2).find_map(|pair| {
            let ((before, previous), (cycle, instruction)) = (&pair[0], &pair[1]);
            (*cycle < before + previous.queue_cycles()).then(|| ScheduleError {
                icu,
                cycle: *cycle,
                instruction: instruction.to_string(),
                previous: format!("{previous} @{before}"),
            })
        })
    }

    /// Checks queue consistency without consuming the scheduler; returns the
    /// first conflict if any.
    ///
    /// # Panics
    ///
    /// Panics if the books disagree with the placements: a queue recorded
    /// free before the last instruction placed on it has issued.
    #[must_use]
    pub fn check(&self) -> Option<ScheduleError> {
        self.placements.iter().find_map(|(&icu, items)| {
            let mut sorted = items.clone();
            sorted.sort_by_key(|(cycle, _)| *cycle);
            if let Some((cycle, last)) = sorted.last() {
                let booked = self.pool.free_at(Resource::Queue(icu));
                let issued = cycle + last.queue_cycles();
                assert!(
                    booked >= issued,
                    "{icu} booked to {booked}, busy to {issued}"
                );
            }
            Scheduler::first_overlap(icu, &sorted)
        })
    }

    /// Converts the accumulated placements into a runnable program.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if any queue was over-committed.
    pub fn into_program(self) -> Result<Program, ScheduleError> {
        let mut program = Program::new();
        for (icu, mut items) in self.placements {
            items.sort_by_key(|(cycle, _)| *cycle);
            if let Some(error) = Scheduler::first_overlap(icu, &items) {
                return Err(error);
            }
            let mut builder = program.builder(icu);
            for (cycle, instruction) in items {
                builder.push_at(cycle, instruction);
            }
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::BankPolicy;
    use proptest::prelude::*;
    use tsp_arch::StreamGroup;
    use tsp_arch::Vector;
    use tsp_isa::{DataType, UnaryAluOp, VxmOp, D_VXM};
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;

    /// Reads the 8 rows of a `block`-chunked tensor in `hemisphere` into the
    /// VXM, masks them and writes them back East; runs that on the simulator
    /// and verifies the values and the absence of scheduling faults.
    fn mask_roundtrip(hemisphere: Hemisphere, block: u32) {
        let mut s = Scheduler::new();
        let mut alloc = |h, bank, block| s.alloc.alloc_in(Some(h), 8, 320, bank, block).unwrap();
        let src = alloc(hemisphere, BankPolicy::Low, block);
        assert_eq!(src.layout.blocks.len() as u32, 8u32.div_ceil(block));
        let dst = alloc(Hemisphere::East, BankPolicy::High, 4096);

        let vxm = Slice::Vxm.position();
        let rows: Vec<u32> = (0..8).collect();
        let operand = StreamId::new(0, Direction::inward_from(hemisphere));
        let t0 = s.earliest_read_arrival(&src, &rows, operand.direction, vxm, 0);
        s.read_rows(&src, &rows, operand, vxm, t0);
        // One Mask per row on ALU 0 via Repeat.
        let alu = AluIndex::new(0);
        let op = VxmOp::Unary {
            op: UnaryAluOp::Mask,
            dtype: DataType::Int8,
            src: StreamGroup::new(operand, 1),
            dst: StreamGroup::new(StreamId::east(1), 1),
            alu,
        };
        s.place_burst(IcuId::Vxm { alu }, t0, 8, op);
        // Results appear on S1.E at the VXM at t0 + D_VXM + i.
        s.write_rows(&dst, 0, 8, StreamId::east(1), vxm, t0 + D_VXM);
        let program = s.into_program().expect("valid schedule");

        let mut chip = Chip::new(tsp_arch::ChipConfig::asic());
        for r in 0..8u32 {
            chip.memory.write(src.row(r), Vector::splat(0x30 + r as u8));
        }
        chip.run(&program, &RunOptions::default())
            .expect("runs clean");
        for r in 0..8u32 {
            let got = chip.memory.read_unchecked(dst.row(r));
            assert_eq!(got, Vector::splat(0x30 + r as u8), "row {r}");
        }
    }

    #[test]
    fn read_transform_write_roundtrip() {
        mask_roundtrip(Hemisphere::East, 4096);
    }

    /// Rows scattered across two blocks still arrive back-to-back.
    #[test]
    fn cross_block_read_is_seamless() {
        mask_roundtrip(Hemisphere::West, 4);
    }

    /// Over-committing a queue is reported, not silently mis-padded.
    #[test]
    fn queue_overlap_is_an_error() {
        let mut s = Scheduler::new();
        let icu = mem_queue(Hemisphere::East, 0);
        let read = |word, id| MemOp::Read {
            addr: MemAddr::new(word),
            stream: StreamId::east(id),
        };
        s.place_burst(icu, 10, 11, read(0, 0)); // occupies 10..21
        s.place(icu, 15, read(1, 1));
        assert!(s.into_program().is_err());
    }

    /// `earliest_read_arrival` never asks a slice to dispatch in the past.
    #[test]
    fn earliest_arrival_respects_port_busy() {
        let mut s = Scheduler::new();
        let src = s
            .alloc
            .alloc_in(Some(Hemisphere::East), 4, 320, BankPolicy::Low, 4096)
            .unwrap();
        let (h, sl, _) = src.layout.blocks[0];
        s.occupy_mem(h, sl, 1000);
        let rows: Vec<u32> = (0..4).collect();
        let t0 = s.earliest_read_arrival(&src, &rows, Direction::West, Slice::Vxm.position(), 0);
        // First dispatch is t0 - lead and must be ≥ 1000.
        let a = src.row(0);
        let pos = Slice::mem(a.hemisphere, a.slice).position();
        let lead = D_READ + u64::from(Direction::West.hops(pos, Slice::Vxm.position()).unwrap());
        assert!(t0 - lead >= 1000, "t0={t0} lead={lead}");
    }

    /// A plain tensor and a registered constant on one East slice, that
    /// slice's queue busy with another kernel's burst over `[500, 600)`.
    fn constant_beside_plain() -> (Scheduler, TensorHandle, TensorHandle) {
        let mut s = Scheduler::new();
        let plain = (s.alloc)
            .alloc_in(Some(Hemisphere::East), 4, 320, BankPolicy::Low, 4096)
            .unwrap();
        let (h, sl, _) = plain.layout.blocks[0];
        let others: Vec<(Hemisphere, u8)> = [Hemisphere::West, Hemisphere::East]
            .into_iter()
            .flat_map(|h| (0..tsp_arch::MEM_SLICES_PER_HEMISPHERE).map(move |sl| (h, sl)))
            .filter(|&slice| slice != (h, sl))
            .collect();
        let constant = (s.alloc)
            .alloc_avoiding(Some(h), 4, 320, BankPolicy::Low, 4096, &others)
            .unwrap();
        s.add_constant_at(constant.clone(), Vec::new());
        s.place(mem_queue(h, sl), 500, IcuOp::Nop { count: 100 });
        (s, plain, constant)
    }

    /// A constant's read takes the idle window before a later booking on
    /// its slice; a plain tensor's read on the same slice still waits for
    /// the horizon. A horizon-only book would put both after cycle 600.
    #[test]
    fn a_constant_read_takes_the_gap_before_a_later_booking() {
        let (mut s, plain, constant) = constant_beside_plain();
        let (h, sl, _) = constant.layout.blocks[0];
        assert_eq!(
            (h, sl),
            (plain.layout.blocks[0].0, plain.layout.blocks[0].1)
        );
        let vxm = Slice::Vxm.position();
        let dir = Direction::inward_from(h);
        let rows: Vec<u32> = (0..4).collect();
        let lead = Scheduler::read_lead(constant.row(0), dir, vxm);
        let t0 = s.earliest_constant_arrival(&constant, &rows, dir, vxm, 0);
        assert_eq!(t0, lead, "dispatched at cycle 0, in the gap");
        s.read_rows(&constant, &rows, StreamId::new(0, dir), vxm, t0);
        // The gap read leaves the horizon where it was.
        assert_eq!(s.mem_free(h, sl), 600);
        let t1 = s.earliest_read_arrival(&plain, &rows, dir, vxm, 0);
        assert_eq!(t1, 600 + lead, "a plain read waits for the horizon");
        s.read_rows(&plain, &rows, StreamId::new(1, dir), vxm, t1);
        // A window one cycle too short for the burst is passed over.
        let t2 = s.earliest_constant_arrival(&constant, &rows, dir, vxm, 497 + lead);
        assert_eq!(t2, 604 + lead);
        assert!(s.check().is_none(), "{:?}", s.check());
    }

    /// The group query holds a plain tensor's runs back to their horizons
    /// itself; a constant's take the gap.
    #[test]
    fn a_plain_group_waits_for_the_horizon() {
        let (s, plain, constant) = constant_beside_plain();
        let vxm = Slice::Vxm.position();
        let dir = Direction::inward_from(plain.layout.blocks[0].0);
        let lists = [(0..4).collect::<Vec<u32>>()];
        let lead = Scheduler::read_lead(plain.row(0), dir, vxm);
        let arrival = |t: &TensorHandle| s.earliest_group_arrival(t, &lists, dir, vxm, 0);
        assert_eq!(arrival(&constant), (0, lead), "dispatched in the gap");
        assert_eq!(arrival(&plain), (0, 600 + lead), "after the horizon");
    }

    /// The gap query refuses a tensor that is not a constant.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "only a constant's reads may take a gap")]
    fn a_plain_tensor_takes_no_gap() {
        let (s, plain, _) = constant_beside_plain();
        let dir = Direction::inward_from(plain.layout.blocks[0].0);
        let _ = s.earliest_constant_arrival(&plain, &[0], dir, Slice::Vxm.position(), 0);
    }

    /// Each queue's placement count: what [`dispatches`] counts from.
    fn placed(s: &Scheduler, slices: &[(Hemisphere, u8)]) -> BTreeMap<IcuId, usize> {
        (slices.iter())
            .map(|&(h, sl)| (mem_queue(h, sl), s.dump_queue(mem_queue(h, sl)).len()))
            .collect()
    }

    /// The `mnemonic`s placed on the queues of `before` since it was taken,
    /// as `(queue, dispatch)`.
    fn dispatches(
        s: &Scheduler,
        before: &BTreeMap<IcuId, usize>,
        mnemonic: &str,
    ) -> Vec<(IcuId, u64)> {
        let mut out = Vec::new();
        for (&icu, &placed) in before {
            for (cycle, text) in s.dump_queue(icu).into_iter().skip(placed) {
                if text.starts_with(mnemonic) {
                    out.push((icu, cycle));
                }
            }
        }
        out
    }

    proptest! {
        /// An `earliest_*` prices exactly what its `*_rows` places, over
        /// block-chunked tensors in both hemispheres, arbitrary row lists and
        /// queues held by other traffic (from cycle 0, and in bursts with
        /// idle windows between them): the bursts (a gather's or scatter's
        /// map reads included) fit the queues as held, and not a cycle could
        /// be saved. A horizon placement dispatches no burst before its
        /// queue's horizon, and some burst the cycle its queue frees (cycle
        /// 0 of an idle one: the burst's own lead), or `t0` is `not_before`.
        /// A constant's read (kind 3) takes the earliest start at which its
        /// bursts fit the idle cycles the other traffic leaves, before the
        /// horizon where they fit there; a plain read of the same rows placed
        /// after it still waits for the horizon.
        #[test]
        fn bursts_fit_the_queues_and_are_tight(
            east in any::<bool>(),
            kind in 0usize..4,
            shape in (1u32..40, 1u32..16),
            rows in proptest::collection::vec(0u32..1000, 1..48),
            holds in proptest::collection::vec((0usize..8, 0u64..400), 0..8),
            bursts in proptest::collection::vec((0usize..8, 0u64..400, 1u64..60), 0..8),
            not_before in 0u64..300,
        ) {
            let mut s = Scheduler::new();
            let hemisphere = if east { Hemisphere::East } else { Hemisphere::West };
            let tensor = (s.alloc)
                .alloc_in(Some(hemisphere), shape.0, 320, BankPolicy::High, shape.1)
                .expect("an empty chip has room");
            if kind == 3 {
                s.add_constant_at(tensor.clone(), Vec::new());
            }
            let lane = kind == 1 || kind == 2;
            let mnemonic = ["Read", "Gather", "Scatter", "Read"][kind];
            // A lane burst takes a map stream: few enough for all to be free.
            let rows = &rows[..if lane { rows.len().min(12) } else { rows.len() }];
            let rows: Vec<u32> = rows.iter().map(|r| r % tensor.rows).collect();
            let keys: Vec<u32> = (0..tensor.rows).collect();
            let mut slices: Vec<_> = tensor.layout.slices().collect();
            let maps = match lane {
                false => Vec::new(),
                true => s.add_lane_maps(&tensor, 16, &keys, |i, _| i, &mut slices),
            };
            // `slices`: the tensor's, then its maps'. Per queue, the cycles
            // other traffic holds it.
            let mut busy: BTreeMap<IcuId, Vec<(u64, u64)>> = BTreeMap::new();
            for &(which, until) in &holds {
                let (h, sl) = slices[which % slices.len()];
                s.occupy_mem(h, sl, until);
                busy.entry(mem_queue(h, sl)).or_default().push((0, until));
            }
            for &(which, at, n) in &bursts {
                let (h, sl) = slices[which % slices.len()];
                let queue = mem_queue(h, sl);
                let at = s.pool.first_window(&[(Resource::Queue(queue), 0, n)], at);
                s.place(queue, at, IcuOp::Nop { count: n as u16 });
                busy.entry(queue).or_default().push((at, at + n));
            }
            let before = placed(&s, &slices);
            let horizon = |s: &Scheduler| -> BTreeMap<IcuId, u64> {
                (slices.iter()).map(|&(h, sl)| (mem_queue(h, sl), s.mem_free(h, sl))).collect()
            };
            let free = horizon(&s);
            let vxm = Slice::Vxm.position();
            let inward = StreamId::new(0, Direction::inward_from(hemisphere));
            let outward = StreamId::new(0, Direction::outward_from(hemisphere));
            let t0 = match kind {
                0 => {
                    let t0 = s.earliest_read_arrival(&tensor, &rows, inward.direction, vxm, not_before);
                    s.read_rows(&tensor, &rows, inward, vxm, t0);
                    t0
                }
                1 => {
                    let t0 = s.earliest_gather_arrival(&maps, &rows, inward.direction, vxm, not_before);
                    s.gather_rows(&maps, &rows, inward, vxm, t0);
                    t0
                }
                2 => {
                    let t0 = s.earliest_scatter_start(&maps, &rows, outward.direction, vxm, not_before, &[]);
                    s.scatter_rows(&maps, &rows, outward, vxm, t0);
                    t0
                }
                _ => {
                    let t0 = s.earliest_constant_arrival(&tensor, &rows, inward.direction, vxm, not_before);
                    s.read_rows(&tensor, &rows, inward, vxm, t0);
                    t0
                }
            };
            prop_assert!(t0 >= not_before);
            prop_assert!(s.check().is_none(), "{:?}", s.check());
            let mut placed_now = dispatches(&s, &before, "Read");
            if lane {
                placed_now.extend(dispatches(&s, &before, mnemonic));
            }
            if kind == 3 {
                // The read fits the other traffic's idle cycles at `t0`, and
                // at no earlier start: checked against the holds themselves.
                let fits = |t: u64| {
                    Scheduler::read_runs(&tensor, &rows).all(|(start, addr, len)| {
                        let lead = Scheduler::read_lead(addr, inward.direction, vxm);
                        let Some(d) = (t + start as u64).checked_sub(lead) else {
                            return false;
                        };
                        let held = busy.get(&mem_queue(addr.hemisphere, addr.slice));
                        (held.into_iter().flatten()).all(|&(a, b)| d + len as u64 <= a || d >= b)
                    })
                };
                prop_assert!(fits(t0), "t0={t0} placed={placed_now:?}");
                prop_assert!(
                    (not_before..t0).all(|t| !fits(t)),
                    "t0={t0}: an earlier start fits"
                );
            } else {
                for (q, c) in &placed_now {
                    prop_assert!(*c >= free[q], "{mnemonic} @{c} on {q}, held until {}", free[q]);
                }
                let tight = placed_now.iter().any(|(q, c)| *c == free[q]);
                prop_assert!(t0 == not_before || tight, "t0={t0} placed={placed_now:?}");
            }
            if kind == 3 {
                let (before, free) = (placed(&s, &slices), horizon(&s));
                let plain = StreamId::new(1, inward.direction);
                let t1 = s.earliest_read_arrival(&tensor, &rows, plain.direction, vxm, 0);
                s.read_rows(&tensor, &rows, plain, vxm, t1);
                for (q, c) in dispatches(&s, &before, "Read") {
                    prop_assert!(c >= free[&q], "Read @{c} on {q}, held until {}", free[&q]);
                }
                prop_assert!(s.check().is_none(), "{:?}", s.check());
            }
        }
    }
}
