//! Dense matmul on the MXM: the machine's workhorse (paper §III-D, §IV).
//!
//! A matrix multiply `Y[N,M] = X[N,K] · Wᵀ` is decomposed into 320×320
//! *passes*: K is split into ≤320-wide input blocks, M into ≤320-wide output
//! blocks. For each (kpart, mpart) the weight sub-matrix is streamed into a
//! plane (`LW`), installed (`IW`), the N activation rows streamed through
//! (`ABC`), and the int32 results read out (`ACC`) — accumulating across
//! kparts in the plane's accumulators. The final results chain through the
//! VXM (requantize to int8, optional ReLU) and stream straight to MEM: the
//! paper's `Read → Conv2D → Requantize → ReLU → Write` pattern with no
//! intermediate spills.
//!
//! The building blocks are deliberately composable: [`stream_weights`] puts
//! one weight block in flight toward an MXM (both planes of that hemisphere
//! may load from it); a [`PlaneChainBuilder`] runs a sequence of
//! accumulate-passes on one plane and hands back the int32 result stream;
//! [`schedule_requant_write`] requantizes such a stream at the VXM — adding a
//! residual [`Shortcut`] on the way if given one — and fans the int8 rows out
//! to any number of replica tensors (replicas are free: extra `Write`s tap
//! the same stream as it flows past). Conv runs one chain
//! per plane over its own share of the output rows (the paper's "four
//! simultaneous conv2d" regime) — see [`crate::kernels::conv`].
//!
//! ## Weight layout ("LW order")
//!
//! A weight handle has 320 rows: row `j·20 + r` is what stream `j` of the
//! `SG16` group must carry on install cycle `r`, i.e. array row `16·r + j`
//! (output channel), with lanes = input channels of the kpart. The host-side
//! serializer (`tsp-nn`) performs this shuffle; each 20-row block then lands
//! in its own slice so all 16 streams run concurrently at one row per cycle.

use tsp_arch::{Direction, Hemisphere, Position, Slice, StreamGroup, StreamId, Vector};
use tsp_isa::{
    AccumulateMode, AluIndex, BinaryAluOp, DataType, MxmOp, Plane, UnaryAluOp, VxmOp, D_IW, D_VXM,
    LW_ROWS, MXM_ARRAY_DELAY,
};
use tsp_sim::IcuId;

use crate::alloc::BankPolicy;
use crate::kernels::elementwise::tensor_hemisphere;
use crate::sched::{ConstantRows, LaneMap, OutOfPorts, Scheduler};
use crate::tensor::TensorHandle;

/// The weights of one matmul, pre-split and serialized for the MXM.
#[derive(Debug, Clone)]
pub struct WeightSet {
    /// Input features (K).
    pub k: u32,
    /// Output features (M).
    pub m: u32,
    /// `parts[kpart][mpart]` = replica handles (≥1) of the 320-row LW-order
    /// weight block; replicas let several planes install the same weights
    /// concurrently.
    pub parts: Vec<Vec<Vec<TensorHandle>>>,
}

impl WeightSet {
    /// Number of K splits.
    #[must_use]
    pub fn kparts(&self) -> usize {
        self.parts.len()
    }

    /// Number of M splits.
    #[must_use]
    pub fn mparts(&self) -> usize {
        self.parts.first().map_or(0, Vec::len)
    }
}

/// One MXM pass: install `weights`, stream activation rows `rows` of `acts`.
#[derive(Debug, Clone)]
pub struct Pass<'a> {
    /// 320-row LW-order weight handle.
    pub weights: &'a TensorHandle,
    /// Activation tensor ([N, k_cols]).
    pub acts: &'a TensorHandle,
    /// Row indices streamed through the array, in order.
    pub rows: &'a [u32],
}

/// Where output rows land: `(first_row, count)` segments of a destination
/// tensor, totalling N rows (lets conv write into padded feature maps whose
/// interior rows are not contiguous).
pub type DstSegments = Vec<(u32, u32)>;

/// An int32 result stream awaiting the requant epilogue: the quad-stream
/// group and the cycle its first row is present **at the VXM**.
#[derive(Debug, Clone, Copy)]
pub struct Int32Stream {
    /// Quad-stream group carrying the int32 rows.
    pub group: StreamGroup,
    /// Cycle row 0 is readable at the VXM; row `i` follows at `+i`.
    pub t_at_vxm: u64,
}

/// LW-order serialization of one weight block: `fill(m, row)` writes the
/// weights of array row (output lane) `m < mrows` into `row`, lane = input
/// lane. Array row `m` is block row `20·(m mod 16) + ⌊m/16⌋`; only the
/// `mrows` rows `fill` writes are returned, the rest of the 320×320 block
/// reads zero unwritten ([`ConstantRows`]).
///
/// # Panics
///
/// Panics if `mrows` exceeds the array's 320 rows.
pub fn lw_rows(fill: impl Fn(u32, &mut Vector), mrows: u32) -> ConstantRows {
    assert!(mrows <= 320, "a weight block has 320 array rows");
    let mut rows = Vec::with_capacity(mrows as usize);
    for j in 0..16u32 {
        for m in (j..mrows).step_by(16) {
            let mut v = Vector::ZERO;
            fill(m, &mut v);
            rows.push((20 * j + m / 16, v));
        }
    }
    rows
}

/// How a pass's activation rows leave MEM: streamed as stored, or each
/// fetched through a gather map that packs several stored rows into one.
#[derive(Debug, Clone, Copy)]
pub enum ActFeed<'a> {
    /// `Read` rows of the tensor.
    Read(&'a TensorHandle),
    /// `Gather` the vectors these maps name out of their (lane-replicated)
    /// tensor.
    Gather(&'a [LaneMap]),
}

impl ActFeed<'_> {
    pub(crate) fn earliest_arrival(
        self,
        s: &Scheduler,
        rows: &[u32],
        direction: Direction,
        consumer: Position,
        not_before: u64,
    ) -> u64 {
        match self {
            ActFeed::Read(t) => s.earliest_read_arrival(t, rows, direction, consumer, not_before),
            ActFeed::Gather(maps) => {
                s.earliest_gather_arrival(maps, rows, direction, consumer, not_before)
            }
        }
    }

    pub(crate) fn stream_rows(
        self,
        s: &mut Scheduler,
        rows: &[u32],
        stream: StreamId,
        consumer: Position,
        t0: u64,
    ) {
        match self {
            ActFeed::Read(t) => s.read_rows(t, rows, stream, consumer, t0),
            ActFeed::Gather(maps) => s.gather_rows(maps, rows, stream, consumer, t0),
        }
    }
}

/// A weight block in flight toward one hemisphere's MXM. Stream reads are
/// non-destructive, so both planes of that hemisphere may `LW` from it.
#[derive(Debug, Clone, Copy)]
pub struct WeightFeed {
    /// The `SG16` group carrying the 20 install rows.
    pub group: StreamGroup,
    /// Cycle install row 0 is present at the MXM; row `r` follows at `+r`.
    pub t_lw: u64,
}

/// Streams the 320-row LW-order block `weights` toward `hemisphere`'s MXM on
/// 16 streams, arriving no earlier than `not_before`.
pub fn stream_weights(
    s: &mut Scheduler,
    weights: &TensorHandle,
    hemisphere: Hemisphere,
    not_before: u64,
) -> WeightFeed {
    let mxm = Slice::Mxm(hemisphere).position();
    let to_mxm = Direction::outward_from(hemisphere);
    let (wbase, ready) = s.take_aligned_group(to_mxm, 16, not_before, mxm);
    let weight_rows: Vec<Vec<u32>> = (0..16u32)
        .map(|j| (j * 20..(j + 1) * 20).collect())
        .collect();
    let t_lw = weight_rows.iter().fold(ready, |t, rows| {
        s.earliest_read_arrival(weights, rows, to_mxm, mxm, t)
    });
    for (j, rows) in weight_rows.iter().enumerate() {
        let stream = StreamId::new(wbase + j as u8, to_mxm);
        s.read_rows(weights, rows, stream, mxm, t_lw);
    }
    WeightFeed {
        group: StreamGroup::new(StreamId::new(wbase, to_mxm), 16),
        t_lw,
    }
}

/// The plane a kernel's `chain`-th plane chain runs on: chains fill the four
/// planes in order, wave after wave — a [`matmul`]'s one per M-split, a
/// conv's per M-split and row chunk ([`crate::kernels::conv::chain_plane`]).
/// Whoever emplaces the weights reads the same function: an M-split's blocks
/// belong in the hemisphere of the plane that installs them.
#[must_use]
pub fn plane_of_chain(chain: usize) -> Plane {
    Plane::new((chain % usize::from(Plane::COUNT)) as u8)
}

/// One 320-row LW-order weight block on its way into SRAM: the M-split whose
/// chains install it, the rows of it that hold data ([`lw_rows`]), its
/// meaningful lanes.
pub type WeightBlock = (usize, ConstantRows, u16);

/// Emplaces a kernel's weight blocks, returning their handles in the order
/// given; all keep off the slices in `avoid` where they can (what the kernel
/// streams while a block is due: a 20-row weight read queued behind a
/// pass-long burst arrives a pass late).
///
/// Of a kernel with two or more M-splits, each M-split's blocks go together
/// to the hemisphere of the plane its chains run on (`plane`, which reads
/// [`plane_of_chain`]), stacked on sixteen of its inner Low-bank slices
/// (`MemAllocator::alloc_low_stacked`): every read of the set
/// then leads its arrival by as much, where a block across the chip is read
/// some 70 cycles ahead of one next to the MXM, and a slice's queue, booked
/// as one busy horizon, makes whichever of two such reads is reserved second
/// wait for the first. A kernel whose `chains` all run at once gives every
/// M-split a stack of its own; one that runs them in waves — a wave's output
/// lands while the next wave's weights are read — keeps to one stack a
/// hemisphere and leaves the other inner slices' ports to its output. A stack
/// that finds no room whole, and every block of a kernel with one M-split
/// (its chains run in both hemispheres), goes where the allocator's cursor
/// puts it, in the order given.
pub fn emplace_weight_blocks(
    s: &mut Scheduler,
    blocks: Vec<WeightBlock>,
    (plane, chains): (impl Fn(usize) -> Plane, usize),
    avoid: &[(Hemisphere, u8)],
) -> Vec<TensorHandle> {
    let mparts = blocks.iter().map(|b| b.0 + 1).max().unwrap_or(0);
    let waves = chains.div_ceil(usize::from(Plane::COUNT));
    // A stack's name: its hemisphere and, in a single wave, its M-split.
    let stack_of = |mpart: usize| {
        let own = if waves == 1 { mpart } else { 0 };
        (plane(mpart).hemisphere(), own)
    };
    // One M-split: no stack at all.
    let stacks: std::collections::BTreeSet<_> =
        (0..mparts).filter(|_| mparts > 1).map(stack_of).collect();
    let mut near: Vec<Option<TensorHandle>> = vec![None; blocks.len()];
    for stack in stacks {
        let own = |i: &usize| stack_of(blocks[*i].0) == stack;
        let cols: Vec<u16> = (0..blocks.len()).filter(own).map(|i| blocks[i].2).collect();
        let set = s.alloc.alloc_low_stacked(stack.0, 320, &cols, 20, avoid);
        for (i, handle) in (0..blocks.len()).filter(own).zip(set.into_iter().flatten()) {
            near[i] = Some(handle);
        }
    }
    (blocks.into_iter().zip(near))
        .map(|((_, rows, cols), near)| match near {
            Some(handle) => {
                s.add_constant_at(handle.clone(), rows);
                handle
            }
            None => s.add_constant_in(None, avoid, (320, cols), rows, BankPolicy::Low, 20),
        })
        .collect()
}

/// A resumable MXM plane chain: schedules one accumulate-pass at a time so
/// several planes' chains can be **interleaved** by the caller — without
/// interleaving, one chain's reads hold MEM-port and stream reservations that
/// push the next chain's start past them (the resource pool tracks a single
/// busy horizon per port and stream, not gaps, so work must be reserved in
/// time order).
///
/// A pass is an [`install`](PlaneChainBuilder::install) and one or more
/// [`feed`](PlaneChainBuilder::feed)s through the installed weights. `ACC`
/// addresses accumulator ordinals from 0, so a feed of `m < n` rows adds to
/// the chain's **first** `m` rows only: the way a row whose operands one
/// stream cannot deliver at once gets a second helping.
#[derive(Debug)]
pub struct PlaneChainBuilder {
    plane: Plane,
    feeds_done: usize,
    prev_iw_done: u64,
    prev_abc_end: u64,
    n: u64,
    /// The last feed's emission and its row count.
    result: Option<(Int32Stream, u64)>,
}

impl PlaneChainBuilder {
    /// Starts a chain over `n` rows on `plane`.
    #[must_use]
    pub fn new(s: &Scheduler, plane: Plane, n: u64, not_before: u64) -> PlaneChainBuilder {
        // The plane is handed over the way a chain hands it from pass to
        // pass: the weight buffer once the previous tenant's last `IW` is
        // through, the array once its last `ABC` has ended.
        let (buffer, array) = s.plane_free(plane);
        PlaneChainBuilder {
            plane,
            feeds_done: 0,
            prev_iw_done: buffer.max(not_before),
            prev_abc_end: array.max(not_before),
            n,
            result: None,
        }
    }

    /// The plane this chain runs on.
    #[must_use]
    pub fn plane(&self) -> Plane {
        self.plane
    }

    /// The earliest cycle this chain's next [`WeightFeed`] may arrive (its
    /// weight buffer is busy until the previous install completes).
    #[must_use]
    pub fn lw_floor(&self) -> u64 {
        self.prev_iw_done
    }

    /// Schedules the next pass: [`install`](PlaneChainBuilder::install) the
    /// weights in `feed`, then [`feed`](PlaneChainBuilder::feed) `rows`
    /// through them.
    pub fn add_pass(
        &mut self,
        s: &mut Scheduler,
        feed: WeightFeed,
        acts: ActFeed<'_>,
        rows: &[u32],
    ) {
        self.install(s, feed);
        self.feed(s, acts, rows);
    }

    /// Loads the weights in `feed` and installs them once the array has
    /// drained the previous feed.
    ///
    /// # Panics
    ///
    /// Panics if `feed` arrives before [`PlaneChainBuilder::lw_floor`].
    pub fn install(&mut self, s: &mut Scheduler, feed: WeightFeed) {
        let plane = self.plane;
        assert!(feed.t_lw >= self.prev_iw_done, "weights arrive too early");
        s.place(
            IcuId::Mxm { plane, port: 0 },
            feed.t_lw,
            MxmOp::LoadWeights {
                plane,
                streams: feed.group,
                rows: LW_ROWS as u8,
            },
        );
        // IW waits for the buffer to fill and the array to drain pass p−1.
        let t_iw = (feed.t_lw + LW_ROWS).max(self.prev_abc_end);
        s.place(
            IcuId::Mxm { plane, port: 3 },
            t_iw,
            MxmOp::InstallWeights {
                plane,
                dtype: DataType::Int8,
            },
        );
        self.prev_iw_done = t_iw + D_IW;
        s.hold_weight_buffer(plane, self.prev_iw_done);
    }

    /// Streams `rows` of `acts` through the installed weights into the
    /// chain's first `rows.len()` accumulators (the chain's first feed
    /// overwrites them; later feeds add).
    ///
    /// # Panics
    ///
    /// Panics if there are more rows than the chain's `n`, or fewer in the
    /// chain's first feed: that one overwrites every accumulator.
    pub fn feed(&mut self, s: &mut Scheduler, acts: ActFeed<'_>, rows: &[u32]) {
        let plane = self.plane;
        let m = rows.len() as u64;
        assert!(m <= self.n, "a feed of {m} rows in a chain of {}", self.n);
        assert!(
            m == self.n || self.feeds_done > 0,
            "the first feed overwrites every row"
        );
        let mxm = Slice::Mxm(plane.hemisphere()).position();
        let to_mxm = Direction::outward_from(plane.hemisphere());
        let from_mxm = to_mxm.opposite();

        // ---- activations --------------------------------------------------
        // The ACC emission time is t_abc + MXM_ARRAY_DELAY and cannot move,
        // so t_abc must also wait until an output quad-stream group is free:
        // iterate to the fixed point (monotone, converges in a few steps).
        let start = self.prev_iw_done.max(self.prev_abc_end);
        let (acts_stream, ready) = s.take_streams(to_mxm, 1, start, mxm);
        let mut t_abc = acts.earliest_arrival(s, rows, to_mxm, mxm, ready);
        let acc_group = loop {
            // Row 0 is emitted at the MXM one cycle after the ACC dispatch.
            let t_emit = t_abc + u64::from(MXM_ARRAY_DELAY) + 1;
            let (base, group_ready) = s.take_aligned_group(from_mxm, 4, t_emit, mxm);
            if group_ready <= t_emit {
                break StreamGroup::new(StreamId::new(base, from_mxm), 4);
            }
            let at = group_ready - u64::from(MXM_ARRAY_DELAY) - 1;
            t_abc = acts.earliest_arrival(s, rows, to_mxm, mxm, at);
        };
        // Reserve the result group for real before the activation feed picks
        // any stream of its own (a gather's map streams may flow `from_mxm`).
        let t_acc = t_abc + u64::from(MXM_ARRAY_DELAY);
        for stream in acc_group.streams() {
            s.occupy_stream(stream, mxm, t_acc + 1 + m);
        }
        acts.stream_rows(s, rows, acts_stream[0], mxm, t_abc);
        s.place(
            IcuId::Mxm { plane, port: 1 },
            t_abc,
            MxmOp::ActivationBuffer {
                plane,
                stream: acts_stream[0],
                rows: m as u16,
            },
        );
        self.prev_abc_end = t_abc + m;
        s.hold_array(plane, self.prev_abc_end);

        // ---- accumulate ----------------------------------------------------
        let mode = if self.feeds_done == 0 {
            AccumulateMode::Overwrite
        } else {
            AccumulateMode::Accumulate
        };
        s.place(
            IcuId::Mxm { plane, port: 2 },
            t_acc,
            MxmOp::Accumulate {
                plane,
                dst: acc_group,
                rows: m as u16,
                mode,
            },
        );
        self.feeds_done += 1;

        let vxm = Slice::Vxm.position();
        let transit = u64::from(from_mxm.hops(mxm, vxm).expect("VXM inward of MXM"));
        let emission = Int32Stream {
            group: acc_group,
            // Row r is emitted at t_acc + r + 1, arriving `transit` later.
            t_at_vxm: t_acc + 1 + transit,
        };
        self.result = Some((emission, m));
    }

    /// Finishes the chain, returning the final int32 stream at the VXM: the
    /// last feed's emission.
    ///
    /// # Panics
    ///
    /// Panics if nothing was fed, or if the last feed did not cover every row.
    #[must_use]
    pub fn finish(self) -> Int32Stream {
        let (emission, rows) = self.result.expect("at least one pass");
        assert_eq!(rows, self.n, "the last feed emits every row");
        emission
    }
}

/// Runs `passes` back-to-back on `plane`, accumulating into the plane's
/// accumulators (pass 0 overwrites; later passes add). Returns the final
/// int32 output stream positioned at the VXM.
///
/// # Panics
///
/// Panics on empty or inconsistent passes.
pub fn schedule_plane_chain(
    s: &mut Scheduler,
    plane: Plane,
    passes: &[Pass<'_>],
    not_before: u64,
) -> Int32Stream {
    assert!(!passes.is_empty(), "no passes");
    let n = passes[0].rows.len() as u64;
    let mut builder = PlaneChainBuilder::new(s, plane, n, not_before);
    for pass in passes {
        let feed = stream_weights(s, pass.weights, plane.hemisphere(), builder.lw_floor());
        builder.add_pass(s, feed, ActFeed::Read(pass.acts), pass.rows);
    }
    builder.finish()
}

/// Where requantized output rows should be materialized.
#[derive(Debug, Clone)]
pub struct OutSpec {
    /// Total rows of each output tensor (≥ n when segments skip borders).
    pub rows_total: u32,
    /// Meaningful lanes.
    pub cols: u16,
    /// `(first_row, count)` segments covering the N produced rows.
    pub segments: DstSegments,
    /// Rows nothing writes that must read as zero (a padding border), cleared
    /// where the output lands on recycled SRAM.
    pub border: DstSegments,
    /// Output hemisphere (single-stream write requires one side).
    pub hemisphere: Hemisphere,
    /// Bank policy.
    pub policy: BankPolicy,
    /// Identical replicas to materialize.
    pub replicas: u8,
    /// Max rows per block.
    pub max_block: u32,
    /// Slices the replicas must not use (siblings streamed concurrently).
    pub avoid: Vec<(Hemisphere, u8)>,
}

/// A residual operand of the requant epilogue: row `rows[i]` of `tensor` is
/// added (saturating) to requantized row `i`, before the ReLU.
#[derive(Debug, Clone, Copy)]
pub struct Shortcut<'a> {
    /// The int8 tensor to add, all of it in one hemisphere.
    pub tensor: &'a TensorHandle,
    /// One row index per produced row, in stream order.
    pub rows: &'a [u32],
}

/// Requantizes an int32 row stream at the VXM to int8 (`2^-shift`,
/// round-to-nearest, saturate), optionally adds a [`Shortcut`] (saturating)
/// and applies ReLU, and writes the rows into freshly allocated replica
/// tensors. Output tensors are allocated *after* the write time is known, on
/// slices whose ports are free by then — so stream-dictated writes can never
/// collide with earlier bursts — and their [`OutSpec::border`] is cleared in
/// the window those free ports leave before the first row lands, or, when the
/// window is too short, once the rows are in. Returns the replicas and the
/// completion cycle.
///
/// # Errors
///
/// Returns [`OutOfPorts`] when no slices with write ports free by the chain's
/// write time have room, or the shortcut's slices cannot deliver its rows in
/// step with the chain — the caller should roll back (via
/// [`Scheduler::snapshot`]) and retry the chain with a later floor.
///
/// # Panics
///
/// Panics if the segments, or the shortcut's rows, don't cover N rows.
pub fn schedule_requant_write(
    s: &mut Scheduler,
    source: Int32Stream,
    n: u64,
    requant_shift: i8,
    relu: bool,
    shortcut: Option<Shortcut<'_>>,
    out: &OutSpec,
) -> Result<(Vec<TensorHandle>, u64), OutOfPorts> {
    let out_hem = out.hemisphere;
    let (out_group, t_out) = requant_chain(s, source, n, requant_shift, relu, shortcut, out_hem)?;
    let vxm = Slice::Vxm.position();

    // Allocate the replicas now that the write time is known, then fan out:
    // extra Writes tap the same flowing stream.
    assert_eq!(
        out.segments.iter().map(|&(_, c)| u64::from(c)).sum::<u64>(),
        n,
        "segments must cover N rows"
    );
    let mut replicas: Vec<TensorHandle> = Vec::with_capacity(usize::from(out.replicas.max(1)));
    let mut avoid = out.avoid.clone();
    for _ in 0..out.replicas.max(1) {
        let Some(t) = s.try_alloc_for_write(
            Some(out_hem),
            out.rows_total,
            out.cols,
            out.policy,
            out.max_block,
            t_out,
            &avoid,
        ) else {
            for t in &replicas {
                s.alloc.free(t);
            }
            return Err(OutOfPorts { t_write: t_out });
        };
        avoid.extend(t.layout.slices());
        replicas.push(t);
    }
    let borders: Vec<(&TensorHandle, &[(u32, u32)])> =
        (replicas.iter().map(|t| (t, out.border.as_slice()))).collect();
    let cleared = s.zero_stale(&borders, Some(t_out));
    for tensor in &replicas {
        let mut offset = 0u64;
        for &(first, count) in &out.segments {
            s.write_rows(tensor, first, count, out_group.base, vxm, t_out + offset);
            offset += u64::from(count);
        }
    }
    let cleared = cleared.or_else(|| s.zero_stale(&borders, None));
    let done = (t_out + n).max(cleared.expect("no deadline to miss"));
    s.note_completion(done);
    Ok((replicas, done))
}

/// The epilogue's VXM chain — convert, optional shortcut add, optional ReLU,
/// each stage consuming its predecessor's stream where it is born (no memory
/// round trip, §II-E): returns the final int8 output stream group and the
/// cycle its first row is readable at the VXM.
fn requant_chain(
    s: &mut Scheduler,
    source: Int32Stream,
    n: u64,
    requant_shift: i8,
    relu: bool,
    shortcut: Option<Shortcut<'_>>,
    out_hem: Hemisphere,
) -> Result<(StreamGroup, u64), OutOfPorts> {
    let vxm = Slice::Vxm.position();
    let out_dir = Direction::outward_from(out_hem);
    // One stage: `op(dst, alu)` issued for the `n` rows from cycle `t`, its
    // results on a fresh outward stream `D_VXM` later.
    let stage = |s: &mut Scheduler, t: u64, op: &dyn Fn(StreamGroup, AluIndex) -> VxmOp| {
        let (alu, alu_ready) = s.pick_alu(t);
        let (id, ready) = s.take_aligned_group(out_dir, 1, t + D_VXM, vxm);
        if alu_ready > t || ready > t + D_VXM {
            return Err(OutOfPorts { t_write: t });
        }
        let dst = StreamGroup::new(StreamId::new(id, out_dir), 1);
        s.place_burst(IcuId::Vxm { alu }, t, n, op(dst, alu));
        s.occupy_stream(dst.base, vxm, t + D_VXM + n);
        Ok(dst)
    };

    let mut t = source.t_at_vxm;
    let mut out = stage(s, t, &|dst, alu| VxmOp::Convert {
        from: DataType::Int32,
        to: DataType::Int8,
        src: source.group,
        dst,
        shift: requant_shift,
        alu,
    })?;
    t += D_VXM;
    if let Some(Shortcut { tensor, rows }) = shortcut {
        assert_eq!(rows.len() as u64, n, "shortcut must cover N rows");
        // The shortcut's rows meet the converted rows at the VXM: its slices
        // must be free exactly then, which is the caller's allocation to get
        // right (nothing else the chain streams may share them).
        let inward = Direction::inward_from(tensor_hemisphere(tensor));
        let (streams, ready) = s.take_streams(inward, 1, t, vxm);
        let arrival = s.earliest_read_arrival(tensor, rows, inward, vxm, t);
        if ready > t || arrival > t {
            return Err(OutOfPorts { t_write: arrival });
        }
        s.read_rows(tensor, rows, streams[0], vxm, t);
        let (a, b) = (out, StreamGroup::new(streams[0], 1));
        out = stage(s, t, &|dst, alu| VxmOp::Binary {
            op: BinaryAluOp::AddSat,
            dtype: DataType::Int8,
            a,
            b,
            dst,
            alu,
        })?;
        t += D_VXM;
    }
    if relu {
        let src = out;
        out = stage(s, t, &|dst, alu| VxmOp::Unary {
            op: UnaryAluOp::Relu,
            dtype: DataType::Int8,
            src,
            dst,
            alu,
        })?;
        t += D_VXM;
    }
    Ok((out, t))
}

/// Options for [`matmul`].
#[derive(Debug, Clone)]
pub struct MatmulOpts {
    /// Power-of-two requantization: int32 accumulators scaled by `2^-shift`.
    pub requant_shift: i8,
    /// Apply ReLU after requantization.
    pub relu: bool,
    /// Bank for the output tensor.
    pub out_policy: BankPolicy,
    /// Hemisphere for the output tensor.
    pub out_hemisphere: Hemisphere,
    /// Number of output replicas to materialize (for downstream concurrency).
    pub out_replicas: u8,
    /// Schedule nothing before this cycle.
    pub not_before: u64,
}

impl Default for MatmulOpts {
    fn default() -> MatmulOpts {
        MatmulOpts {
            requant_shift: 0,
            relu: false,
            out_policy: BankPolicy::High,
            out_hemisphere: Hemisphere::West,
            out_replicas: 1,
            not_before: 0,
        }
    }
}

/// Full matmul: `x_parts[kpart]` are the K-split activation tensors (each
/// `[N, ≤320]`), with optional extra replicas per part
/// (`x_parts[kpart][replica]`) enabling plane parallelism. Returns the
/// M-split output tensors (`outputs[mpart][replica]`) and the completion
/// cycle.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn matmul(
    s: &mut Scheduler,
    x_parts: &[Vec<TensorHandle>],
    w: &WeightSet,
    opts: &MatmulOpts,
) -> (Vec<Vec<TensorHandle>>, u64) {
    assert_eq!(x_parts.len(), w.kparts(), "K split mismatch");
    let n = x_parts[0][0].rows;
    let rows: Vec<u32> = (0..n).collect();
    let mparts = w.mparts();
    let mut outputs = Vec::with_capacity(mparts);
    let mut done = opts.not_before;

    for mpart in 0..mparts {
        let plane = plane_of_chain(mpart);
        let mcols = (w.m - mpart as u32 * 320).min(320) as u16;
        let passes: Vec<Pass<'_>> = (0..w.kparts())
            .map(|kpart| {
                let reps = &x_parts[kpart];
                let wreps = &w.parts[kpart][mpart];
                Pass {
                    weights: &wreps[mpart % wreps.len()],
                    acts: &reps[mpart % reps.len()],
                    rows: &rows,
                }
            })
            .collect();
        let spec = OutSpec {
            rows_total: n,
            cols: mcols,
            segments: vec![(0, n)],
            border: Vec::new(),
            hemisphere: opts.out_hemisphere,
            policy: opts.out_policy,
            replicas: opts.out_replicas,
            max_block: 4096,
            avoid: Vec::new(),
        };
        let (reps, end) = s
            .retry_later(opts.out_hemisphere, opts.not_before, 0.5, |s, floor| {
                let int32 = schedule_plane_chain(s, plane, &passes, floor);
                schedule_requant_write(
                    s,
                    int32,
                    u64::from(n),
                    opts.requant_shift,
                    opts.relu,
                    None,
                    &spec,
                )
            })
            .expect("even a fully-drained chip must have ports");
        done = done.max(end);
        outputs.push(reps);
    }
    (outputs, done)
}

#[cfg(test)]
// Index loops mirror the paper's math in these reference checks.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use tsp_arch::{ChipConfig, Vector};
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;

    /// Serializes a weight matrix `w[m][k]` (m, k ≤ 320) into LW order:
    /// handle row j*20+r = array row 16r+j.
    pub(crate) fn emplace_weights(
        s: &mut Scheduler,
        chip: &mut Chip,
        w: &[Vec<i8>],
    ) -> TensorHandle {
        let cols = w.first().map_or(1, |r| r.len() as u16).max(1);
        let handle = s.alloc.alloc(320, cols, BankPolicy::Low, 20).unwrap();
        for j in 0..16u32 {
            for r in 0..20u32 {
                let array_row = (16 * r + j) as usize;
                let mut v = Vector::ZERO;
                if let Some(row) = w.get(array_row) {
                    for (lane, &x) in row.iter().enumerate() {
                        v.set_lane(lane, x as u8);
                    }
                }
                chip.memory.write(handle.row(j * 20 + r), v);
            }
        }
        handle
    }

    pub(crate) fn fill_acts(chip: &mut Chip, t: &TensorHandle, x: &[Vec<i8>]) {
        for (r, row) in x.iter().enumerate() {
            let mut v = Vector::ZERO;
            for (lane, &val) in row.iter().enumerate() {
                v.set_lane(lane, val as u8);
            }
            chip.memory.write(t.row(r as u32), v);
        }
    }

    /// Reference: y[n][m] = clamp(round(Σ_k x[n][k]·w[m][k] / 2^shift)).
    pub(crate) fn reference(x: &[Vec<i8>], w: &[Vec<i8>], shift: i8, relu: bool) -> Vec<Vec<i8>> {
        x.iter()
            .map(|row| {
                (0..w.len())
                    .map(|m| {
                        let acc: i64 = row
                            .iter()
                            .zip(&w[m])
                            .map(|(&a, &b)| i64::from(a) * i64::from(b))
                            .sum();
                        let scaled = if shift > 0 {
                            let half = 1i64 << (shift - 1);
                            if acc >= 0 {
                                (acc + half) >> shift
                            } else {
                                -((-acc + half) >> shift)
                            }
                        } else {
                            acc << u32::from((-shift) as u8)
                        };
                        let mut v = scaled.clamp(-128, 127) as i8;
                        if relu {
                            v = v.max(0);
                        }
                        v
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn small_matmul_matches_reference() {
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());

        let n = 8usize;
        let k = 12usize;
        let m = 10usize;
        let x_data: Vec<Vec<i8>> = (0..n)
            .map(|r| (0..k).map(|c| ((r * 7 + c * 3) % 11) as i8 - 5).collect())
            .collect();
        let w_data: Vec<Vec<i8>> = (0..m)
            .map(|r| (0..k).map(|c| ((r * 5 + c) % 7) as i8 - 3).collect())
            .collect();

        let x = s
            .alloc
            .alloc_in(
                Some(Hemisphere::East),
                n as u32,
                k as u16,
                BankPolicy::High,
                4096,
            )
            .unwrap();
        fill_acts(&mut chip, &x, &x_data);
        let wh = emplace_weights(&mut s, &mut chip, &w_data);

        let wset = WeightSet {
            k: k as u32,
            m: m as u32,
            parts: vec![vec![vec![wh]]],
        };
        let opts = MatmulOpts {
            requant_shift: 3,
            out_hemisphere: Hemisphere::West,
            ..MatmulOpts::default()
        };
        let (outs, _) = matmul(&mut s, &[vec![x]], &wset, &opts);
        let program = s.into_program().expect("valid schedule");
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        let expect = reference(&x_data, &w_data, 3, false);
        for r in 0..n {
            let got = chip.memory.read_unchecked(outs[0][0].row(r as u32));
            for c in 0..m {
                assert_eq!(got.lane(c) as i8, expect[r][c], "y[{r}][{c}]");
            }
        }
    }

    #[test]
    fn matmul_with_relu_chains_through_vxm() {
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());
        let n = 4;
        let x_data: Vec<Vec<i8>> = (0..n).map(|r| vec![r as i8 + 1, -(r as i8) - 1]).collect();
        let w_data: Vec<Vec<i8>> = vec![vec![1, 1], vec![-1, -1], vec![2, 0]];

        let x = s
            .alloc
            .alloc_in(Some(Hemisphere::West), n as u32, 2, BankPolicy::High, 4096)
            .unwrap();
        fill_acts(&mut chip, &x, &x_data);
        let wh = emplace_weights(&mut s, &mut chip, &w_data);
        let wset = WeightSet {
            k: 2,
            m: 3,
            parts: vec![vec![vec![wh]]],
        };
        let opts = MatmulOpts {
            relu: true,
            out_hemisphere: Hemisphere::East,
            ..MatmulOpts::default()
        };
        let (outs, _) = matmul(&mut s, &[vec![x]], &wset, &opts);
        let program = s.into_program().unwrap();
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        let expect = reference(&x_data, &w_data, 0, true);
        for r in 0..n {
            let got = chip.memory.read_unchecked(outs[0][0].row(r as u32));
            for c in 0..3 {
                assert_eq!(got.lane(c) as i8, expect[r][c], "y[{r}][{c}]");
            }
        }
    }

    #[test]
    fn k_split_accumulates_across_passes() {
        // K = 400 → two kparts (320 + 80); verify the accumulated result.
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());
        let n = 3usize;
        let k = 400usize;
        let m = 5usize;
        let x_data: Vec<Vec<i8>> = (0..n)
            .map(|r| (0..k).map(|c| (((r + 1) * c) % 5) as i8 - 2).collect())
            .collect();
        let w_data: Vec<Vec<i8>> = (0..m)
            .map(|r| (0..k).map(|c| ((r + c) % 3) as i8 - 1).collect())
            .collect();

        let split = 320usize;
        let x0_data: Vec<Vec<i8>> = x_data.iter().map(|r| r[..split].to_vec()).collect();
        let x1_data: Vec<Vec<i8>> = x_data.iter().map(|r| r[split..].to_vec()).collect();
        let w0: Vec<Vec<i8>> = w_data.iter().map(|r| r[..split].to_vec()).collect();
        let w1: Vec<Vec<i8>> = w_data.iter().map(|r| r[split..].to_vec()).collect();

        let x0 = s
            .alloc
            .alloc_in(
                Some(Hemisphere::East),
                n as u32,
                320,
                BankPolicy::High,
                4096,
            )
            .unwrap();
        let x1 = s
            .alloc
            .alloc_in(Some(Hemisphere::East), n as u32, 80, BankPolicy::High, 4096)
            .unwrap();
        fill_acts(&mut chip, &x0, &x0_data);
        fill_acts(&mut chip, &x1, &x1_data);
        let wh0 = emplace_weights(&mut s, &mut chip, &w0);
        let wh1 = emplace_weights(&mut s, &mut chip, &w1);
        let wset = WeightSet {
            k: k as u32,
            m: m as u32,
            parts: vec![vec![vec![wh0]], vec![vec![wh1]]],
        };
        let opts = MatmulOpts {
            requant_shift: 4,
            out_hemisphere: Hemisphere::West,
            ..MatmulOpts::default()
        };
        let (outs, _) = matmul(&mut s, &[vec![x0], vec![x1]], &wset, &opts);
        let program = s.into_program().unwrap();
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        let expect = reference(&x_data, &w_data, 4, false);
        for r in 0..n {
            let got = chip.memory.read_unchecked(outs[0][0].row(r as u32));
            for c in 0..m {
                assert_eq!(got.lane(c) as i8, expect[r][c], "y[{r}][{c}]");
            }
        }
    }

    #[test]
    fn output_replicas_are_identical() {
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());
        let x_data: Vec<Vec<i8>> = vec![vec![1, 2], vec![3, 4]];
        let w_data: Vec<Vec<i8>> = vec![vec![1, 0], vec![0, 1]];
        let x = s
            .alloc
            .alloc_in(Some(Hemisphere::East), 2, 2, BankPolicy::High, 4096)
            .unwrap();
        fill_acts(&mut chip, &x, &x_data);
        let wh = emplace_weights(&mut s, &mut chip, &w_data);
        let wset = WeightSet {
            k: 2,
            m: 2,
            parts: vec![vec![vec![wh]]],
        };
        let opts = MatmulOpts {
            out_replicas: 3,
            out_hemisphere: Hemisphere::West,
            ..MatmulOpts::default()
        };
        let (outs, _) = matmul(&mut s, &[vec![x]], &wset, &opts);
        let program = s.into_program().unwrap();
        chip.run(&program, &RunOptions::default())
            .expect("clean run");
        assert_eq!(outs[0].len(), 3);
        for rep in &outs[0] {
            for r in 0..2u32 {
                let got = chip.memory.read_unchecked(rep.row(r));
                assert_eq!(got.lane(0) as i8, x_data[r as usize][0]);
                assert_eq!(got.lane(1) as i8, x_data[r as usize][1]);
            }
        }
    }
}
