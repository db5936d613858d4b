//! 2-D convolution by offset accumulation (paper §IV: conv2d is lowered onto
//! the same MXM pass machinery as matmul).
//!
//! A `k×k` convolution is the sum over the k² spatial offsets of an ordinary
//! `[N, C_in] × [C_in, C_out]` matmul whose activation rows are *shifted*
//! pixel rows:
//!
//! ```text
//! y[p, co] = Σ_{δ} Σ_{ci} x[p·s + δ, ci] · w[δ, ci, co]
//! ```
//!
//! Feature maps are stored with their padding border materialized (border
//! rows stay zero), so every shifted row index is valid and each offset pass
//! is a plain strided row sequence — `Read`+`Repeat` bursts for stride 1,
//! per-row reads otherwise. Passes accumulate in the plane's int32
//! accumulators (`ACC` accumulate mode).
//!
//! **K-packing.** A pass over `c_in ≤ 160` channels would fill only
//! `c_in/320` of the array, so one pass covers `G =` [`taps_per_pass`] taps
//! instead of one — any `G` that are consecutive in row-major `(dy, dx)`
//! order, across kernel rows ([`ConvWeights::tap_groups`] is the one table of
//! which tap sits where: `⌈k²/G⌉` passes, two for a 3×3 over 64 channels):
//! the weights of a group's `j`-th tap sit at lanes `j·`[`group_lanes`]` + ci`,
//! and its activation rows are fetched with a MEM `Gather` whose
//! per-superlane addresses put the tap's stored row into lane group `j`. A
//! superlane only ever fetches its own 16 lanes of a word, so the *producer*
//! must have written every row **lane-replicated**
//! ([`MapLayout::lane_copies`]: `y[p]` again in each group) — free, its
//! weights are merely tiled along M ([`ConvWeights::out_copies`]) — and in
//! blocks of whole padded rows. A group of one tap (all of them when `G = 1`)
//! is streamed with a plain `Read`.
//!
//! **The double feed.** A `Gather` runs on one slice, and a group spanning two
//! kernel rows wants stored rows a padded row apart: where those fall in two
//! blocks of the input (58 padded rows are cut 15/15/15/13, so 6 of 56 output
//! rows) the pixel is fed through the group's weights once per block, the lane
//! groups whose tap lies in the other block addressing the first row of the
//! block at hand — a border pixel, which reads zero in every lane. A chain
//! streams such pixels first ([`RowSplit::order_by`]) and re-runs the group as
//! a short accumulate feed over that prefix alone
//! ([`PlaneChainBuilder::feed`]): no second weight block, no data movement.
//!
//! **Row split.** The output pixels are dealt to the `4 / mparts` planes an
//! M-split owns ([`RowSplit`]): each plane runs *all* the passes (tap groups
//! × kparts) over its own share of the rows — reading its own input replica, the two planes
//! of a hemisphere tapping one weight stream — keeps the full sum in its own
//! accumulators and goes straight through requantize/ReLU into **its own
//! block** of a block-chunked output tensor (the paper's "four simultaneous
//! conv2d" regime; no partial sum ever leaves the MXM). [`conv_passes`] is
//! that lowering; [`conv2d`] feeds it shifted rows of a feature map, and the
//! first-layer im2col path of `tsp-nn` feeds it host-prepared patch rows.
//!
//! **Residual tail.** Given a shortcut map of the output's geometry
//! ([`conv2d_add`]), each chain adds its own chunk's rows of it between
//! requantize and ReLU — a ResNet block's `add + relu` without the conv's
//! result ever visiting SRAM on its own. The chain reads those rows in step
//! with its results, so the shortcut shares no slice with anything else the
//! conv streams.
//!
//! Each output block is allocated **after** its chain's write time is known,
//! on slices whose ports are free by then (see
//! [`Scheduler::try_alloc_for_write`]): stream-dictated writes can then never
//! collide with already-scheduled bursts.

use tsp_arch::{Hemisphere, Vector};
use tsp_isa::Plane;

use crate::alloc::BankPolicy;
use crate::kernels::matmul::{
    emplace_weight_blocks, lw_rows, plane_of_chain, schedule_requant_write, stream_weights,
    ActFeed, DstSegments, OutSpec, PlaneChainBuilder, Shortcut,
};
use crate::sched::{LaneMap, OutOfPorts, Scheduler};
use crate::tensor::TensorHandle;

/// Lanes one copy of a `c`-channel pixel takes in a lane-replicated row:
/// whole superlanes, the granularity a `Gather` addresses.
#[must_use]
pub fn group_lanes(c: u32) -> u32 {
    c.div_ceil(16) * 16
}

/// How many taps of a `k×k` conv over `c_in` channels fit one 320-lane MXM
/// pass (`G`): 5 for 64 channels, 2 for 128, 1 from 161, all `k²` up to 32 —
/// the lane copies worth asking of the conv's producer.
#[must_use]
pub fn taps_per_pass(k: u32, c_in: u32) -> u32 {
    (320 / group_lanes(c_in)).clamp(1, (k * k).max(1))
}

/// How many taps a pass of that conv does cover given an input in
/// `lane_copies` copies: a tap per copy, up to [`taps_per_pass`].
#[must_use]
pub fn packed_taps(k: u32, c_in: u32, lane_copies: u32) -> u32 {
    taps_per_pass(k, c_in).min(lane_copies)
}

/// What a feature map looks like in SRAM beyond its `h×w×c`: everything a
/// producer is told and a consumer must know. One per graph edge — `tsp-nn`'s
/// planner decides it, the kernels are handed it and check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapLayout {
    /// Materialized border width in pixels (rows that read as zero).
    pub pad: u32,
    /// Copies of every channel part, for concurrent streaming.
    pub replicas: u8,
    /// Hemisphere all of it sits in.
    pub hemisphere: Hemisphere,
    /// Copies of the `c` channels every stored row holds side by side, copy
    /// `t` at lanes `t·group_lanes(c)..` (what a K-packed conv's or a
    /// lane-packed pool's `Gather` needs). Only a conv writes more than one,
    /// its weights tiled along M ([`ConvWeights::out_copies`]).
    pub lane_copies: u32,
    /// Lane groups the pixels of a row are dealt over: above 1, pixel `x`
    /// holds its `c` channels at lanes `(x mod lane_skew)·group_lanes(c)..`
    /// and zeros everywhere else (a lane-packed max pool's `Scatter` writes
    /// this, see [`crate::kernels::pool`]). Only a conv reads such a map,
    /// with its weights tiled along K ([`ConvWeights::in_skew`]).
    pub lane_skew: u32,
}

impl MapLayout {
    /// One pixel per row at lane 0: what the host, an add or a plain pool
    /// writes, and any kernel reads.
    #[must_use]
    pub fn plain(pad: u32, hemisphere: Hemisphere, replicas: u8) -> MapLayout {
        MapLayout {
            pad,
            replicas: replicas.max(1),
            hemisphere,
            lane_copies: 1,
            lane_skew: 1,
        }
    }

    /// Whether the map's blocks hold whole padded rows, so that the rows a
    /// `Gather` or `Scatter` touches at once always share a slice.
    #[must_use]
    pub fn whole_rows(&self) -> bool {
        self.lane_copies > 1 || self.lane_skew > 1
    }
}

/// A feature map: `h×w` pixels of `c` channels, stored row-major over a
/// materialized padding border. Channels are split into ≤320-wide parts, each
/// replicated as its layout says.
#[derive(Debug, Clone)]
pub struct FeatureMap {
    /// Height in (unpadded) pixels.
    pub h: u32,
    /// Width in (unpadded) pixels.
    pub w: u32,
    /// Channels.
    pub c: u32,
    /// Border, replicas, hemisphere and lane layout.
    pub layout: MapLayout,
    /// `parts[kpart][replica]`: tensors of `(h+2pad)·(w+2pad)` rows.
    pub parts: Vec<Vec<TensorHandle>>,
}

impl FeatureMap {
    /// The `h×w×c` map stored in `parts` as `layout` says.
    ///
    /// # Panics
    ///
    /// Panics if a part has another number of replicas than the layout.
    #[must_use]
    pub fn new(
        (h, w, c): (u32, u32, u32),
        layout: MapLayout,
        parts: Vec<Vec<TensorHandle>>,
    ) -> FeatureMap {
        let replicas = usize::from(layout.replicas);
        assert!(parts.iter().all(|p| p.len() == replicas), "replica count");
        FeatureMap {
            h,
            w,
            c,
            layout,
            parts,
        }
    }

    /// Allocates an `h×w×c` map in `layout`, parts and replicas all on slices
    /// of their own (they are written, and later read, concurrently), in
    /// blocks of whole padded rows where the layout needs them.
    ///
    /// # Panics
    ///
    /// Panics if SRAM is exhausted.
    pub fn alloc(s: &mut Scheduler, (h, w, c): (u32, u32, u32), layout: MapLayout) -> FeatureMap {
        let (ph, pw) = (h + 2 * layout.pad, w + 2 * layout.pad);
        let max_block = if layout.whole_rows() {
            (4096 / pw).max(1) * pw
        } else {
            4096
        };
        let mut avoid: Vec<(Hemisphere, u8)> = Vec::new();
        let mut tensor = |cols: u16| {
            let hemisphere = Some(layout.hemisphere);
            let t = (s.alloc)
                .alloc_avoiding(
                    hemisphere,
                    ph * pw,
                    cols,
                    BankPolicy::High,
                    max_block,
                    &avoid,
                )
                .expect("SRAM exhausted for a feature map");
            avoid.extend(t.layout.slices());
            t
        };
        let parts = (0..c.div_ceil(320))
            .map(|kp| {
                let cols = (c - kp * 320).min(320) as u16;
                (0..layout.replicas).map(|_| tensor(cols)).collect()
            })
            .collect();
        FeatureMap::new((h, w, c), layout, parts)
    }

    /// Padded width.
    #[must_use]
    pub fn pw(&self) -> u32 {
        self.w + 2 * self.layout.pad
    }

    /// Padded height.
    #[must_use]
    pub fn ph(&self) -> u32 {
        self.h + 2 * self.layout.pad
    }

    /// Total stored rows per part (padded pixels).
    #[must_use]
    pub fn rows_total(&self) -> u32 {
        self.ph() * self.pw()
    }

    /// Row index of (unpadded) pixel `(y, x)`.
    #[must_use]
    pub fn row_index(&self, y: u32, x: u32) -> u32 {
        (y + self.layout.pad) * self.pw() + (x + self.layout.pad)
    }

    /// Number of channel parts.
    #[must_use]
    pub fn kparts(&self) -> usize {
        self.parts.len()
    }

    /// Every MEM slice holding any part or replica of the map.
    pub fn slices(&self) -> impl Iterator<Item = (Hemisphere, u8)> + '_ {
        (self.parts.iter().flatten()).flat_map(|t| t.layout.slices())
    }

    /// The slices a conv adding this map as its shortcut streams from: the
    /// first replica of every part (see [`conv_passes`]).
    pub fn shortcut_slices(&self) -> impl Iterator<Item = (Hemisphere, u8)> + '_ {
        (self.parts.iter()).flat_map(|reps| reps[0].layout.slices())
    }

    /// The interior as write segments: one `(first_row, w)` run per pixel row.
    #[must_use]
    pub fn interior_segments(&self) -> Vec<(u32, u32)> {
        (0..self.h)
            .map(|y| (self.row_index(y, 0), self.w))
            .collect()
    }

    /// The materialized border as write segments: every stored row that is
    /// not in [`FeatureMap::interior_segments`].
    #[must_use]
    pub fn border_segments(&self) -> Vec<(u32, u32)> {
        let pad = self.layout.pad;
        if pad == 0 {
            return Vec::new();
        }
        // Top rows run on into the first pixel row's left border; each pixel
        // row's right border runs on into the next one's left border.
        let edge = pad * self.pw() + pad;
        let mut runs = vec![(0, edge)];
        runs.extend((1..self.h).map(|y| (self.row_index(y, 0) - 2 * pad, 2 * pad)));
        runs.push((self.rows_total() - edge, edge));
        runs
    }

    /// The row sequence an offset pass streams: for every output pixel
    /// `(oy, ox)` of an `oh×ow` output with stride `s`, the input row at
    /// `(oy·s + dy − off, ox·s + dx − off)` in padded coordinates, where
    /// `off` is the conv's logical padding (≤ the materialized `pad`).
    ///
    /// # Panics
    ///
    /// Panics if the offset walks outside the materialized border.
    #[must_use]
    pub fn offset_rows(
        &self,
        oh: u32,
        ow: u32,
        stride: u32,
        dy: u32,
        dx: u32,
        logical_pad: u32,
    ) -> Vec<u32> {
        let pad = self.layout.pad;
        assert!(
            logical_pad <= pad,
            "conv needs pad {logical_pad} but only {pad} materialized"
        );
        let shift = pad - logical_pad;
        let mut rows = Vec::with_capacity((oh * ow) as usize);
        for oy in 0..oh {
            for ox in 0..ow {
                let py = oy * stride + dy + shift;
                let px = ox * stride + dx + shift;
                assert!(py < self.ph() && px < self.pw(), "offset outside border");
                rows.push(py * self.pw() + px);
            }
        }
        rows
    }
}

/// Convolution weights: one LW-order handle per (tap group, kpart, mpart),
/// with optional replicas.
#[derive(Debug, Clone)]
pub struct ConvWeights {
    /// Kernel size `k` (k×k window).
    pub kernel: u32,
    /// Input channels.
    pub c_in: u32,
    /// Output channels.
    pub c_out: u32,
    /// Taps one pass covers (`G`, see [`packed_taps`]); above 1 the input
    /// must hold as many lane copies.
    pub taps: u32,
    /// Lane groups every tap's columns are repeated at (the input map's
    /// [`MapLayout::lane_skew`]): a pixel's channels are in one of them and
    /// the others are zero, so the dot product is that of the plain layout.
    pub in_skew: u32,
    /// Copies of the output channels the weights produce side by side (the
    /// output map's [`MapLayout::lane_copies`]).
    pub out_copies: u32,
    /// `passes[group][kpart][mpart][replica]`, groups in
    /// [`ConvWeights::tap_groups`] order.
    pub passes: Vec<Vec<Vec<Vec<TensorHandle>>>>,
}

impl ConvWeights {
    /// The taps `(dy, dx)` one pass each covers, in pass order: the `j`-th of
    /// a pass has its weights — and wants its activations — at lane group `j`.
    #[must_use]
    pub fn tap_groups(&self) -> Vec<Vec<(u32, u32)>> {
        tap_groups(self.kernel, self.taps)
    }
}

/// The `k²` taps in row-major order, `taps` to a group.
fn tap_groups(k: u32, taps: u32) -> Vec<Vec<(u32, u32)>> {
    let all: Vec<(u32, u32)> = (0..k)
        .flat_map(|dy| (0..k).map(move |dx| (dy, dx)))
        .collect();
    all.chunks(taps as usize).map(<[_]>::to_vec).collect()
}

/// Parameters of a [`conv2d`].
#[derive(Debug, Clone)]
pub struct Conv2dParams {
    /// Stride.
    pub stride: u32,
    /// Logical zero padding (must be materialized in the input's border).
    pub pad: u32,
    /// Power-of-two requantization shift for the int32→int8 conversion.
    pub requant_shift: i8,
    /// Fused ReLU.
    pub relu: bool,
    /// Border to materialize around the *output* (what downstream convs need).
    pub out_pad: u32,
    /// Output hemisphere.
    pub out_hemisphere: Hemisphere,
    /// Replicas per output part.
    pub out_replicas: u8,
    /// Schedule nothing before this cycle.
    pub not_before: u64,
}

impl Default for Conv2dParams {
    fn default() -> Conv2dParams {
        Conv2dParams {
            stride: 1,
            pad: 0,
            requant_shift: 0,
            relu: false,
            out_pad: 0,
            out_hemisphere: Hemisphere::West,
            out_replicas: 1,
            not_before: 0,
        }
    }
}

/// Fewest output rows worth a plane of their own: a pass cannot be shorter
/// than its ≈24-cycle weight install (`LW` 20 + `IW` 4), so thinner chunks
/// only multiply weight reads.
const MIN_CHUNK_ROWS: u32 = 24;

/// The share of a conv's output one plane chain computes: the pixels falling
/// in one block of the block-chunked output tensor.
#[derive(Debug, Clone, Default)]
pub struct RowChunk {
    /// Output-pixel ordinals `oy·ow + ox`, in the order they are streamed.
    pub pixels: Vec<u32>,
    /// Where they land, as `(first_row, count)` runs **within the block**.
    pub segments: DstSegments,
    /// The block's remaining rows — padding border, which must read as zero.
    pub border: DstSegments,
}

/// How an `oh×ow` output in a given [`MapLayout`] is dealt to plane chains:
/// the padded rows are cut into equal blocks, one [`RowChunk`] per block.
#[derive(Debug, Clone)]
pub struct RowSplit {
    /// Padded rows per output block.
    pub rows_per_block: u32,
    /// One non-empty chunk per block, in block order.
    pub chunks: Vec<RowChunk>,
}

impl RowSplit {
    /// Splits for at most `planes` concurrent chains. The chunk count is a
    /// function of the shape alone: as many as `planes`, but no chunk under
    /// `MIN_CHUNK_ROWS` pixels on average, none without pixels (a block of
    /// nothing but border), and no block over one SRAM bank. Where `out`
    /// wants [`MapLayout::whole_rows`] a block holds whole padded rows, so
    /// the blocks may be uneven: 58 padded rows go 15/15/15/13.
    ///
    /// # Panics
    ///
    /// Panics if those limits cannot all hold (a map thousands of pixels wide
    /// and one or two high).
    #[must_use]
    pub fn new(oh: u32, ow: u32, planes: usize, out: &MapLayout) -> RowSplit {
        let out_pad = out.pad;
        let pw = ow + 2 * out_pad;
        let rows_total = (oh + 2 * out_pad) * pw;
        let inside = |v: u32, len: u32| (out_pad..out_pad + len).contains(&v);
        // Blocks are cut in units of one stored row, or one padded row.
        let unit = if out.whole_rows() { pw } else { 1 };
        assert!(
            unit <= 4096,
            "a padded row of {pw} pixels exceeds an SRAM bank"
        );
        let units = rows_total / unit;
        let mut want = (oh * ow / MIN_CHUNK_ROWS).clamp(1, planes as u32);
        loop {
            let rows_per_block = units.div_ceil(want.max(units.div_ceil(4096 / unit))) * unit;
            let blocks = rows_total.div_ceil(rows_per_block);
            let mut chunks = vec![RowChunk::default(); blocks as usize];
            for row in 0..rows_total {
                let chunk = &mut chunks[(row / rows_per_block) as usize];
                let (y, x, local) = (row / pw, row % pw, row % rows_per_block);
                if inside(y, oh) && inside(x, ow) {
                    chunk.pixels.push((y - out_pad) * ow + x - out_pad);
                    push_row(&mut chunk.segments, local);
                } else {
                    push_row(&mut chunk.border, local);
                }
            }
            if chunks.iter().all(|c| !c.pixels.is_empty()) {
                return RowSplit {
                    rows_per_block,
                    chunks,
                };
            }
            assert!(
                want > 1,
                "no row split of a {oh}×{ow} map fits the SRAM banks"
            );
            want -= 1;
        }
    }

    /// The split of a conv's `oh×ow×c_out` output: every M-split owns
    /// `4 / mparts` planes, at least one.
    #[must_use]
    pub fn of_conv((oh, ow, c_out): (u32, u32, u32), out: &MapLayout) -> RowSplit {
        let mparts = c_out.div_ceil(320) as usize;
        RowSplit::new(oh, ow, (4 / mparts).max(1), out)
    }

    /// Re-orders every chunk's stream: pixels of a lower `rank` first, equals
    /// in the order they had. The segments follow — stream row `i` still
    /// lands where pixel `pixels[i]` belongs.
    pub fn order_by(&mut self, rank: impl Fn(u32) -> usize) {
        for chunk in &mut self.chunks {
            let rows = (chunk.segments.iter()).flat_map(|&(first, count)| first..first + count);
            let mut stream: Vec<(u32, u32)> = chunk.pixels.iter().copied().zip(rows).collect();
            stream.sort_by_cached_key(|&(px, _)| rank(px));
            chunk.segments.clear();
            for (pixel, &(px, row)) in chunk.pixels.iter_mut().zip(&stream) {
                *pixel = px;
                push_row(&mut chunk.segments, row);
            }
        }
    }
}

/// Appends `row` to `runs`, extending the last run if it continues it.
fn push_row(runs: &mut DstSegments, row: u32) {
    match runs.last_mut() {
        Some((first, count)) if *first + *count == row => *count += 1,
        _ => runs.push((row, 1)),
    }
}

/// The plane the chain of M-split `mpart` over row chunk `ci` (of `chunks`)
/// runs on: a conv's chains are dealt to the planes M-split by M-split, chunk
/// by chunk. Two or more M-splits leave each at most two chunks, so all the
/// chains of one run in one hemisphere — where [`emplace_conv`] puts its
/// weights.
#[must_use]
pub fn chain_plane(chunks: usize, mpart: usize, ci: usize) -> Plane {
    plane_of_chain(mpart * chunks + ci)
}

/// One accumulate-pass of one chunk, as [`conv_passes`] asks for it.
#[derive(Debug)]
pub struct ChunkPass<'a> {
    /// 320-row LW-order weight handle.
    pub weights: &'a TensorHandle,
    /// Activation tensor the chunk's chain reads (its own replica), and how.
    pub acts: ActFeed<'a>,
    /// Row lists of `acts` streamed through the installed weights in turn,
    /// list `f`'s row `i` adding to the chunk's pixel `i`: every pass has one
    /// list of a row per chunk pixel, and may have shorter ones — a second
    /// helping for the pixels the chunk streams first. The chain's first list
    /// and its last are full ones (see [`PlaneChainBuilder::feed`]).
    pub feeds: Vec<Vec<u32>>,
}

/// The row-split conv lowering: one plane chain per (M-split, chunk of
/// `split`) runs `passes` accumulate-passes (described by
/// `pass(mpart, pass, chunk)`) and requantizes into its own output block; the
/// chains run four at a time, one per plane. Returns the `parts` of the
/// `oh×ow×c_out` output map — which lanes of a row hold what is the weights'
/// business, so the caller who tiled them builds the [`FeatureMap`] — and the
/// completion cycle.
///
/// With a `shortcut` — a map of the output's own geometry — every chain adds
/// the shortcut's rows of its chunk (saturating) between requantize and ReLU:
/// a residual `add` as the tail of the conv producing its operand. A chain
/// fetches them in step with its results, so no slice of the shortcut may
/// hold anything else the conv streams (input replicas, weights, maps) or be
/// shared by two chunks' rows — true of a map another `conv_passes` of the
/// same output shape wrote, which is cut into the same blocks.
///
/// # Panics
///
/// Panics if the shortcut's geometry differs from the output's, or if no
/// output ports can be found even on a drained chip.
pub fn conv_passes<'a>(
    s: &mut Scheduler,
    (oh, ow, c_out): (u32, u32, u32),
    split: &RowSplit,
    passes: usize,
    pass: &dyn Fn(usize, usize, usize) -> ChunkPass<'a>,
    shortcut: Option<&FeatureMap>,
    params: &Conv2dParams,
) -> (Vec<Vec<TensorHandle>>, u64) {
    if let Some(sc) = shortcut {
        assert_eq!(
            (sc.h, sc.w, sc.c, sc.layout.pad),
            (oh, ow, c_out, params.out_pad),
            "shortcut geometry"
        );
    }
    let replicas = usize::from(params.out_replicas.max(1));
    let rows_total = (oh + 2 * params.out_pad) * (ow + 2 * params.out_pad);
    // No port floor at first: the writes come a whole chain after the start.
    let (blocks, done) = s
        .retry_later(params.out_hemisphere, params.not_before, 0.0, |s, floor| {
            let attempt = Conv2dParams {
                not_before: floor,
                ..params.clone()
            };
            schedule_chains(s, c_out, split, passes, pass, shortcut, &attempt)
        })
        .unwrap_or_else(|| {
            panic!(
                "conv: no port/space after retries (n={}, free_words={}, largest High block={})",
                oh * ow,
                s.alloc.free_words(),
                s.alloc.largest_block(BankPolicy::High),
            )
        });
    let concat = |blocks: &OutBlocks, r: usize| {
        let chunks: Vec<TensorHandle> = blocks.iter().map(|b| b[r].clone()).collect();
        TensorHandle::concat(&chunks, rows_total)
    };
    let parts = (blocks.iter())
        .map(|part| (0..replicas).map(|r| concat(part, r)).collect())
        .collect();
    (parts, done)
}

/// One M-split's output blocks, `[chunk][replica]`.
type OutBlocks = Vec<Vec<TensorHandle>>;

/// One attempt at [`conv_passes`], nothing of it before `params.not_before`:
/// returns every M-split's output blocks and the completion cycle.
fn schedule_chains<'a>(
    s: &mut Scheduler,
    c_out: u32,
    split: &RowSplit,
    passes: usize,
    pass: &dyn Fn(usize, usize, usize) -> ChunkPass<'a>,
    shortcut: Option<&FeatureMap>,
    params: &Conv2dParams,
) -> Result<(Vec<OutBlocks>, u64), OutOfPorts> {
    let floor = params.not_before;
    let mparts = c_out.div_ceil(320) as usize;
    // Per M-split, blocks and replicas stay slice-disjoint: chains write, and
    // consumers later read, all of them concurrently — as do the first
    // replicas of all M-splits, which a later conv may read chain by chain as
    // its shortcut — and all keep off this conv's shortcut, which the chains
    // read while they write.
    let shortcut_slices: Vec<(Hemisphere, u8)> =
        (shortcut.iter().flat_map(|m| m.shortcut_slices())).collect();
    let mut specs: Vec<OutSpec> = (0..mparts)
        .map(|mpart| OutSpec {
            rows_total: split.rows_per_block,
            cols: (c_out - mpart as u32 * 320).min(320) as u16,
            segments: Vec::new(),
            border: Vec::new(),
            hemisphere: params.out_hemisphere,
            policy: BankPolicy::High,
            replicas: params.out_replicas,
            max_block: split.rows_per_block,
            avoid: shortcut_slices.clone(),
        })
        .collect();
    let mut blocks = vec![vec![Vec::new(); split.chunks.len()]; mparts];
    let mut done = floor;
    // Every (M-split, chunk) is a chain; a wave fills the planes.
    let chunks = split.chunks.len();
    let chains: Vec<(usize, usize)> = (0..mparts)
        .flat_map(|mpart| (0..chunks).map(move |ci| (mpart, ci)))
        .collect();
    for wave in chains.chunks(usize::from(Plane::COUNT)) {
        // Schedule the wave's chains INTERLEAVED, pass by pass, so they run
        // plane-parallel: MEM ports and streams are reserved in time order.
        let mut builders: Vec<PlaneChainBuilder> = wave
            .iter()
            .map(|&(mpart, ci)| {
                let n = split.chunks[ci].pixels.len() as u64;
                PlaneChainBuilder::new(s, chain_plane(chunks, mpart, ci), n, floor)
            })
            .collect();
        for p in 0..passes {
            let jobs: Vec<ChunkPass<'a>> = wave.iter().map(|&(m, ci)| pass(m, p, ci)).collect();
            let mut i = 0;
            while i < builders.len() {
                // The two planes of a hemisphere load the same weights from
                // one stream (builders are in plane order: 0–1 west, 2–3 east).
                let pair =
                    i % 2 == 0 && i + 1 < builders.len() && jobs[i + 1].weights == jobs[i].weights;
                let j = if pair { i + 2 } else { i + 1 };
                let hemisphere = builders[i].plane().hemisphere();
                let lw_floor = builders[i..j].iter().map(|b| b.lw_floor()).max();
                let feed = stream_weights(s, jobs[i].weights, hemisphere, lw_floor.unwrap_or(0));
                for builder in &mut builders[i..j] {
                    builder.install(s, feed);
                }
                // Feed by feed, so the planes' bursts are reserved in time order.
                let feeds = jobs[i..j].iter().map(|job| job.feeds.len()).max();
                for f in 0..feeds.unwrap_or(0) {
                    for (builder, job) in builders[i..j].iter_mut().zip(&jobs[i..j]) {
                        if let Some(rows) = job.feeds.get(f) {
                            builder.feed(s, job.acts, rows);
                        }
                    }
                }
                i = j;
            }
        }
        for (builder, &(mpart, ci)) in builders.into_iter().zip(wave) {
            let (chunk, spec) = (&split.chunks[ci], &mut specs[mpart]);
            spec.segments.clone_from(&chunk.segments);
            // The padding border is never written by the chain: on recycled
            // SRAM it still holds a previous tenant's data.
            spec.border.clone_from(&chunk.border);
            let n = chunk.pixels.len() as u64;
            // The chunk's rows of the shortcut, if any: the rows it writes.
            let base = ci as u32 * split.rows_per_block;
            let rows: Vec<u32> = (shortcut.iter())
                .flat_map(|_| &chunk.segments)
                .flat_map(|&(first, count)| base + first..base + first + count)
                .collect();
            let shortcut = shortcut.map(|map| Shortcut {
                tensor: &map.parts[mpart][0],
                rows: &rows,
            });
            let (reps, end) = schedule_requant_write(
                s,
                builder.finish(),
                n,
                params.requant_shift,
                params.relu,
                shortcut,
                spec,
            )?;
            spec.avoid
                .extend(reps[1..].iter().flat_map(|t| t.layout.slices()));
            for spec in &mut specs {
                spec.avoid.extend(reps[0].layout.slices());
            }
            blocks[mpart][ci] = reps;
            done = done.max(end);
        }
    }
    Ok((blocks, done))
}

/// Schedules a 2-D convolution, returning the output feature map and the
/// completion cycle.
///
/// # Panics
///
/// Panics on inconsistent shapes, insufficient materialized padding, or
/// weights packing more taps than the input has lane copies.
pub fn conv2d(
    s: &mut Scheduler,
    input: &FeatureMap,
    weights: &ConvWeights,
    params: &Conv2dParams,
) -> (FeatureMap, u64) {
    conv2d_add(s, input, weights, None, params)
}

/// [`conv2d`] with an optional residual operand: `relu(conv(input) +
/// shortcut)` (`params.relu` applies after the add) in the conv's own chains
/// — see [`conv_passes`] for what the shortcut's allocation must guarantee.
///
/// # Panics
///
/// Panics where [`conv2d`] does, or if the shortcut's geometry or lane copies
/// differ from the output's.
pub fn conv2d_add(
    s: &mut Scheduler,
    input: &FeatureMap,
    weights: &ConvWeights,
    shortcut: Option<&FeatureMap>,
    params: &Conv2dParams,
) -> (FeatureMap, u64) {
    let k = weights.kernel;
    let groups = weights.tap_groups();
    assert_eq!(weights.passes.len(), groups.len(), "tap group count");
    assert_eq!(input.c, weights.c_in, "channel mismatch");
    assert!(
        weights.taps == 1 || weights.taps <= input.layout.lane_copies,
        "{} taps per pass need as many lane copies, input has {}",
        weights.taps,
        input.layout.lane_copies
    );
    assert_eq!(
        weights.in_skew, input.layout.lane_skew,
        "weights tiled for another lane skew"
    );
    // The weights' tiling along M is the output's lane layout.
    let out = MapLayout {
        lane_copies: weights.out_copies,
        ..MapLayout::plain(params.out_pad, params.out_hemisphere, params.out_replicas)
    };
    assert!(
        shortcut.is_none_or(|sc| {
            (sc.layout.lane_copies, sc.layout.lane_skew) == (out.lane_copies, out.lane_skew)
        }),
        "shortcut and output lane layouts differ"
    );
    let oh = (input.h + 2 * params.pad - k) / params.stride + 1;
    let ow = (input.w + 2 * params.pad - k) / params.stride + 1;
    let kparts = input.kparts();
    let mparts = weights.c_out.div_ceil(320) as usize;
    let mut split = RowSplit::of_conv((oh, ow, weights.c_out), &out);

    // `tap_rows[g][j][px]`: the stored row the `j`-th tap of group `g` reads
    // for output pixel `px` — shared across kparts, mparts and chunks.
    let tap_rows: Vec<Vec<Vec<u32>>> = (groups.iter())
        .map(|taps| {
            (taps.iter())
                .map(|&(dy, dx)| input.offset_rows(oh, ow, params.stride, dy, dx, params.pad))
                .collect()
        })
        .collect();
    let rows_per_block = input.parts[0][0].layout.rows_per_block;
    // A second feed covers a prefix of the chain: pixels that take one come
    // first, by the first group they take it through.
    split.order_by(|px| {
        let block = |rows: &Vec<u32>| rows[px as usize] / rows_per_block;
        let split_in =
            (tap_rows.iter()).position(|taps| block(&taps[0]) != block(&taps[taps.len() - 1]));
        split_in.unwrap_or(groups.len())
    });

    // Every chain of the conv (chunk `ci` of M-split `mpart`) reads its own
    // input replica.
    let chunks = split.chunks.len();
    let replicas = input.parts[0].len();
    let replica_of = |mpart: usize, ci: usize| (mpart * chunks + ci) % replicas;
    // Pass p is (tap group, kpart) = (p / kparts, p % kparts).
    let passes = groups.len() * kparts;
    let mut vectors = vec![GatherVectors::default(); replicas];
    // `feeds[mpart · chunks + ci][g]`: what the chain streams through group
    // `g` — of a group of one tap, the tap's rows as they are stored.
    let feeds: Vec<Vec<Feeds>> = (0..mparts * chunks)
        .map(|chain| {
            let (mpart, ci) = (chain / chunks, chain % chunks);
            let (pixels, vectors) = (
                &split.chunks[ci].pixels,
                &mut vectors[replica_of(mpart, ci)],
            );
            (tap_rows.iter().enumerate())
                .map(|(g, taps)| match taps.as_slice() {
                    [rows] => vec![pixels.iter().map(|&px| rows[px as usize]).collect()],
                    // No group of a conv with K-splits packs: pass `g`.
                    _ => vectors.feeds(pixels, taps, rows_per_block, (g == 0, g + 1 == passes)),
                })
                .collect()
        })
        .collect();
    assert!(
        input.layout.pad >= 1 || feeds.iter().flatten().all(|f| f.len() == 1),
        "a tap group split over two blocks reads a block's first row as zero: \
         the input needs a border"
    );
    let maps = gather_maps(s, input, weights, shortcut, &vectors);
    let pass = |mpart: usize, p: usize, ci: usize| {
        let (g, kp) = (p / kparts, p % kparts);
        let wreps = &weights.passes[g][kp][mpart];
        let replica = replica_of(mpart, ci);
        let acts = &input.parts[kp][replica];
        ChunkPass {
            weights: &wreps[ci % wreps.len()],
            acts: match groups[g].len() {
                1 => ActFeed::Read(acts),
                _ => ActFeed::Gather(&maps[replica]),
            },
            feeds: feeds[mpart * chunks + ci][g].clone(),
        }
    };
    let shape = (oh, ow, weights.c_out);
    let (parts, done) = conv_passes(s, shape, &split, passes, &pass, shortcut, params);
    (FeatureMap::new(shape, out, parts), done)
}

/// What one chain streams through one installed weight block: a full row list
/// and any shorter ones (see [`ChunkPass::feeds`]).
type Feeds = Vec<Vec<u32>>;

/// The vectors the chains reading one input replica gather: per vector, the
/// stored row each lane group fetches. A vector is named by its position
/// here — the order the chains first stream it in, so that a feed's map rows
/// run on — and one that two passes or two chains both want is listed once.
#[derive(Debug, Clone, Default)]
struct GatherVectors {
    rows: Vec<Vec<u32>>,
    names: std::collections::HashMap<Vec<u32>, u32>,
}

impl GatherVectors {
    fn name(&mut self, rows: Vec<u32>) -> u32 {
        let next = self.rows.len() as u32;
        *self.names.entry(rows).or_insert_with_key(|rows| {
            self.rows.push(rows.clone());
            next
        })
    }

    /// The feeds of a chain streaming `pixels` through one group of taps
    /// (`taps[j][px]` is tap `j`'s stored row), as vector names, in the order
    /// to run them. A `Gather` runs on one slice, so a pixel goes through the
    /// group once per block of the input its taps lie in: feed `f` gives
    /// every pixel the taps in its `f`-th block, ascending; the lane groups
    /// of its other taps fetch that block's first row — a border pixel, which
    /// reads zero: the one place a tap is dropped from a feed. Feed 0 covers
    /// every pixel; a later one stops at the last pixel with an `f`-th block
    /// and hands a pixel without one nothing but that zero row, in the block
    /// its neighbour reads.
    ///
    /// `ends` says whether the group is the chain's first pass and whether
    /// its last. The chain's first feed overwrites every accumulator and its
    /// last emits the result, so both are full ones: the last pass runs feed
    /// 0 after the others, and a pass that is both runs its last feed over
    /// every pixel.
    fn feeds(
        &mut self,
        pixels: &[u32],
        taps: &[Vec<u32>],
        rows_per_block: u32,
        (first_pass, last_pass): (bool, bool),
    ) -> Feeds {
        let blocks: Vec<Vec<u32>> = (pixels.iter())
            .map(|&px| {
                let mut blocks: Vec<u32> = (taps.iter())
                    .map(|rows| rows[px as usize] / rows_per_block)
                    .collect();
                blocks.dedup();
                blocks
            })
            .collect();
        let count = blocks.iter().map(Vec::len).max().unwrap_or(0);
        let mut feeds: Feeds = (0..count)
            .map(|f| {
                let runs_on = f == 0 || (first_pass && last_pass && f + 1 == count);
                let takers = blocks
                    .iter()
                    .rposition(|b| b.len() > f)
                    .map_or(0, |i| i + 1);
                let len = if runs_on { pixels.len() } else { takers };
                let first = blocks.iter().find_map(|b| b.get(f));
                let mut block = *first.expect("some pixel takes every feed");
                (pixels[..len].iter().zip(&blocks))
                    .map(|(&px, blocks)| {
                        let here = blocks.get(f).copied();
                        block = here.unwrap_or(block);
                        let rows = (taps.iter())
                            .map(|rows| match rows[px as usize] {
                                row if here == Some(row / rows_per_block) => row,
                                _ => block * rows_per_block,
                            })
                            .collect();
                        self.name(rows)
                    })
                    .collect()
            })
            .collect();
        if last_pass && !first_pass {
            feeds.rotate_left(1);
        }
        feeds
    }
}

/// The gather maps of a K-packed conv, `[input replica][block read]`, over
/// the `vectors` each replica's chains name. Empty when no pass packs taps.
fn gather_maps(
    s: &mut Scheduler,
    input: &FeatureMap,
    weights: &ConvWeights,
    shortcut: Option<&FeatureMap>,
    vectors: &[GatherVectors],
) -> Vec<Vec<LaneMap>> {
    // Chains stream their maps concurrently, and with the weights of the
    // next pass and the shortcut: all slice-disjoint.
    let mut avoid: Vec<(Hemisphere, u8)> = (weights.passes.iter().flatten().flatten().flatten())
        .flat_map(|t| t.layout.slices())
        .chain(shortcut.iter().flat_map(|m| m.shortcut_slices()))
        .collect();
    let lanes = group_lanes(input.c);
    (vectors.iter().zip(&input.parts[0]))
        .map(|(vectors, tensor)| {
            if vectors.rows.is_empty() {
                return Vec::new();
            }
            let rows_per_block = tensor.layout.rows_per_block;
            assert!(
                rows_per_block.is_multiple_of(input.pw()) || rows_per_block >= input.rows_total(),
                "a lane-replicated map is cut into whole padded rows"
            );
            let names: Vec<u32> = (0..vectors.rows.len() as u32).collect();
            // Lane groups past the taps fetch what a dropped tap's does.
            let row_of = |i: u32, g: u32| {
                let rows = &vectors.rows[i as usize];
                let zero = rows[0] / rows_per_block * rows_per_block;
                rows.get(g as usize).copied().unwrap_or(zero)
            };
            s.add_lane_maps(tensor, lanes, &names, row_of, &mut avoid)
        })
        .collect()
}

/// Builds a zero-initialized feature-map *input* allocation the host fills
/// with image data (used by graph compilation for the network input).
pub fn alloc_feature_map(
    s: &mut Scheduler,
    h: u32,
    w: u32,
    c: u32,
    pad: u32,
    hemisphere: Hemisphere,
    replicas: u8,
) -> FeatureMap {
    FeatureMap::alloc(s, (h, w, c), MapLayout::plain(pad, hemisphere, replicas))
}

/// Serializes conv weights `w(co, ci, dy, dx)` of a `k×k` conv (`c_in → c_out`
/// channels) into the per-(tap group, kpart, mpart) LW-order constant
/// handles: a pass holds the `j`-th tap of its group
/// ([`ConvWeights::tap_groups`]) at input lanes `j·group_lanes(c_in) + ci` —
/// or, for a lane-skewed input, its one tap again at each of the `in_skew`
/// lane groups — and `out_copies` copies of the output channels at array rows
/// `u·group_lanes(c_out) + co` (zero elsewhere).
///
/// Where the handles go is `(replicas, chunks, avoid)`: `replicas` copies of
/// every block; off the slices in `avoid` where they can — the conv's input:
/// a pass streams its activations from one slice for its whole length, and
/// weights behind that queue would reach the next pass a pass late; and, of a
/// conv with two or more M-splits, every M-split's blocks together in the
/// hemisphere of the planes its chains run on ([`chain_plane`], the output
/// cut into `chunks` row chunks — [`RowSplit::of_conv`]) while the set fits
/// there ([`emplace_weight_blocks`]). A wrong `chunks` costs cycles, never
/// correctness.
///
/// # Panics
///
/// Panics if `taps` taps, `in_skew` lane groups or `out_copies` channel
/// copies do not fit the 320 lanes, or if both `taps` and `in_skew` exceed 1.
pub fn emplace_conv(
    s: &mut Scheduler,
    (k, c_in, c_out): (u32, u32, u32),
    (taps, in_skew, out_copies): (u32, u32, u32),
    (replicas, chunks, avoid): (u8, usize, &[(Hemisphere, u8)]),
    w: impl Fn(u32, u32, u32, u32) -> i8,
) -> ConvWeights {
    assert!(taps == 1 || in_skew == 1, "a skewed input packs no taps");
    assert!(
        taps.max(in_skew) == 1 || taps.max(in_skew) * group_lanes(c_in) <= 320,
        "taps overflow the lanes"
    );
    assert!(
        out_copies == 1 || out_copies * group_lanes(c_out) <= 320,
        "output copies overflow the lanes"
    );
    // A lone tap or copy spans the whole 320-lane part.
    let in_group = match taps.max(in_skew) {
        1 => 320,
        _ => group_lanes(c_in),
    };
    let out_group = if out_copies > 1 {
        group_lanes(c_out)
    } else {
        320
    };
    let groups = tap_groups(k, taps);
    let (kparts, mparts) = (c_in.div_ceil(320), c_out.div_ceil(320));
    let replicas = usize::from(replicas.max(1));
    // In `passes[group][kpart][mpart][replica]` order.
    let mut blocks = Vec::new();
    for group in &groups {
        for kp in 0..kparts {
            let kc = (c_in - kp * 320).min(320);
            // Lane group `j` holds the group's `j`-th tap, or — skewed — the
            // pass's one tap again.
            let lane_groups = (group.len() as u32).max(in_skew);
            let kcols = (lane_groups - 1) * in_group + kc;
            for mp in 0..mparts {
                let mrows = (out_copies - 1) * out_group + (c_out - mp * 320).min(320);
                let fill = |m: u32, row: &mut Vector| {
                    let co = mp * 320 + m % out_group;
                    if co >= c_out {
                        return; // the lanes between two copies
                    }
                    for j in 0..lane_groups {
                        let (dy, dx) = group[if in_skew > 1 { 0 } else { j as usize }];
                        for ci in 0..kc {
                            let lane = (j * in_group + ci) as usize;
                            row.set_lane(lane, w(co, kp * 320 + ci, dy, dx) as u8);
                        }
                    }
                };
                let block = (mp as usize, lw_rows(fill, mrows), kcols as u16);
                blocks.extend(std::iter::repeat_n(block, replicas));
            }
        }
    }
    let chains = (
        |mpart: usize| chain_plane(chunks, mpart, 0),
        mparts as usize * chunks,
    );
    let mut handles = emplace_weight_blocks(s, blocks, chains, avoid).into_iter();
    let mut copies = || -> Vec<TensorHandle> { handles.by_ref().take(replicas).collect() };
    let passes = (groups.iter())
        .map(|_| {
            (0..kparts)
                .map(|_| (0..mparts).map(|_| copies()).collect())
                .collect()
        })
        .collect();
    ConvWeights {
        kernel: k,
        c_in,
        c_out,
        taps,
        in_skew,
        out_copies,
        passes,
    }
}

/// [`emplace_conv`] of a nested-vec weight tensor `w[c_out][c_in][k][k]`, one
/// tap per pass and one copy of the output channels.
///
/// # Panics
///
/// Panics on inconsistent nesting.
pub fn emplace_conv_weights(
    s: &mut Scheduler,
    w: &[Vec<Vec<Vec<i8>>>],
    replicas: u8,
) -> ConvWeights {
    let shape = (w[0][0].len() as u32, w[0].len() as u32, w.len() as u32);
    emplace_conv(s, shape, (1, 1, 1), (replicas, 1, &[]), |co, ci, dy, dx| {
        w[co as usize][ci as usize][dy as usize][dx as usize]
    })
}

#[cfg(test)]
// Index loops mirror the paper's math in these reference checks.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::kernels::testing::dirty_sram;
    use tsp_arch::ChipConfig;
    use tsp_sim::chip::RunOptions;
    use tsp_sim::Chip;

    /// Reference conv2d on i8 with power-of-two requant.
    fn reference_conv(
        x: &[Vec<Vec<i8>>],      // [h][w][c]
        w: &[Vec<Vec<Vec<i8>>>], // [co][ci][ky][kx]
        stride: u32,
        pad: u32,
        shift: i8,
        relu: bool,
    ) -> Vec<Vec<Vec<i8>>> {
        let h = x.len() as i64;
        let wdt = x[0].len() as i64;
        let cin = x[0][0].len();
        let cout = w.len();
        let k = w[0][0].len() as i64;
        let oh = ((h + 2 * i64::from(pad) - k) / i64::from(stride) + 1) as usize;
        let ow = ((wdt + 2 * i64::from(pad) - k) / i64::from(stride) + 1) as usize;
        let mut out = vec![vec![vec![0i8; cout]; ow]; oh];
        for oy in 0..oh {
            for ox in 0..ow {
                for co in 0..cout {
                    let mut acc = 0i64;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = oy as i64 * i64::from(stride) + ky - i64::from(pad);
                            let ix = ox as i64 * i64::from(stride) + kx - i64::from(pad);
                            if iy < 0 || ix < 0 || iy >= h || ix >= wdt {
                                continue;
                            }
                            for ci in 0..cin {
                                acc += i64::from(x[iy as usize][ix as usize][ci])
                                    * i64::from(w[co][ci][ky as usize][kx as usize]);
                            }
                        }
                    }
                    let scaled = if shift > 0 {
                        let half = 1i64 << (shift - 1);
                        if acc >= 0 {
                            (acc + half) >> shift
                        } else {
                            -((-acc + half) >> shift)
                        }
                    } else {
                        acc
                    };
                    let mut v = scaled.clamp(-128, 127) as i8;
                    if relu {
                        v = v.max(0);
                    }
                    out[oy][ox][co] = v;
                }
            }
        }
        out
    }

    /// One conv shape to check against [`reference_conv`].
    #[derive(Clone, Copy)]
    struct Case {
        h: u32,
        w: u32,
        cin: u32,
        cout: u32,
        k: u32,
        stride: u32,
        pad: u32,
        relu: bool,
        out_pad: u32,
        /// When set, the input is not host-written but produced on chip by a
        /// 1×1 conv from this many channels, lane-replicated for the conv
        /// under test — which then packs [`taps_per_pass`] taps per pass.
        from: Option<u32>,
        /// Lane copies the conv under test writes itself.
        out_copies: u32,
        /// Lane groups the (host-written) input's pixels are dealt over, as a
        /// lane-packed max pool leaves them.
        in_skew: u32,
        /// When set, the conv under test also adds a shortcut — produced on
        /// chip by a 1×1 conv, in the hemisphere opposite its input — before
        /// its ReLU, and writes to this hemisphere.
        residual: Option<Hemisphere>,
    }

    impl Case {
        fn new(hw: (u32, u32), channels: (u32, u32), k: u32, stride: u32) -> Case {
            Case {
                h: hw.0,
                w: hw.1,
                cin: channels.0,
                cout: channels.1,
                k,
                stride,
                pad: k / 2,
                relu: false,
                out_pad: 0,
                from: None,
                out_copies: 1,
                in_skew: 1,
                residual: None,
            }
        }

        /// A 3×3 conv fed by an on-chip producer (see [`Case::from`]).
        fn packed(hw: (u32, u32), channels: (u32, u32), stride: u32) -> Case {
            Case {
                from: Some(16),
                ..Case::new(hw, channels, 3, stride)
            }
        }
    }

    /// A plain one-replica layout with a border of `pad`.
    fn plain(pad: u32) -> MapLayout {
        MapLayout::plain(pad, Hemisphere::West, 1)
    }

    /// Realistic requantization for full-range int8 data.
    const SHIFT: i8 = 11;
    /// The producer's: a 16-term sum, kept full range (and often saturated).
    const PRODUCER_SHIFT: i8 = 8;

    /// Writes `x[y][x][c]` into every replica of every channel part, pixel
    /// `x` at lane group `x mod lane_skew`.
    fn fill_input(chip: &mut Chip, input: &FeatureMap, x: &[Vec<Vec<i8>>]) {
        let group = group_lanes(input.c) as usize;
        for (kp, reps) in input.parts.iter().enumerate() {
            for rep in reps {
                for (y, line) in x.iter().enumerate() {
                    for (xp, px) in line.iter().enumerate() {
                        let mut v = Vector::ZERO;
                        let first = xp % input.layout.lane_skew as usize * group;
                        for (lane, &val) in px.iter().skip(kp * 320).take(320).enumerate() {
                            v.set_lane(first + lane, val as u8);
                        }
                        chip.memory
                            .write(rep.row(input.row_index(y as u32, xp as u32)), v);
                    }
                }
            }
        }
    }

    /// Checks every lane of every replica of `out`: each lane copy of the
    /// interior against `expect`, the border and the lanes between copies
    /// against zero.
    fn check_map(chip: &Chip, out: &FeatureMap, expect: &[Vec<Vec<i8>>], replicas: usize) {
        assert_eq!(out.kparts(), out.c.div_ceil(320) as usize);
        let group = group_lanes(out.c) as usize;
        for (mp, reps) in out.parts.iter().enumerate() {
            assert_eq!(reps.len(), replicas, "replicas");
            for rep in reps {
                assert_eq!(u32::from(rep.cols), (out.c - mp as u32 * 320).min(320));
                let lanes = match out.layout.lane_copies {
                    1 => usize::from(rep.cols),
                    copies => copies as usize * group,
                };
                for row in 0..out.rows_total() {
                    let got = chip.memory.read_unchecked(rep.row(row));
                    let (py, px) = (row / out.pw(), row % out.pw());
                    let inside =
                        |v: u32, len: u32| (out.layout.pad..out.layout.pad + len).contains(&v);
                    for lane in 0..lanes {
                        let ch = match out.layout.lane_copies {
                            1 => mp * 320 + lane,
                            _ => lane % group,
                        };
                        let want = if inside(py, out.h) && inside(px, out.w) && ch < out.c as usize
                        {
                            expect[(py - out.layout.pad) as usize][(px - out.layout.pad) as usize]
                                [ch]
                        } else {
                            0
                        };
                        assert_eq!(
                            got.lane(lane) as i8,
                            want,
                            "{}×{}×{} row {row} lane {lane}",
                            out.h,
                            out.w,
                            out.c
                        );
                    }
                }
            }
        }
    }

    /// What [`run_conv_case_on`] compiled.
    struct Ran {
        /// How often the scheduler rolled a kernel back.
        rollbacks: u64,
        program: tsp_sim::Program,
        /// The output of the conv under test.
        out: FeatureMap,
        /// Its weights, and every slice of its input.
        weights: ConvWeights,
        input_slices: Vec<(Hemisphere, u8)>,
    }

    impl Ran {
        /// [`border_and_data_writes`] of the output.
        fn border_and_data_writes(&self) -> Vec<(u64, u64)> {
            let tensors: Vec<&TensorHandle> = self.out.parts.iter().flatten().collect();
            border_and_data_writes(&self.program, &tensors, &self.out.border_segments())
        }
    }

    /// Per block of `tensors`, on its slice's queue: the last dispatch of a
    /// `Write` into the block's `border` rows (0: none) and the first of one
    /// into its other rows.
    fn border_and_data_writes(
        program: &tsp_sim::Program,
        tensors: &[&TensorHandle],
        border: &[(u32, u32)],
    ) -> Vec<(u64, u64)> {
        use tsp_isa::{IcuOp, Instruction, MemOp};
        let border: Vec<u32> = (border.iter())
            .flat_map(|&(first, count)| first..first + count)
            .collect();
        let mut found = Vec::new();
        for tensor in tensors {
            let per_block = tensor.layout.rows_per_block;
            for (b, &(hemisphere, index, base)) in tensor.layout.blocks.iter().enumerate() {
                let is_border =
                    |word: u16| border.contains(&(b as u32 * per_block + u32::from(word - base)));
                let block = base..base + per_block as u16;
                let (mut last_border, mut first_data) = (0, u64::MAX);
                let mut burst: Option<u16> = None;
                let icu = tsp_sim::IcuId::Mem { hemisphere, index };
                for (at, instruction) in program.dispatches(icu) {
                    burst = match (instruction, burst) {
                        (Instruction::Mem(MemOp::Write { addr, .. }), _) => Some(addr.word()),
                        (Instruction::Icu(IcuOp::Repeat { .. }), word) => word,
                        _ => None,
                    };
                    // A burst is all border or all data: its first word says.
                    match burst.filter(|word| block.contains(word)) {
                        Some(word) if is_border(word) => last_border = last_border.max(at),
                        Some(_) => first_data = first_data.min(at),
                        None => {}
                    }
                }
                found.push((last_border, first_data));
            }
        }
        found
    }

    /// Compiles and runs `case` on a scheduler prepared by `prepare` (which
    /// may pre-dirty SRAM), then checks every channel of every output replica
    /// — interior against the reference, border against zero.
    fn run_conv_case_on(case: Case, prepare: impl FnOnce(&mut Scheduler, &mut Chip)) -> Ran {
        let Case {
            h, w, cin, cout, k, ..
        } = case;
        let mut s = Scheduler::new();
        let mut chip = Chip::new(ChipConfig::asic());
        prepare(&mut s, &mut chip);

        // Deterministic pseudo-random full-range int8 data.
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as i8
        };
        let mut weights = |cout: u32, cin: u32, k: u32| -> Vec<Vec<Vec<Vec<i8>>>> {
            (0..cout)
                .map(|_| {
                    (0..cin)
                        .map(|_| (0..k).map(|_| (0..k).map(|_| next()).collect()).collect())
                        .collect()
                })
                .collect()
        };
        let w_data = weights(cout, cin, k);
        let w_from = case.from.map(|c| weights(cin, c, 1));
        let w_shortcut = case.residual.map(|_| weights(cout, 16, 1));
        let host_c = case.from.unwrap_or(cin);
        let host_data: Vec<Vec<Vec<i8>>> = (0..h)
            .map(|_| {
                (0..w)
                    .map(|_| (0..host_c).map(|_| next()).collect())
                    .collect()
            })
            .collect();
        let oh = (h + 2 * case.pad - k) / case.stride + 1;
        let ow = (w + 2 * case.pad - k) / case.stride + 1;
        let shortcut_data: Vec<Vec<Vec<i8>>> = (0..case.residual.map_or(0, |_| oh))
            .map(|_| (0..ow).map(|_| (0..16).map(|_| next()).collect()).collect())
            .collect();
        type Weights = [Vec<Vec<Vec<i8>>>];
        // Weights of a conv writing an `hw` map with a border of `out_pad`.
        type Lanes = (u32, u32, u32);
        let emplace = |s: &mut Scheduler, w: &Weights, lanes: Lanes, hw, out_pad, avoid: &[_]| {
            let shape = (w[0][0].len() as u32, w[0].len() as u32, w.len() as u32);
            let (oh, ow): (u32, u32) = hw;
            let out = MapLayout {
                lane_copies: lanes.2,
                ..plain(out_pad)
            };
            let chunks = RowSplit::of_conv((oh, ow, shape.2), &out).chunks.len();
            emplace_conv(s, shape, lanes, (1, chunks, avoid), |co, ci, dy, dx| {
                w[co as usize][ci as usize][dy as usize][dx as usize]
            })
        };

        let host_pad = if case.from.is_some() { 0 } else { case.pad };
        let host_layout = MapLayout {
            lane_skew: case.in_skew,
            ..MapLayout::plain(host_pad, Hemisphere::East, 4)
        };
        let host = FeatureMap::alloc(&mut s, (h, w, host_c), host_layout);
        // The conv under test reads `input`, holding `x_data`.
        let (input, x_data) = match &w_from {
            None => (host.clone(), host_data.clone()),
            Some(w_from) => {
                let copies = taps_per_pass(k, cin);
                let lanes = (1, case.in_skew, copies);
                let weights = emplace(&mut s, w_from, lanes, (h, w), case.pad, &[]);
                let params = Conv2dParams {
                    requant_shift: PRODUCER_SHIFT,
                    out_pad: case.pad,
                    out_hemisphere: Hemisphere::West,
                    out_replicas: 4,
                    ..Conv2dParams::default()
                };
                let (mid, _) = conv2d(&mut s, &host, &weights, &params);
                assert_eq!(mid.layout.lane_copies, copies);
                let x = reference_conv(&host_data, w_from, 1, 0, PRODUCER_SHIFT, false);
                (mid, x)
            }
        };
        // The shortcut: an `oh×ow×cout` map a 1×1 conv writes opposite the
        // input, cut into the blocks the conv under test will write.
        let input_hemisphere = input.slices().next().expect("input has a block").0;
        let shortcut = w_shortcut.as_ref().map(|w_sc| {
            let host = alloc_feature_map(&mut s, oh, ow, 16, 0, input_hemisphere, 4);
            let lanes = (1, 1, case.out_copies);
            let weights = emplace(&mut s, w_sc, lanes, (oh, ow), case.out_pad, &[]);
            let params = Conv2dParams {
                requant_shift: PRODUCER_SHIFT,
                out_pad: case.out_pad,
                out_hemisphere: input_hemisphere.opposite(),
                ..Conv2dParams::default()
            };
            let (map, _) = conv2d(&mut s, &host, &weights, &params);
            let values = reference_conv(&shortcut_data, w_sc, 1, 0, PRODUCER_SHIFT, false);
            (map, values, host)
        });
        let taps = packed_taps(k, cin, input.layout.lane_copies);
        // Weights keep off everything the conv streams while they are due.
        let keep_off: Vec<_> = (input.slices())
            .chain(shortcut.iter().flat_map(|(map, ..)| map.shortcut_slices()))
            .collect();
        let lanes = (taps, input.layout.lane_skew, case.out_copies);
        let weights = emplace(&mut s, &w_data, lanes, (oh, ow), case.out_pad, &keep_off);
        let out_hemisphere = case.residual.unwrap_or(input_hemisphere.opposite());
        let params = Conv2dParams {
            stride: case.stride,
            pad: case.pad,
            requant_shift: SHIFT,
            relu: case.relu,
            out_pad: case.out_pad,
            out_hemisphere,
            out_replicas: 2,
            ..Conv2dParams::default()
        };
        let operand = shortcut.as_ref().map(|(map, ..)| map);
        let (out, _) = conv2d_add(&mut s, &input, &weights, operand, &params);
        assert_eq!(out.layout.lane_copies, case.out_copies);

        let rollbacks = s.rollbacks();
        let constants = s.take_constants();
        let program = s.into_program().expect("valid schedule");
        for (handle, rows) in &constants {
            for (r, v) in rows {
                chip.memory.write(handle.row(*r), v.clone());
            }
        }
        fill_input(&mut chip, &host, &host_data);
        if let Some((.., host)) = &shortcut {
            fill_input(&mut chip, host, &shortcut_data);
        }
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        if case.from.is_some() {
            check_map(&chip, &input, &x_data, 4);
        }
        let expect = match &shortcut {
            None => reference_conv(&x_data, &w_data, case.stride, case.pad, SHIFT, case.relu),
            // Requantize-saturate, add-saturate, then ReLU: int8 at each step.
            Some((map, values, _)) => {
                check_map(&chip, map, values, 1);
                let mut sum = reference_conv(&x_data, &w_data, case.stride, case.pad, SHIFT, false);
                for (v, &sc) in
                    (sum.iter_mut().flatten().flatten()).zip(values.iter().flatten().flatten())
                {
                    *v = v.saturating_add(sc);
                    if case.relu {
                        *v = (*v).max(0);
                    }
                }
                sum
            }
        };
        check_map(&chip, &out, &expect, 2);
        Ran {
            rollbacks,
            program,
            out,
            weights,
            input_slices: input.slices().collect(),
        }
    }

    /// [`run_conv_case_on`] a fresh chip; returns the scheduler's rollbacks.
    fn run_conv_case(case: Case) -> u64 {
        run_conv_case_on(case, |_, _| {}).rollbacks
    }

    #[test]
    fn conv3x3_stride1_pad1_matches_reference() {
        run_conv_case(Case::new((6, 6), (8, 5), 3, 1));
    }

    #[test]
    fn conv3x3_stride2_matches_reference() {
        run_conv_case(Case {
            relu: true,
            ..Case::new((7, 7), (4, 6), 3, 2)
        });
    }

    #[test]
    fn conv1x1_is_a_matmul() {
        run_conv_case(Case::new((5, 5), (10, 12), 1, 1));
    }

    /// kparts × mparts ∈ {1,2,7}², on 1×1-pixel and 2×2 tails (n = 1, 4).
    #[test]
    fn channel_splits_on_tiny_maps_match_reference() {
        for (cin, cout) in [
            (64, 2048),
            (2048, 64),
            (400, 2048),
            (2048, 400),
            (2048, 2048),
        ] {
            run_conv_case(Case::new((2, 2), (cin, cout), 1, 1));
        }
        run_conv_case(Case::new((1, 1), (2048, 700), 1, 1));
        run_conv_case(Case::new((1, 1), (400, 400), 3, 1));
    }

    /// 7×7 maps (n = 49: two chunks per M-split pair, one when M-splits ≥ 4).
    #[test]
    fn channel_splits_on_7x7_match_reference() {
        run_conv_case(Case::new((7, 7), (64, 2048), 1, 1));
        run_conv_case(Case::new((13, 13), (400, 400), 1, 2));
        run_conv_case(Case {
            relu: true,
            ..Case::new((7, 7), (400, 400), 3, 1)
        });
        run_conv_case(Case::new((14, 14), (64, 700), 3, 2));
    }

    /// 110 rows over 4 chunks: neither the rows nor the padded rows divide.
    #[test]
    fn uneven_row_split_matches_reference() {
        let split = RowSplit::new(10, 11, 4, &plain(0));
        let sizes: Vec<usize> = split.chunks.iter().map(|c| c.pixels.len()).collect();
        assert_eq!(sizes, [28, 28, 28, 26]);
        run_conv_case(Case::new((10, 11), (8, 5), 3, 1));
    }

    /// A 1×100 map with a border would put nothing but border in the first of
    /// four blocks; the split backs off until every chunk has pixels, and
    /// tiny maps are never split at all.
    #[test]
    fn row_split_never_makes_an_empty_or_install_bound_chunk() {
        let wide = RowSplit::new(1, 100, 4, &plain(1));
        assert!(wide.chunks.len() < 4);
        assert!(wide.chunks.iter().all(|c| !c.pixels.is_empty()));
        assert_eq!(
            wide.chunks.iter().map(|c| c.pixels.len()).sum::<usize>(),
            100
        );
        for (hw, chunks) in [(1, 1), (2, 1), (6, 1), (7, 2), (12, 4), (56, 4)] {
            assert_eq!(
                RowSplit::new(hw, hw, 4, &plain(0)).chunks.len(),
                chunks,
                "{hw}×{hw}"
            );
        }
        assert_eq!(
            RowSplit::new(7, 7, 1, &plain(0)).chunks.len(),
            1,
            "one plane per M-split"
        );
    }

    /// 12×12 with a border: 196 padded rows in 4 blocks of 49 cut pixel rows
    /// (14 padded rows each) mid-row, and the border must stay zero.
    #[test]
    fn chunks_straddling_block_boundaries_match_reference() {
        let split = RowSplit::new(12, 12, 4, &plain(1));
        assert_eq!(split.rows_per_block, 49);
        let cut = |c: &RowChunk| c.segments.iter().any(|&(_, count)| count < 12);
        assert!(split.chunks.iter().all(cut), "every block cuts a pixel row");
        let covered: u32 = split
            .chunks
            .iter()
            .flat_map(|c| c.segments.iter().chain(&c.border))
            .map(|&(_, count)| count)
            .sum();
        assert_eq!(
            covered, 196,
            "segments and border partition the padded rows"
        );
        run_conv_case(Case {
            out_pad: 1,
            relu: true,
            ..Case::new((12, 12), (16, 16), 3, 1)
        });
    }

    /// Output blocks landing on recycled SRAM get their border cleared — with
    /// their ports idle, in the window before the chain's first row lands:
    /// on every slice the last border `Write` precedes the first data `Write`.
    #[test]
    fn border_is_zero_on_recycled_sram() {
        let case = Case {
            out_pad: 1,
            ..Case::new((12, 12), (16, 16), 3, 1)
        };
        // The output's hemisphere only: the host-written input's border
        // relies on the fresh SRAM a network input is always allocated in.
        let ran = run_conv_case_on(case, |s, chip| dirty_sram(s, chip, &[Hemisphere::West], 64));
        let writes = ran.border_and_data_writes();
        assert_eq!(writes.len(), 4 * 2, "four blocks in two replicas");
        for (last_border, first_data) in writes {
            assert!(last_border > 0, "a dirty block's border is cleared");
            assert!(
                last_border < first_data,
                "border cleared at {last_border}, data from {first_data}"
            );
        }
        // On fresh SRAM nothing is cleared at all.
        let ran = run_conv_case_on(case, |_, _| {});
        assert!(ran.border_and_data_writes().iter().all(|w| w.0 == 0));
    }

    /// The clear has a deadline: with every port of the output's hemisphere
    /// held until the cycle the chain's first row is due, no burst of zeros
    /// can end by then — the block takes its data first and is cleared after
    /// (held one cycle less, one zero short, the same). Rows 2–9 of a 12-row
    /// block are data.
    #[test]
    fn border_clear_past_its_deadline_runs_after_the_data() {
        use crate::kernels::matmul::{schedule_plane_chain, Pass};
        use tsp_isa::D_VXM;
        for held in [None, Some(0), Some(1)] {
            let mut s = Scheduler::new();
            let mut chip = Chip::new(ChipConfig::asic());
            dirty_sram(&mut s, &mut chip, &[Hemisphere::West], 64);
            let x = (s.alloc)
                .alloc_in(Some(Hemisphere::East), 8, 16, BankPolicy::High, 4096)
                .unwrap();
            let identity = |m: u32, row: &mut Vector| row.set_lane(m as usize, 1);
            let w = s.add_constant_in(
                None,
                &[],
                (320, 16),
                lw_rows(identity, 16),
                BankPolicy::Low,
                20,
            );
            let rows: Vec<u32> = (0..8).collect();
            let pass = Pass {
                weights: &w,
                acts: &x,
                rows: &rows,
            };
            let source = schedule_plane_chain(&mut s, Plane::new(0), &[pass], 0);
            // Requantize only: the rows leave the VXM one stage later.
            let t_out = source.t_at_vxm + D_VXM;
            for sl in (0..tsp_arch::MEM_SLICES_PER_HEMISPHERE).filter(|_| held.is_some()) {
                s.occupy_mem(Hemisphere::West, sl, t_out - held.unwrap_or(0));
            }
            let spec = OutSpec {
                rows_total: 12,
                cols: 16,
                segments: vec![(2, 8)],
                border: vec![(0, 2), (10, 2)],
                hemisphere: Hemisphere::West,
                policy: BankPolicy::High,
                replicas: 2,
                max_block: 12,
                avoid: Vec::new(),
            };
            let (reps, _) = schedule_requant_write(&mut s, source, 8, 0, false, None, &spec)
                .expect("ports free by the write");
            let constants = s.take_constants();
            let program = s.into_program().expect("valid schedule");
            for (handle, rows) in &constants {
                for (r, v) in rows {
                    chip.memory.write(handle.row(*r), v.clone());
                }
            }
            for r in 0..8 {
                chip.memory.write(x.row(r), Vector::splat(r as u8 + 1));
            }
            chip.run(&program, &RunOptions::default())
                .expect("clean run");
            for rep in &reps {
                for row in 0..12u32 {
                    let want = if (2..10).contains(&row) { row - 1 } else { 0 };
                    let got = chip.memory.read_unchecked(rep.row(row));
                    assert_eq!(got.lane(0), want as u8, "held {held:?}: row {row}");
                    assert_eq!(got.lane(15), want as u8, "held {held:?}: row {row}");
                }
            }
            let reps: Vec<&TensorHandle> = reps.iter().collect();
            for (last_border, first_data) in border_and_data_writes(&program, &reps, &spec.border) {
                assert!(last_border > 0, "held {held:?}: cleared");
                assert_eq!(
                    last_border < first_data,
                    held.is_none(),
                    "held {held:?}: border cleared at {last_border}, data from {first_data}"
                );
            }
        }
    }

    /// Runs a [`Case::packed`] with producer, shortcut and consumer all on
    /// recycled SRAM — whole blocks of it: the first row of every block of a
    /// lane-replicated map must read as zero in every lane group.
    fn run_packed_case(case: Case) {
        let block = ((case.h + 2).div_ceil(4) + 1) * (case.w + 2);
        run_conv_case_on(case, |s, chip| {
            dirty_sram(s, chip, &Hemisphere::ALL, block.min(4096));
        });
    }

    /// G = 9 (c_in 16), 5 (64), 2 (100 — not a superlane multiple — 128, 160)
    /// and 1 (176: the producer does not replicate, every pass is a `Read`),
    /// at both strides, chains crossing the producer's whole-row blocks (16
    /// padded rows cut 4/4/4/4: every chain has rows whose groups reach into
    /// the next block).
    #[test]
    fn packed_convs_match_reference() {
        for cin in [16, 64, 100, 128, 160, 176] {
            for stride in [1, 2] {
                run_packed_case(Case {
                    relu: stride == 2,
                    ..Case::packed((14, 14), (cin, 64), stride)
                });
            }
        }
        assert_eq!(
            [16, 32, 64, 100, 128, 160, 176].map(|c| taps_per_pass(3, c)),
            [9, 9, 5, 2, 2, 2, 1]
        );
        assert_eq!(
            tap_groups(3, 5),
            [
                vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)],
                vec![(1, 2), (2, 0), (2, 1), (2, 2)]
            ]
        );
        assert_eq!(tap_groups(3, 2).len(), 5);
        assert_eq!(tap_groups(3, 9).len(), 1);
        assert_eq!(tap_groups(3, 1).len(), 9);
    }

    /// All nine taps in one pass (c_in 16 and 32): the group spans three
    /// kernel rows, so a pixel's second feed may hold its last row or its
    /// last two, and — the chain's only pass being its last — that feed runs
    /// every pixel. On a 9×21 map (11 padded rows cut 3/3/3/2) and a 4×4 one
    /// (one chunk, one block: nothing to feed twice).
    #[test]
    fn nine_taps_in_one_pass_match_reference() {
        for cin in [16, 32] {
            for stride in [1, 2] {
                run_packed_case(Case {
                    relu: true,
                    out_pad: 1,
                    ..Case::packed((9, 21), (cin, 24), stride)
                });
            }
            run_packed_case(Case::packed((4, 4), (cin, 24), 1));
        }
    }

    /// Two M-splits (c_out 400) share the planes two chunks each, every chain
    /// with its own replica and map; 7×7 has 9 padded rows in uneven blocks.
    #[test]
    fn packed_conv_with_m_splits_and_uneven_blocks_matches_reference() {
        run_packed_case(Case::packed((7, 7), (64, 400), 1));
        run_packed_case(Case::packed((7, 7), (128, 400), 2));
        run_packed_case(Case::packed((14, 14), (100, 400), 1));
    }

    /// The ResNet stage-2 shape: 58 padded rows cut 15/15/15/13, so the
    /// chains of output rows 14–28 and 29–43 each hold a row whose first group
    /// (taps 00–11) and a row whose second (12–22) straddles two blocks; the
    /// packed conv itself writes lane copies for a packed successor.
    #[test]
    fn packed_56x56_matches_reference() {
        let replicated = MapLayout {
            lane_copies: 5,
            ..plain(1)
        };
        let split = RowSplit::new(56, 56, 4, &replicated);
        assert_eq!(split.rows_per_block, 15 * 58);
        let sizes: Vec<usize> = split.chunks.iter().map(|c| c.pixels.len()).collect();
        assert_eq!(sizes, [14 * 56, 15 * 56, 15 * 56, 12 * 56]);
        run_packed_case(Case {
            out_pad: 1,
            out_copies: 5,
            relu: true,
            ..Case::packed((56, 56), (64, 64), 1)
        });
    }

    /// The ResNet stage-3 shapes, two taps a pass (`{02, 10}` spans two kernel
    /// rows): stride 2 from 56×56 (blocks of 15 padded rows) and stride 1 at
    /// 28×28 (30 padded rows cut 8/8/8/6).
    #[test]
    fn packed_128_channels_match_reference() {
        run_packed_case(Case {
            out_pad: 1,
            relu: true,
            ..Case::packed((56, 56), (128, 128), 2)
        });
        run_packed_case(Case {
            out_pad: 1,
            out_copies: 2,
            ..Case::packed((28, 28), (128, 128), 1)
        });
    }

    /// What a chain streams through a group of two taps a padded row apart
    /// (rows `r` and `r + 10`, blocks of 20 rows): nothing twice when no pixel
    /// straddles — the second feed is absent, not empty — else a second feed
    /// through the last straddler, the dropped tap on the block's first row.
    #[test]
    fn second_feeds_cover_the_straddlers_only() {
        let taps = |bases: &[u32]| -> Vec<Vec<u32>> {
            vec![bases.to_vec(), bases.iter().map(|r| r + 10).collect()]
        };
        let pixels = [0, 1, 2, 3];
        let mut vectors = GatherVectors::default();
        assert_eq!(
            vectors.feeds(&pixels, &taps(&[1, 2, 3, 4]), 20, (true, false)),
            [[0, 1, 2, 3]]
        );
        // Pixels 1 and 2 straddle, and stream first.
        let mut vectors = GatherVectors::default();
        let feeds = vectors.feeds(&pixels, &taps(&[12, 13, 3, 4]), 20, (true, false));
        assert_eq!(feeds, [vec![0, 1, 2, 3], vec![4, 5]]);
        assert_eq!(vectors.rows[0], [12, 0], "first feed: tap 1 dropped");
        assert_eq!(vectors.rows[4], [20, 22], "second feed: tap 0 dropped");
        // The chain's last pass emits the result with its full feed.
        let mut vectors = GatherVectors::default();
        let feeds = vectors.feeds(&pixels, &taps(&[12, 13, 3, 4]), 20, (false, true));
        assert_eq!(feeds, [vec![4, 5], vec![0, 1, 2, 3]]);
        // As the chain's only pass the second feed emits it: it runs every
        // pixel, the others on the zero row alone.
        let mut vectors = GatherVectors::default();
        let feeds = vectors.feeds(&pixels, &taps(&[12, 13, 3, 4]), 20, (true, true));
        assert_eq!(feeds, [vec![0, 1, 2, 3], vec![4, 5, 6, 6]]);
        assert_eq!(vectors.rows[6], [20, 20]);
    }

    /// A lane-skewed input (pixel `x` at lane group `x mod G`, as a
    /// lane-packed max pool writes it) is absorbed by weights repeated at
    /// every group: 1×1 and 3×3 with a border, strided, `G` = 5, 2 and 20,
    /// and a skewed input feeding a lane-replicating producer.
    #[test]
    fn skewed_inputs_match_reference() {
        for (cin, skew) in [(64, 5), (100, 2), (12, 20)] {
            for (k, stride) in [(1, 1), (3, 1), (3, 2)] {
                run_conv_case(Case {
                    in_skew: skew,
                    relu: true,
                    ..Case::new((9, 21), (cin, 24), k, stride)
                });
            }
        }
        run_conv_case(Case {
            in_skew: 5,
            ..Case::packed((14, 14), (64, 64), 1)
        });
    }

    /// Producer and consumer both on recycled SRAM: the lane-replicated
    /// border must read as zero in every lane group.
    #[test]
    fn packed_conv_on_recycled_sram_matches_reference() {
        run_packed_case(Case::packed((14, 14), (64, 64), 1));
        run_packed_case(Case::packed((7, 7), (128, 64), 2));
    }

    /// conv + shortcut + ReLU in one chain, written to the shortcut's own
    /// hemisphere and to the other: uneven blocks (28/28/28/26 rows) and, with
    /// a border, blocks cutting pixel rows whose border must stay zero.
    #[test]
    fn residual_tail_matches_reference_in_either_hemisphere() {
        for out in Hemisphere::ALL {
            run_conv_case(Case {
                residual: Some(out),
                relu: true,
                ..Case::new((10, 11), (8, 5), 3, 1)
            });
            run_conv_case(Case {
                residual: Some(out),
                relu: true,
                out_pad: 1,
                ..Case::new((12, 12), (16, 16), 3, 1)
            });
        }
    }

    /// Without ReLU the chain ends at the saturating add. This is also the
    /// one case in the workspace whose first attempt finds no write port:
    /// it keeps `Scheduler::retry_later`'s rollback covered — of a border
    /// clear as well.
    #[test]
    fn residual_tail_without_relu_matches_reference() {
        let rollbacks = run_conv_case(Case {
            residual: Some(Hemisphere::West),
            ..Case::new((12, 12), (16, 16), 1, 1)
        });
        assert_eq!(rollbacks, 1);
        // The same onto recycled SRAM, with a border: what the first attempt
        // cleared is rolled back with it — the zero row it allocated too —
        // and the second clears the blocks it lands on, ahead of their data.
        let dirty = |s: &mut Scheduler, chip: &mut Chip| dirty_sram(s, chip, &Hemisphere::ALL, 64);
        let case = Case {
            residual: Some(Hemisphere::West),
            out_pad: 1,
            ..Case::new((12, 12), (16, 16), 1, 1)
        };
        let ran = run_conv_case_on(case, dirty);
        assert_eq!(ran.rollbacks, 1);
        for (last_border, first_data) in ran.border_and_data_writes() {
            assert!(0 < last_border && last_border < first_data);
        }
    }

    /// 512 → 512, 3×3 on 7×7 (the ResNet stage-5 `_b`): two M-splits of two
    /// chunks each, M-split `m`'s chains on planes `2m` and `2m + 1`. All 18
    /// blocks of an M-split (nine taps × two K-splits) sit stacked on sixteen
    /// inner slices of those planes' hemisphere, off the input's — and where
    /// the inner Low banks are full the cursor takes them elsewhere, to the
    /// same result.
    #[test]
    fn m_split_weights_sit_by_the_planes_that_install_them() {
        use crate::alloc::LOW_INNER_SLICES;
        let case = Case::new((7, 7), (512, 512), 3, 1);
        let homes = |ran: &Ran| -> Vec<Vec<(Hemisphere, u8)>> {
            (0..2)
                .map(|m| {
                    let blocks = ran
                        .weights
                        .passes
                        .iter()
                        .flatten()
                        .map(|mparts| &mparts[m][0]);
                    let mut slices: Vec<_> = blocks.flat_map(|t| t.layout.slices()).collect();
                    slices.sort_unstable();
                    slices.dedup();
                    slices
                })
                .collect()
        };
        let ran = run_conv_case_on(case, |_, _| {});
        assert_eq!(ran.out.parts[0][0].layout.blocks.len(), 2, "two chunks");
        for (m, slices) in homes(&ran).iter().enumerate() {
            let home = chain_plane(2, m, 0).hemisphere();
            assert_eq!(home, chain_plane(2, m, 1).hemisphere());
            assert_eq!(slices.len(), 16, "M-split {m}: one stack");
            for &(h, sl) in slices {
                assert_eq!(h, home, "M-split {m} feeds the {home:?} MXM");
                assert!(sl < LOW_INNER_SLICES && !ran.input_slices.contains(&(h, sl)));
            }
        }
        // Every inner Low bank taken: nothing goes home.
        let ran = run_conv_case_on(case, |s, _| {
            for h in Hemisphere::ALL {
                for _ in 0..LOW_INNER_SLICES {
                    let bank = s.alloc.alloc_in(Some(h), 4096, 320, BankPolicy::Low, 4096);
                    assert!(bank
                        .unwrap()
                        .layout
                        .slices()
                        .all(|(_, sl)| sl < LOW_INNER_SLICES));
                }
            }
        });
        let spilled = homes(&ran);
        assert!(spilled
            .iter()
            .flatten()
            .all(|&(_, sl)| sl >= LOW_INNER_SLICES));
    }

    /// c_out = 2048: seven M-splits, so two waves of chains (4 + 3), each
    /// chain adding its own part of the shortcut; 400 → 400 has two M-splits
    /// of two chunks each.
    #[test]
    fn residual_tail_across_m_splits_matches_reference() {
        run_conv_case(Case {
            residual: Some(Hemisphere::West),
            relu: true,
            ..Case::new((7, 7), (64, 2048), 1, 1)
        });
        run_conv_case(Case {
            residual: Some(Hemisphere::East),
            relu: true,
            ..Case::new((7, 7), (400, 400), 3, 1)
        });
    }

    /// A K-packed host: its gather maps keep off the shortcut too, and the
    /// shortcut's rows follow the chain's — straddlers first.
    #[test]
    fn residual_tail_of_a_packed_conv_matches_reference() {
        for out in Hemisphere::ALL {
            run_packed_case(Case {
                residual: Some(out),
                relu: true,
                ..Case::packed((14, 14), (64, 64), 1)
            });
        }
        run_packed_case(Case {
            residual: Some(Hemisphere::West),
            relu: true,
            out_pad: 1,
            ..Case::packed((28, 28), (128, 64), 1)
        });
    }

    /// Shortcut and output on recycled SRAM (not the host-written input, see
    /// [`border_is_zero_on_recycled_sram`]): the fused output's border reads
    /// as zero.
    #[test]
    fn residual_tail_on_recycled_sram_matches_reference() {
        let west =
            |s: &mut Scheduler, chip: &mut Chip| dirty_sram(s, chip, &[Hemisphere::West], 64);
        let case = Case {
            residual: Some(Hemisphere::West),
            relu: true,
            out_pad: 1,
            ..Case::new((12, 12), (16, 16), 3, 1)
        };
        run_conv_case_on(case, west);
    }

    #[test]
    fn border_segments_complement_the_interior() {
        let fm = FeatureMap::new((3, 4, 8), plain(1), Vec::new());
        assert_eq!(fm.border_segments(), [(0, 7), (11, 2), (17, 2), (23, 7)]);
        let rows = |segs: Vec<(u32, u32)>| segs.iter().map(|&(_, n)| n).sum::<u32>();
        assert_eq!(
            rows(fm.border_segments()) + rows(fm.interior_segments()),
            fm.rows_total()
        );
    }
}
