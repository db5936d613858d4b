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
//! **Row split.** The output pixels are dealt to the `4 / mparts` planes an
//! M-split owns ([`RowSplit`]): each plane runs *all* `k²·kparts` passes over
//! its own share of the rows — reading its own input replica, the two planes
//! of a hemisphere tapping one weight stream — keeps the full sum in its own
//! accumulators and goes straight through requantize/ReLU into **its own
//! block** of a block-chunked output tensor (the paper's "four simultaneous
//! conv2d" regime; no partial sum ever leaves the MXM). [`conv_passes`] is
//! that lowering; [`conv2d`] feeds it shifted rows of a feature map, and the
//! first-layer im2col path of `tsp-nn` feeds it host-prepared patch rows.
//!
//! Each output block is allocated **after** its chain's write time is known,
//! on slices whose ports are free by then (see
//! [`Scheduler::try_alloc_for_write`]): stream-dictated writes can then never
//! collide with already-scheduled bursts.

use tsp_arch::{Hemisphere, Vector, MEM_SLICES_PER_HEMISPHERE};
use tsp_isa::Plane;

use crate::alloc::BankPolicy;
use crate::kernels::matmul::{
    schedule_requant_write, stream_weights, DstSegments, OutOfPorts, OutSpec, PlaneChainBuilder,
};
use crate::sched::Scheduler;
use crate::tensor::TensorHandle;

/// A feature map: `h×w` pixels of `c` channels, stored row-major over a
/// materialized padding border of `pad` pixels. Channels are split into
/// ≤320-wide parts; each part may have several replicas for concurrent
/// streaming.
#[derive(Debug, Clone)]
pub struct FeatureMap {
    /// Height in (unpadded) pixels.
    pub h: u32,
    /// Width in (unpadded) pixels.
    pub w: u32,
    /// Channels.
    pub c: u32,
    /// Materialized border width in pixels.
    pub pad: u32,
    /// `parts[kpart][replica]`: tensors of `(h+2pad)·(w+2pad)` rows.
    pub parts: Vec<Vec<TensorHandle>>,
}

impl FeatureMap {
    /// Padded width.
    #[must_use]
    pub fn pw(&self) -> u32 {
        self.w + 2 * self.pad
    }

    /// Padded height.
    #[must_use]
    pub fn ph(&self) -> u32 {
        self.h + 2 * self.pad
    }

    /// Total stored rows per part (padded pixels).
    #[must_use]
    pub fn rows_total(&self) -> u32 {
        self.ph() * self.pw()
    }

    /// Row index of (unpadded) pixel `(y, x)`.
    #[must_use]
    pub fn row_index(&self, y: u32, x: u32) -> u32 {
        (y + self.pad) * self.pw() + (x + self.pad)
    }

    /// Number of channel parts.
    #[must_use]
    pub fn kparts(&self) -> usize {
        self.parts.len()
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
        if self.pad == 0 {
            return Vec::new();
        }
        // Top rows run on into the first pixel row's left border; each pixel
        // row's right border runs on into the next one's left border.
        let edge = self.pad * self.pw() + self.pad;
        let mut runs = vec![(0, edge)];
        runs.extend((1..self.h).map(|y| (self.row_index(y, 0) - 2 * self.pad, 2 * self.pad)));
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
        assert!(
            logical_pad <= self.pad,
            "conv needs pad {logical_pad} but only {} materialized",
            self.pad
        );
        let shift = self.pad - logical_pad;
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

/// Convolution weights: one LW-order handle per (offset, kpart, mpart),
/// with optional replicas.
#[derive(Debug, Clone)]
pub struct ConvWeights {
    /// Kernel size `k` (k×k window).
    pub kernel: u32,
    /// Input channels.
    pub c_in: u32,
    /// Output channels.
    pub c_out: u32,
    /// `passes[offset][kpart][mpart][replica]`; offsets ordered `dy·k + dx`.
    pub passes: Vec<Vec<Vec<Vec<TensorHandle>>>>,
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

/// How an `oh×ow` output with a materialized border is dealt to plane chains:
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
    /// [`MIN_CHUNK_ROWS`] pixels on average, none without pixels (a block of
    /// nothing but border), and no block over one SRAM bank.
    ///
    /// # Panics
    ///
    /// Panics if those limits cannot all hold (a map thousands of pixels wide
    /// and one or two high).
    #[must_use]
    pub fn new(oh: u32, ow: u32, out_pad: u32, planes: usize) -> RowSplit {
        let pw = ow + 2 * out_pad;
        let rows_total = (oh + 2 * out_pad) * pw;
        let inside = |v: u32, len: u32| (out_pad..out_pad + len).contains(&v);
        let mut want = (oh * ow / MIN_CHUNK_ROWS).clamp(1, planes as u32);
        loop {
            let rows_per_block = rows_total.div_ceil(want.max(rows_total.div_ceil(4096)));
            let blocks = rows_total.div_ceil(rows_per_block);
            let mut chunks = vec![RowChunk::default(); blocks as usize];
            for row in 0..rows_total {
                let chunk = &mut chunks[(row / rows_per_block) as usize];
                let (y, x, local) = (row / pw, row % pw, row % rows_per_block);
                let runs = if inside(y, oh) && inside(x, ow) {
                    chunk.pixels.push((y - out_pad) * ow + x - out_pad);
                    &mut chunk.segments
                } else {
                    &mut chunk.border
                };
                match runs.last_mut() {
                    Some((first, count)) if *first + *count == local => *count += 1,
                    _ => runs.push((local, 1)),
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
}

/// One accumulate-pass of one chunk, as [`conv_passes`] asks for it.
#[derive(Debug)]
pub struct ChunkPass<'a> {
    /// 320-row LW-order weight handle.
    pub weights: &'a TensorHandle,
    /// Activation tensor the chunk's chain reads (its own replica).
    pub acts: &'a TensorHandle,
    /// Rows of `acts` streamed through the array, one per chunk pixel.
    pub rows: Vec<u32>,
}

/// The row-split conv lowering: one plane chain per (M-split, chunk of
/// `split`) runs `passes` accumulate-passes (described by
/// `pass(mpart, pass, chunk)`) and requantizes into its own output block; the
/// chains run four at a time, one per plane. Returns the `oh×ow×c_out` output
/// map and the completion cycle.
///
/// # Panics
///
/// Panics if no output ports can be found even on a drained chip.
pub fn conv_passes<'a>(
    s: &mut Scheduler,
    (oh, ow, c_out): (u32, u32, u32),
    split: &RowSplit,
    passes: usize,
    pass: &dyn Fn(usize, usize, usize) -> ChunkPass<'a>,
    params: &Conv2dParams,
) -> (FeatureMap, u64) {
    let replicas = usize::from(params.out_replicas.max(1));
    let rows_total = (oh + 2 * params.out_pad) * (ow + 2 * params.out_pad);
    let need = (replicas * split.chunks.len()) as f64 / f64::from(MEM_SLICES_PER_HEMISPHERE);
    // Escalation ladder: no port floor at first (the writes come a whole
    // chain after the start), then floors by which enough of the output
    // hemisphere's ports are free, then absolute floors derived from the
    // failing write time (tight stream pools need the whole conv pushed past
    // the congestion, not just past the ports).
    let mut abs_floor = 0u64;
    let mut result = None;
    for try_idx in 0usize..8 {
        let quantile = [0.0, need.min(1.0), 0.9, 1.0][try_idx.min(3)];
        let snap = s.snapshot();
        let floor = params
            .not_before
            .max(s.port_quantile(params.out_hemisphere, quantile))
            .max(abs_floor);
        match schedule_chains(s, c_out, split, passes, pass, params, floor) {
            Ok(r) => {
                result = Some(r);
                break;
            }
            Err(e) => {
                abs_floor = abs_floor.max(e.t_write + (256u64 << try_idx.min(4)));
                s.restore(&snap);
            }
        }
    }
    let (blocks, done) = result.unwrap_or_else(|| {
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
    let out = FeatureMap {
        h: oh,
        w: ow,
        c: c_out,
        pad: params.out_pad,
        parts: blocks
            .iter()
            .map(|part| (0..replicas).map(|r| concat(part, r)).collect())
            .collect(),
    };
    (out, done)
}

/// One M-split's output blocks, `[chunk][replica]`.
type OutBlocks = Vec<Vec<TensorHandle>>;

/// One attempt at [`conv_passes`]: returns every M-split's output blocks and
/// the completion cycle.
fn schedule_chains<'a>(
    s: &mut Scheduler,
    c_out: u32,
    split: &RowSplit,
    passes: usize,
    pass: &dyn Fn(usize, usize, usize) -> ChunkPass<'a>,
    params: &Conv2dParams,
    floor: u64,
) -> Result<(Vec<OutBlocks>, u64), OutOfPorts> {
    let mparts = c_out.div_ceil(320) as usize;
    // Per M-split, blocks and replicas stay slice-disjoint: chains write, and
    // consumers later read, all of them concurrently.
    let mut specs: Vec<OutSpec> = (0..mparts)
        .map(|mpart| OutSpec {
            rows_total: split.rows_per_block,
            cols: (c_out - mpart as u32 * 320).min(320) as u16,
            segments: Vec::new(),
            hemisphere: params.out_hemisphere,
            policy: BankPolicy::High,
            replicas: params.out_replicas,
            max_block: split.rows_per_block,
            avoid: Vec::new(),
        })
        .collect();
    let mut blocks = vec![vec![Vec::new(); split.chunks.len()]; mparts];
    let mut done = floor;
    // Every (M-split, chunk) is a chain; a wave fills the planes.
    let chains: Vec<(usize, usize)> = (0..mparts)
        .flat_map(|mpart| (0..split.chunks.len()).map(move |ci| (mpart, ci)))
        .collect();
    for wave in chains.chunks(usize::from(Plane::COUNT)) {
        // Schedule the wave's chains INTERLEAVED, pass by pass, so they run
        // plane-parallel: MEM ports and streams are reserved in time order.
        let mut builders: Vec<PlaneChainBuilder> = wave
            .iter()
            .enumerate()
            .map(|(i, &(_, ci))| {
                let n = split.chunks[ci].pixels.len() as u64;
                PlaneChainBuilder::new(s, Plane::new(i as u8), n, floor)
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
                for (builder, job) in builders[i..j].iter_mut().zip(&jobs[i..j]) {
                    builder.add_pass(s, feed, job.acts, &job.rows);
                }
                i = j;
            }
        }
        for (builder, &(mpart, ci)) in builders.into_iter().zip(wave) {
            let (chunk, spec) = (&split.chunks[ci], &mut specs[mpart]);
            spec.segments.clone_from(&chunk.segments);
            let n = chunk.pixels.len() as u64;
            let (reps, end) = schedule_requant_write(
                s,
                builder.finish(),
                n,
                params.requant_shift,
                params.relu,
                spec,
            )?;
            spec.avoid
                .extend(reps.iter().flat_map(|t| t.layout.slices()));
            blocks[mpart][ci] = reps;
            done = done.max(end);
        }
    }
    // The padding border is never written by the chains: on recycled SRAM it
    // still holds a previous tenant's data and must be cleared.
    let borders: Vec<(&TensorHandle, &[(u32, u32)])> = blocks
        .iter()
        .flat_map(|part| part.iter().zip(&split.chunks))
        .flat_map(|(reps, chunk)| reps.iter().map(|t| (t, chunk.border.as_slice())))
        .collect();
    done = done.max(s.zero_stale(&borders));
    Ok((blocks, done))
}

/// Schedules a 2-D convolution, returning the output feature map and the
/// completion cycle.
///
/// # Panics
///
/// Panics on inconsistent shapes or insufficient materialized padding.
pub fn conv2d(
    s: &mut Scheduler,
    input: &FeatureMap,
    weights: &ConvWeights,
    params: &Conv2dParams,
) -> (FeatureMap, u64) {
    let k = weights.kernel;
    assert_eq!(weights.passes.len(), (k * k) as usize, "offset count");
    assert_eq!(input.c, weights.c_in, "channel mismatch");
    let oh = (input.h + 2 * params.pad - k) / params.stride + 1;
    let ow = (input.w + 2 * params.pad - k) / params.stride + 1;
    let kparts = input.kparts();
    let mparts = weights.c_out.div_ceil(320) as usize;
    let planes = (4 / mparts).max(1);
    let split = RowSplit::new(oh, ow, params.out_pad, planes);

    // Row sequences per offset (shared across kparts, mparts and chunks).
    let offset_rows: Vec<Vec<u32>> = (0..k)
        .flat_map(|dy| (0..k).map(move |dx| (dy, dx)))
        .map(|(dy, dx)| input.offset_rows(oh, ow, params.stride, dy, dx, params.pad))
        .collect();
    // Pass p is (offset, kpart) = (p / kparts, p % kparts); every chain of
    // the conv (chunk `ci` of M-split `mpart`) reads its own input replica.
    let pass = |mpart: usize, p: usize, ci: usize| {
        let (o, kp) = (p / kparts, p % kparts);
        let (wreps, areps) = (&weights.passes[o][kp][mpart], &input.parts[kp]);
        ChunkPass {
            weights: &wreps[ci % wreps.len()],
            acts: &areps[(mpart * split.chunks.len() + ci) % areps.len()],
            rows: split.chunks[ci]
                .pixels
                .iter()
                .map(|&px| offset_rows[o][px as usize])
                .collect(),
        }
    };
    let passes = (k * k) as usize * kparts;
    conv_passes(s, (oh, ow, weights.c_out), &split, passes, &pass, params)
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
    let kparts = c.div_ceil(320) as usize;
    let mut avoid: Vec<(Hemisphere, u8)> = Vec::new();
    FeatureMap {
        h,
        w,
        c,
        pad,
        parts: (0..kparts)
            .map(|kp| {
                let cols = (c - kp as u32 * 320).min(320) as u16;
                (0..replicas.max(1))
                    .map(|_| {
                        let t = s
                            .alloc
                            .alloc_avoiding(
                                Some(hemisphere),
                                (h + 2 * pad) * (w + 2 * pad),
                                cols,
                                BankPolicy::High,
                                4096,
                                &avoid,
                            )
                            .expect("SRAM exhausted for input feature map");
                        avoid.extend(t.layout.slices());
                        t
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Serializes a conv weight tensor `w[c_out][c_in][k][k]` (as nested vecs)
/// into the per-(offset, kpart, mpart) LW-order constant handles.
///
/// # Panics
///
/// Panics on inconsistent nesting.
pub fn emplace_conv_weights(
    s: &mut Scheduler,
    w: &[Vec<Vec<Vec<i8>>>],
    replicas: u8,
) -> ConvWeights {
    let c_out = w.len() as u32;
    let c_in = w[0].len() as u32;
    let k = w[0][0].len() as u32;
    let kparts = c_in.div_ceil(320) as usize;
    let mparts = c_out.div_ceil(320) as usize;
    let mut passes = Vec::with_capacity((k * k) as usize);
    for dy in 0..k {
        for dx in 0..k {
            let mut per_kpart = Vec::with_capacity(kparts);
            for kp in 0..kparts {
                let kcols = (c_in - kp as u32 * 320).min(320);
                let mut per_mpart = Vec::with_capacity(mparts);
                for mp in 0..mparts {
                    let mrows = (c_out - mp as u32 * 320).min(320);
                    // LW order: handle row j*20 + r = array row 16r + j.
                    let mut rows = Vec::with_capacity(320);
                    for j in 0..16u32 {
                        for r in 0..20u32 {
                            let m = 16 * r + j; // output channel within mpart
                            let mut v = Vector::ZERO;
                            if m < mrows {
                                let co = (mp as u32 * 320 + m) as usize;
                                for lane in 0..kcols {
                                    let ci = (kp as u32 * 320 + lane) as usize;
                                    v.set_lane(
                                        lane as usize,
                                        w[co][ci][dy as usize][dx as usize] as u8,
                                    );
                                }
                            }
                            rows.push(v);
                        }
                    }
                    let reps: Vec<TensorHandle> = (0..replicas.max(1))
                        .map(|_| s.add_constant(rows.clone(), kcols as u16, BankPolicy::Low, 20))
                        .collect();
                    per_mpart.push(reps);
                }
                per_kpart.push(per_mpart);
            }
            passes.push(per_kpart);
        }
    }
    ConvWeights {
        kernel: k,
        c_in,
        c_out,
        passes,
    }
}

#[cfg(test)]
// Index loops mirror the paper's math in these reference checks.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
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
            }
        }
    }

    /// Realistic requantization for full-range int8 data.
    const SHIFT: i8 = 11;

    /// Writes `x[y][x][c]` into every replica of every channel part.
    fn fill_input(chip: &mut Chip, input: &FeatureMap, x: &[Vec<Vec<i8>>]) {
        for (kp, reps) in input.parts.iter().enumerate() {
            for rep in reps {
                for (y, line) in x.iter().enumerate() {
                    for (xp, px) in line.iter().enumerate() {
                        let mut v = Vector::ZERO;
                        for (lane, &val) in px.iter().skip(kp * 320).take(320).enumerate() {
                            v.set_lane(lane, val as u8);
                        }
                        chip.memory
                            .write(rep.row(input.row_index(y as u32, xp as u32)), v);
                    }
                }
            }
        }
    }

    /// Compiles and runs `case` on a scheduler prepared by `prepare` (which
    /// may pre-dirty SRAM), then checks every channel of every output replica
    /// — interior against the reference, border against zero.
    fn run_conv_case_on(case: Case, prepare: impl FnOnce(&mut Scheduler, &mut Chip)) {
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
        let x_data: Vec<Vec<Vec<i8>>> = (0..h)
            .map(|_| (0..w).map(|_| (0..cin).map(|_| next()).collect()).collect())
            .collect();
        let w_data: Vec<Vec<Vec<Vec<i8>>>> = (0..cout)
            .map(|_| {
                (0..cin)
                    .map(|_| (0..k).map(|_| (0..k).map(|_| next()).collect()).collect())
                    .collect()
            })
            .collect();

        let input = alloc_feature_map(&mut s, h, w, cin, case.pad, Hemisphere::East, 4);
        let weights = emplace_conv_weights(&mut s, &w_data, 1);
        let params = Conv2dParams {
            stride: case.stride,
            pad: case.pad,
            requant_shift: SHIFT,
            relu: case.relu,
            out_pad: case.out_pad,
            out_hemisphere: Hemisphere::West,
            out_replicas: 2,
            ..Conv2dParams::default()
        };
        let (out, _) = conv2d(&mut s, &input, &weights, &params);

        let constants = s.take_constants();
        let program = s.into_program().expect("valid schedule");
        for (handle, rows) in &constants {
            for (r, v) in rows.iter().enumerate() {
                chip.memory.write(handle.row(r as u32), v.clone());
            }
        }
        fill_input(&mut chip, &input, &x_data);
        chip.run(&program, &RunOptions::default())
            .expect("clean run");

        let expect = reference_conv(&x_data, &w_data, case.stride, case.pad, SHIFT, case.relu);
        assert_eq!(out.kparts(), cout.div_ceil(320) as usize);
        for (mp, reps) in out.parts.iter().enumerate() {
            assert_eq!(reps.len(), 2, "replicas");
            for rep in reps {
                for row in 0..out.rows_total() {
                    let got = chip.memory.read_unchecked(rep.row(row));
                    let (py, px) = (row / out.pw(), row % out.pw());
                    let inside = |v: u32, len: u32| (out.pad..out.pad + len).contains(&v);
                    for lane in 0..usize::from(rep.cols) {
                        let want = if inside(py, out.h) && inside(px, out.w) {
                            expect[(py - out.pad) as usize][(px - out.pad) as usize]
                                [mp * 320 + lane]
                        } else {
                            0
                        };
                        assert_eq!(
                            got.lane(lane) as i8,
                            want,
                            "row {row} ch {}",
                            mp * 320 + lane
                        );
                    }
                }
            }
        }
    }

    fn run_conv_case(case: Case) {
        run_conv_case_on(case, |_, _| {});
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
        let split = RowSplit::new(10, 11, 0, 4);
        let sizes: Vec<usize> = split.chunks.iter().map(|c| c.pixels.len()).collect();
        assert_eq!(sizes, [28, 28, 28, 26]);
        run_conv_case(Case::new((10, 11), (8, 5), 3, 1));
    }

    /// A 1×100 map with a border would put nothing but border in the first of
    /// four blocks; the split backs off until every chunk has pixels, and
    /// tiny maps are never split at all.
    #[test]
    fn row_split_never_makes_an_empty_or_install_bound_chunk() {
        let wide = RowSplit::new(1, 100, 1, 4);
        assert!(wide.chunks.len() < 4);
        assert!(wide.chunks.iter().all(|c| !c.pixels.is_empty()));
        assert_eq!(
            wide.chunks.iter().map(|c| c.pixels.len()).sum::<usize>(),
            100
        );
        for (hw, chunks) in [(1, 1), (2, 1), (6, 1), (7, 2), (12, 4), (56, 4)] {
            assert_eq!(
                RowSplit::new(hw, hw, 0, 4).chunks.len(),
                chunks,
                "{hw}×{hw}"
            );
        }
        assert_eq!(
            RowSplit::new(7, 7, 0, 1).chunks.len(),
            1,
            "one plane per M-split"
        );
    }

    /// 12×12 with a border: 196 padded rows in 4 blocks of 49 cut pixel rows
    /// (14 padded rows each) mid-row, and the border must stay zero.
    #[test]
    fn chunks_straddling_block_boundaries_match_reference() {
        let split = RowSplit::new(12, 12, 1, 4);
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

    /// Output blocks landing on recycled SRAM get their border cleared.
    #[test]
    fn border_is_zero_on_recycled_sram() {
        let case = Case {
            out_pad: 1,
            ..Case::new((12, 12), (16, 16), 3, 1)
        };
        run_conv_case_on(case, |s, chip| {
            // Dirty the bottom of every High bank of the output hemisphere.
            let stale: Vec<TensorHandle> = (0..MEM_SLICES_PER_HEMISPHERE)
                .map(|sl| {
                    let others: Vec<(Hemisphere, u8)> = (0..MEM_SLICES_PER_HEMISPHERE)
                        .filter(|&o| o != sl)
                        .map(|o| (Hemisphere::West, o))
                        .collect();
                    let hem = Some(Hemisphere::West);
                    s.alloc
                        .alloc_avoiding(hem, 64, 320, BankPolicy::High, 64, &others)
                        .unwrap()
                })
                .collect();
            for t in &stale {
                for r in 0..t.rows {
                    chip.memory.write(t.row(r), Vector::splat(0x55));
                }
                s.alloc.free(t);
            }
        });
    }

    #[test]
    fn border_segments_complement_the_interior() {
        let fm = FeatureMap {
            h: 3,
            w: 4,
            c: 8,
            pad: 1,
            parts: Vec::new(),
        };
        assert_eq!(fm.border_segments(), [(0, 7), (11, 2), (17, 2), (23, 7)]);
        let rows = |segs: Vec<(u32, u32)>| segs.iter().map(|&(_, n)| n).sum::<u32>();
        assert_eq!(
            rows(fm.border_segments()) + rows(fm.interior_segments()),
            fm.rows_total()
        );
    }
}
