//! State and value semantics of one MXM plane (paper §III-D).
//!
//! A plane is a 320×320 array of multiply-accumulate cells. Weights are
//! staged row-group by row-group into a buffer (`LW`), installed atomically
//! (`IW`), then each activation vector streamed in (`ABC`) produces a
//! 320-element dot-product vector that queues for readout (`ACC`). int8
//! multiplies accumulate into int32; fp16 (two byte-planes in tandem)
//! accumulates into fp32 with a single rounding step at readout — we model
//! the fp16 path on a plane pair exactly as the paper describes.
//!
//! ## Host-performance shape (DESIGN.md §9)
//!
//! The int8 data path is the simulator's hottest loop: one activation pass is
//! 102,400 MACs. Two things keep it fast without changing a single
//! architectural value:
//!
//! * **Wave batching.** `ABC` feeds are queued, not computed; the wave is
//!   flushed as one blocked `(k×320)·(320×320)` pass the first time an `ACC`
//!   (or an `IW` reinstall) actually needs a result. Because `ACC` row `i`
//!   reads the feed from [`tsp_isa::mxm::MXM_ARRAY_DELAY`] cycles earlier,
//!   the steady-state flush batches ≈33 feeds, so each widened weight row is
//!   reused across the whole batch. Every queued feed keeps its own cycle
//!   timestamp, so `pending` availability — and therefore every simulated
//!   cycle — is identical to feed-by-feed execution.
//! * **Widening kernels on the nonzero support.** The int8 inner product
//!   runs over `i16`-widened 16-lane chunks accumulating into `i32` —
//!   integer sums reassociate freely, and the fixed-width chunks
//!   autovectorize. A per-install-generation cache restricts the pass to
//!   weight rows with any nonzero element and to the chip-wide nonzero
//!   column ceiling: integer adds of zero are exact no-ops, so skipping them
//!   is bit-invisible (ResNet tiles rarely fill the 320×320 array).
//!
//! The fp16 tandem path has no such machinery — no compiled program runs
//! it, only the tests do. A feed flushes the int8 wave and computes its 320
//! dots at once through both planes' installed weights, each a strict
//! lane-order `f64` accumulation rounded once (float sums do *not*
//! reassociate). Both planes of a tandem pair decode through
//! [`crate::lane`], like every other multi-byte lane.
//!
//! A result is a plain `Vec`, dropped by its last holder: a pool of
//! retired buffers measured within noise beside the stream file's word
//! pool (EXPERIMENTS.md "Host throughput").
//!
//! The scalar oracles these kernels are checked against live in
//! `tests/reference/`, and share nothing with them.

use tsp_arch::{Vector, LANES, LANES_PER_SUPERLANE};
use tsp_isa::DataType;

use crate::lane::{Lane, F16};

/// Result vector produced by one activation pass.
#[derive(Debug, Clone, PartialEq)]
pub enum MxmResult {
    /// 320 int32 dot products.
    Int32(Vec<i32>),
    /// 320 fp32 dot products.
    Fp32(Vec<f32>),
}

/// Widened int8 weights restricted to their nonzero support, valid for one
/// install generation. Zero weight rows contribute exactly zero to every
/// dot product (integer adds of zero are exact no-ops), so the flush skips
/// them outright; likewise columns past the last nonzero one chip-wide.
/// ResNet tiles rarely fill the full 320×320 array, so this trims most of
/// the blocked pass without moving a single architectural bit.
#[derive(Debug, Clone)]
struct I8WeightCache {
    gen: u64,
    /// Rows with at least one nonzero weight, ascending.
    support: Vec<u16>,
    /// Column ceiling: max nonzero column + 1 over all rows, rounded up to a
    /// whole superlane so the chunked kernel stays fixed-width. Zero when the
    /// installed array is entirely zero.
    cols: usize,
    /// `support.len() × cols` row-major widened weights.
    w16: Vec<i16>,
}

/// One 320×320 MACC plane.
#[derive(Debug, Clone)]
pub struct MxmPlane {
    /// Staging buffer filled by `LW` (row-major, `buffer[row][col]`).
    buffer: Vec<[u8; LANES]>,
    /// Installed weight array used by compute.
    installed: Vec<[u8; LANES]>,
    /// Element type of the installed weights.
    dtype: DataType,
    /// Results awaiting `ACC` readout, oldest first, tagged with the cycle
    /// at which the array has finished computing them.
    pending: std::collections::VecDeque<(u64, MxmResult)>,
    /// Queued int8 `ABC` feeds not yet computed: `(feed cycle, activation)`,
    /// oldest first. Every entry is newer than everything in `pending`
    /// (flushes drain the whole wave, and every other feed flushes it
    /// first), so `pending`'s front stays the oldest result overall.
    wave: Vec<(u64, [u8; LANES])>,
    /// Standing accumulators indexed by `ACC` row ordinal.
    acc: Vec<MxmResult>,
    /// Bumped by every `IW`; tags the int8 weight cache.
    install_gen: u64,
    /// Widened int8 weights on their nonzero support.
    i8_cache: Option<I8WeightCache>,
    /// Scratch for the widened activation block, reused across flushes.
    scratch_acts: Vec<i16>,
}

impl MxmPlane {
    /// Creates a plane with zero weights installed.
    #[must_use]
    pub fn new() -> MxmPlane {
        MxmPlane {
            buffer: vec![[0; LANES]; LANES],
            installed: vec![[0; LANES]; LANES],
            dtype: DataType::Int8,
            pending: std::collections::VecDeque::new(),
            wave: Vec::new(),
            acc: Vec::new(),
            install_gen: 0,
            i8_cache: None,
            scratch_acts: Vec::new(),
        }
    }

    /// `LW` one cycle's worth: stores 16 weight rows starting at row
    /// `16 × group` from the 16 stream vectors.
    ///
    /// # Panics
    ///
    /// Panics if `group >= 20` or fewer than 16 vectors are supplied.
    pub fn load_weight_rows(&mut self, group: u8, rows: &[Vector]) {
        assert!(
            u32::from(group) * 16 < LANES as u32,
            "row group out of range"
        );
        assert!(rows.len() >= 16, "LW needs 16 stream vectors");
        for (j, row) in rows.iter().take(16).enumerate() {
            self.buffer[group as usize * 16 + j] = *row.as_bytes();
        }
    }

    /// The start of an `LW` of `groups` cycles: the buffer rows from
    /// `16 × groups` on, which it does not load, read zero at the next `IW`
    /// (a short `LW` stages a block of fewer than 320 output rows; none of
    /// a previous block's rows is left behind).
    pub(crate) fn begin_weight_load(&mut self, groups: u8) {
        let from = (usize::from(groups) * 16).min(LANES);
        self.buffer[from..].fill([0; LANES]);
    }

    /// `IW`: install the staged buffer into the array. Queued feeds are
    /// flushed first — they streamed through the *previous* weights.
    pub fn install(&mut self, dtype: DataType) {
        self.flush_wave();
        self.installed.clone_from(&self.buffer);
        self.dtype = dtype;
        self.install_gen += 1;
    }

    /// The installed weight at `(row, col)` as a raw byte.
    #[must_use]
    pub fn weight(&self, row: usize, col: usize) -> u8 {
        self.installed[row][col]
    }

    /// Element type of the currently installed weights.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// `ABC` one cycle's worth: stream one int8 activation vector through the
    /// installed int8 array, queueing a 320-lane int32 dot-product result that
    /// becomes readable [`tsp_isa::mxm::MXM_ARRAY_DELAY`] cycles after `cycle`.
    ///
    /// The arithmetic is deferred: the feed joins the current wave and is
    /// computed in the next blocked flush (`ACC`, `IW`, or an fp16/zero feed
    /// that must preserve result order). Timestamps are recorded now, so
    /// nothing observable moves.
    pub fn feed_activation_i8(&mut self, cycle: u64, activation: &Vector) {
        self.wave.push((cycle, *activation.as_bytes()));
    }

    /// Timing-only feed: queues a zero result with the same availability as
    /// a real activation pass (used when functional simulation is disabled).
    pub fn feed_zero(&mut self, cycle: u64) {
        self.flush_wave(); // keep `pending` in feed order if modes ever mix
        self.pending.push_back((
            cycle + u64::from(tsp_isa::mxm::MXM_ARRAY_DELAY),
            MxmResult::Int32(vec![0; LANES]),
        ));
    }

    /// Rebuilds the widened int8 weight cache for the current install
    /// generation: nonzero support rows, the chip-wide column ceiling, and
    /// the `i16`-widened weight block the flush kernel runs over.
    fn refresh_i8_cache(&mut self) {
        if matches!(&self.i8_cache, Some(c) if c.gen == self.install_gen) {
            return;
        }
        let mut support = Vec::new();
        let mut max_col = 0usize; // exclusive
        for (r, row) in self.installed.iter().enumerate() {
            if let Some(last) = row.iter().rposition(|&b| b != 0) {
                support.push(r as u16);
                max_col = max_col.max(last + 1);
            }
        }
        let cols = max_col.div_ceil(LANES_PER_SUPERLANE) * LANES_PER_SUPERLANE;
        let mut w16 = Vec::with_capacity(support.len() * cols);
        for &r in &support {
            let row = &self.installed[r as usize];
            w16.extend(row[..cols].iter().map(|&b| i16::from(b as i8)));
        }
        self.i8_cache = Some(I8WeightCache {
            gen: self.install_gen,
            support,
            cols,
            w16,
        });
    }

    /// Flushes every queued int8 feed as one blocked `(k×cols)·(cols×|S|)`
    /// pass over the cached support rows `S`: each widened weight row is
    /// reused across the whole batch, and rows/columns that are all-zero are
    /// never touched (their outputs stay the zeros the buffers start as).
    /// Results enter `pending` in feed order with their original per-feed
    /// availability cycles.
    fn flush_wave(&mut self) {
        if self.wave.is_empty() {
            return;
        }
        self.refresh_i8_cache();
        let cache = self.i8_cache.take().expect("refreshed above");
        let k = self.wave.len();
        let mut outs = vec![vec![0i32; LANES]; k];
        let cols = cache.cols;
        if cols > 0 {
            // Widen the activation block once: k rows × cols i16 lanes.
            self.scratch_acts.clear();
            self.scratch_acts.resize(k * cols, 0);
            for (dst, (_, act)) in self.scratch_acts.chunks_exact_mut(cols).zip(&self.wave) {
                for (d, &s) in dst.iter_mut().zip(act[..cols].iter()) {
                    *d = i16::from(s as i8);
                }
            }
            block_pass_dispatch(
                &cache.support,
                &cache.w16,
                &self.scratch_acts,
                &mut outs,
                cols,
            );
        }
        self.i8_cache = Some(cache);
        for ((cycle, _), out) in self.wave.drain(..).zip(outs) {
            self.pending.push_back((
                cycle + u64::from(tsp_isa::mxm::MXM_ARRAY_DELAY),
                MxmResult::Int32(out),
            ));
        }
    }

    /// `ABC` for the fp16 path: this plane holds the low bytes and `high`
    /// the high bytes of fp16 weights (two byte-planes in tandem); the
    /// activation arrives as a pair of byte-plane vectors. Produces fp32
    /// dot products with a single rounding step (accumulation in f64,
    /// rounded once to f32 — the paper's "only a single rounding step").
    ///
    /// Queued int8 feeds are flushed first, so read-outs stay in feed
    /// order; the dots run now, through both planes' weights as installed
    /// at this feed. Each sums its lanes in strict lane order from `+0.0`
    /// (float sums do not reassociate).
    pub fn feed_activation_fp16(
        &mut self,
        cycle: u64,
        high: &MxmPlane,
        act_lo: &Vector,
        act_hi: &Vector,
    ) {
        self.flush_wave();
        let pair = [act_lo.as_bytes(), act_hi.as_bytes()];
        let acts: [f32; LANES] = std::array::from_fn(|l| F16::load(&pair, l).to_f32());
        let out = self
            .installed
            .iter()
            .zip(&high.installed)
            .map(|(lo, hi)| {
                let pair = [lo, hi];
                let mut sum = 0f64;
                for (l, &a) in acts.iter().enumerate() {
                    sum += f64::from(F16::load(&pair, l).to_f32()) * f64::from(a);
                }
                round_fp16_readout(sum)
            })
            .collect();
        self.pending.push_back((
            cycle + u64::from(tsp_isa::mxm::MXM_ARRAY_DELAY),
            MxmResult::Fp32(out),
        ));
    }

    /// `ACC` one cycle's worth: pop the oldest pending result; either
    /// overwrite or add to the standing accumulator at `ordinal`, returning
    /// the updated accumulator value for emission onto streams.
    ///
    /// Flushes the queued wave first when the computed queue has run dry —
    /// the blocked-execution point of the batching scheme.
    ///
    /// Returns `None` when no result is pending **or the oldest result is not
    /// yet available at `cycle`** (both are scheduling bugs the chip simulator
    /// reports as [`crate::SimError::AccumulatorEmpty`]).
    pub fn accumulate(&mut self, cycle: u64, ordinal: usize, add: bool) -> Option<&MxmResult> {
        if self.pending.is_empty() {
            self.flush_wave();
        }
        if self.pending.front().is_none_or(|(avail, _)| *avail > cycle) {
            return None;
        }
        let (_, fresh) = self.pending.pop_front()?;
        if self.acc.len() <= ordinal {
            self.acc
                .resize(ordinal + 1, MxmResult::Int32(vec![0; LANES]));
        }
        let slot = &mut self.acc[ordinal];
        match (add, &mut *slot, fresh) {
            (true, MxmResult::Int32(acc), MxmResult::Int32(new)) => {
                for (a, n) in acc.iter_mut().zip(new) {
                    *a = a.wrapping_add(n);
                }
            }
            (true, MxmResult::Fp32(acc), MxmResult::Fp32(new)) => {
                for (a, n) in acc.iter_mut().zip(new) {
                    *a += n;
                }
            }
            // An overwrite, or a type change mid-accumulation.
            (_, _, fresh) => *slot = fresh,
        }
        Some(&self.acc[ordinal])
    }

    /// Number of results awaiting readout (computed plus still-queued feeds).
    #[must_use]
    pub fn pending_results(&self) -> usize {
        self.pending.len() + self.wave.len()
    }
}

/// One `(support rows) x (acts)` blocked pass with the column count fixed at
/// monomorphization time: `NC` 16-lane chunks per row. The constant trip
/// count lets LLVM fully unroll the dot-product loop into straight-line
/// `pmaddwd` code — about 3x the throughput of a runtime-width loop, which
/// pays loop control and a branchy epilogue per short dot.
#[inline]
fn block_pass<const NC: usize>(support: &[u16], w16: &[i16], acts: &[i16], outs: &mut [Vec<i32>]) {
    let cols = NC * LANES_PER_SUPERLANE;
    for (si, &row) in support.iter().enumerate() {
        let wrow = &w16[si * cols..(si + 1) * cols];
        for (act, out) in acts.chunks_exact(cols).zip(outs.iter_mut()) {
            out[row as usize] = dot_i16_c::<NC>(wrow, act);
        }
    }
}

/// Dispatches [`block_pass`] on the runtime column count: a whole number of
/// superlanes from 16 to 320 columns (1 to 20 chunks) — the cache rounds its
/// column ceiling up to a superlane, and the caller skips an all-zero array.
fn block_pass_dispatch(
    support: &[u16],
    w16: &[i16],
    acts: &[i16],
    outs: &mut [Vec<i32>],
    cols: usize,
) {
    match cols / LANES_PER_SUPERLANE {
        1 => block_pass::<1>(support, w16, acts, outs),
        2 => block_pass::<2>(support, w16, acts, outs),
        3 => block_pass::<3>(support, w16, acts, outs),
        4 => block_pass::<4>(support, w16, acts, outs),
        5 => block_pass::<5>(support, w16, acts, outs),
        6 => block_pass::<6>(support, w16, acts, outs),
        7 => block_pass::<7>(support, w16, acts, outs),
        8 => block_pass::<8>(support, w16, acts, outs),
        9 => block_pass::<9>(support, w16, acts, outs),
        10 => block_pass::<10>(support, w16, acts, outs),
        11 => block_pass::<11>(support, w16, acts, outs),
        12 => block_pass::<12>(support, w16, acts, outs),
        13 => block_pass::<13>(support, w16, acts, outs),
        14 => block_pass::<14>(support, w16, acts, outs),
        15 => block_pass::<15>(support, w16, acts, outs),
        16 => block_pass::<16>(support, w16, acts, outs),
        17 => block_pass::<17>(support, w16, acts, outs),
        18 => block_pass::<18>(support, w16, acts, outs),
        19 => block_pass::<19>(support, w16, acts, outs),
        20 => block_pass::<20>(support, w16, acts, outs),
        _ => unreachable!("{cols} columns: not 1 to 20 whole superlanes"),
    }
}

/// Dot product of two `NC`-superlane `i16` rows, accumulated in `i32` over
/// fixed 16-lane chunks — the autovectorization unit (`i16×i16 → i32`
/// multiply-add; 16 lanes is one superlane word, `[u8; 16]` on the wire).
/// The per-superlane accumulator vector keeps one `i32` per lane position so
/// the whole loop body is straight-line SIMD; the final horizontal sum is a
/// reassociation of exact integer adds and so bit-identical to any ordering.
fn dot_i16_c<const NC: usize>(w: &[i16], x: &[i16]) -> i32 {
    const L: usize = LANES_PER_SUPERLANE;
    let mut acc = [0i32; L];
    for c in 0..NC {
        let wc = &w[c * L..(c + 1) * L];
        let xc = &x[c * L..(c + 1) * L];
        for j in 0..L {
            acc[j] += i32::from(wc[j]) * i32::from(xc[j]);
        }
    }
    acc.iter().sum()
}

/// The fp16 path's single rounding step, f64 → f32, with NaN results
/// canonicalized to the quiet NaN. IEEE 754 leaves NaN *payload*
/// propagation through `a × b` unspecified and LLVM freely commutes the
/// operands, so payloads are not stable across inlining contexts — the
/// array's readout squashes them to the one canonical pattern, keeping
/// "bit-identical" a well-defined contract even on NaN-producing inputs.
#[inline]
fn round_fp16_readout(sum: f64) -> f32 {
    let v = sum as f32;
    if v.is_nan() {
        f32::NAN
    } else {
        v
    }
}

impl Default for MxmPlane {
    fn default() -> MxmPlane {
        MxmPlane::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fp16, lane};

    fn identity_weights(plane: &mut MxmPlane) {
        for g in 0..20u8 {
            let rows: Vec<Vector> = (0..16)
                .map(|j| {
                    let mut v = Vector::ZERO;
                    v.set_lane(g as usize * 16 + j, 1);
                    v
                })
                .collect();
            plane.load_weight_rows(g, &rows);
        }
        plane.install(DataType::Int8);
    }

    #[test]
    fn identity_matmul_returns_activation() {
        let mut p = MxmPlane::new();
        identity_weights(&mut p);
        let act = Vector::from_fn(|i| (i as i32 % 256) as u8);
        p.feed_activation_i8(0, &act);
        let Some(MxmResult::Int32(out)) = p.accumulate(1000, 0, false) else {
            panic!("expected int32")
        };
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i32::from(act.lane(i) as i8), "lane {i}");
        }
    }

    #[test]
    fn weights_apply_only_after_install() {
        let mut p = MxmPlane::new();
        // Stage weights but do not install.
        let rows: Vec<Vector> = (0..16).map(|_| Vector::splat(1)).collect();
        p.load_weight_rows(0, &rows);
        p.feed_activation_i8(0, &Vector::splat(1));
        let Some(MxmResult::Int32(out)) = p.accumulate(1000, 0, false) else {
            panic!()
        };
        assert!(out.iter().all(|&v| v == 0), "uninstalled weights leaked");
    }

    #[test]
    fn dot_product_math() {
        let mut p = MxmPlane::new();
        // Row 0: all ones → output 0 = sum of activations.
        let mut rows: Vec<Vector> = vec![Vector::splat(1)];
        rows.extend((1..16).map(|_| Vector::ZERO));
        p.load_weight_rows(0, &rows);
        p.install(DataType::Int8);
        let act = Vector::from_fn(|_| 2u8);
        p.feed_activation_i8(0, &act);
        let Some(MxmResult::Int32(out)) = p.accumulate(1000, 0, false) else {
            panic!()
        };
        assert_eq!(out[0], 640); // 320 × 1 × 2
        assert_eq!(out[1], 0);
    }

    #[test]
    fn negative_weights_and_activations() {
        let mut p = MxmPlane::new();
        let mut rows: Vec<Vector> = vec![Vector::splat((-3i8) as u8)];
        rows.extend((1..16).map(|_| Vector::ZERO));
        p.load_weight_rows(0, &rows);
        p.install(DataType::Int8);
        p.feed_activation_i8(0, &Vector::splat((-2i8) as u8));
        let Some(MxmResult::Int32(out)) = p.accumulate(1000, 0, false) else {
            panic!()
        };
        assert_eq!(out[0], 320 * 6);
    }

    #[test]
    fn k_split_accumulation() {
        let mut p = MxmPlane::new();
        let mut rows: Vec<Vector> = vec![Vector::splat(1)];
        rows.extend((1..16).map(|_| Vector::ZERO));
        p.load_weight_rows(0, &rows);
        p.install(DataType::Int8);
        // Pass 1: overwrite; pass 2: accumulate.
        p.feed_activation_i8(0, &Vector::splat(1));
        p.feed_activation_i8(0, &Vector::splat(2));
        let Some(MxmResult::Int32(first)) = p.accumulate(1000, 0, false) else {
            panic!()
        };
        assert_eq!(first[0], 320);
        let Some(MxmResult::Int32(total)) = p.accumulate(1000, 0, true) else {
            panic!()
        };
        assert_eq!(total[0], 320 + 640);
    }

    #[test]
    fn acc_without_pending_is_none() {
        let mut p = MxmPlane::new();
        assert!(p.accumulate(1000, 0, false).is_none());
    }

    #[test]
    fn acc_before_array_delay_is_none() {
        let mut p = MxmPlane::new();
        identity_weights(&mut p);
        p.feed_activation_i8(100, &Vector::splat(1));
        // Result is available only at 100 + MXM_ARRAY_DELAY.
        assert!(p.accumulate(100 + 31, 0, false).is_none());
        assert!(p.accumulate(100 + 32, 0, false).is_some());
    }

    /// Feeds queued before an `IW` stream through the *old* weights: the
    /// reinstall hazard the wave-flush-on-install exists for.
    #[test]
    fn reinstall_flushes_queued_feeds_through_old_weights() {
        let mut p = MxmPlane::new();
        identity_weights(&mut p);
        let act = Vector::from_fn(|i| (i % 100) as u8);
        p.feed_activation_i8(0, &act);
        // Reinstall all-zero weights before the ACC.
        let zero_rows: Vec<Vector> = (0..16).map(|_| Vector::ZERO).collect();
        for g in 0..20u8 {
            p.load_weight_rows(g, &zero_rows);
        }
        p.install(DataType::Int8);
        let Some(MxmResult::Int32(out)) = p.accumulate(1000, 0, false) else {
            panic!()
        };
        // The feed pre-dates the reinstall, so it saw the identity weights.
        assert_eq!(out[7], 7);
    }

    /// The batched wave and feed-by-feed execution retire results in feed
    /// order with per-feed availability timestamps.
    #[test]
    fn batched_wave_preserves_feed_order_and_timestamps() {
        let mut p = MxmPlane::new();
        identity_weights(&mut p);
        for i in 0..5u64 {
            p.feed_activation_i8(100 + i, &Vector::splat(i as u8 + 1));
        }
        assert_eq!(p.pending_results(), 5);
        // Feed at cycle 100+i is available at 132+i, in order.
        for i in 0..5u64 {
            assert!(
                p.accumulate(131 + i, 0, false).is_none(),
                "feed {i} available one cycle early"
            );
            let Some(MxmResult::Int32(out)) = p.accumulate(132 + i, 0, false) else {
                panic!("feed {i} missing at its availability cycle")
            };
            assert_eq!(out[0], i as i32 + 1, "feed {i} out of order");
        }
    }

    /// The byte-plane pair of an fp16 vector holding `v` in lane 0.
    fn fp16_lane0(v: f32) -> (Vector, Vector) {
        let bits = fp16::f32_to_f16(v);
        let mut pair = lane::group(|l| F16(if l == 0 { bits } else { 0 }));
        let hi = pair.pop().expect("fp16 spans two planes");
        (pair.pop().expect("fp16 spans two planes"), hi)
    }

    /// One `LW` row group: `first`, then 15 zero rows.
    fn row_group(first: Vector) -> Vec<Vector> {
        let mut rows = vec![first];
        rows.extend((1..16).map(|_| Vector::ZERO));
        rows
    }

    #[test]
    fn fp16_tandem_matmul() {
        let mut lo = MxmPlane::new();
        let mut hi = MxmPlane::new();
        // Weight (0,0) = 1.5, split over the two planes.
        let (row_lo, row_hi) = fp16_lane0(1.5);
        lo.load_weight_rows(0, &row_group(row_lo));
        hi.load_weight_rows(0, &row_group(row_hi));
        lo.install(DataType::Fp16);
        hi.install(DataType::Fp16);
        // Activation lane 0 = 2.0.
        let (act_lo, act_hi) = fp16_lane0(2.0);
        lo.feed_activation_fp16(0, &hi, &act_lo, &act_hi);
        let Some(MxmResult::Fp32(out)) = lo.accumulate(1000, 0, false) else {
            panic!()
        };
        assert_eq!(out[0], 3.0);
        assert_eq!(out[1], 0.0);
    }

    /// A feed reads both planes' weights as installed at the feed: a
    /// reinstall of the high plane alone shows in the next feed.
    #[test]
    fn fp16_feed_reads_both_planes_as_installed_at_the_feed() {
        let mut lo = MxmPlane::new();
        let mut hi = MxmPlane::new();
        let (row_lo, row_hi) = fp16_lane0(1.0);
        lo.load_weight_rows(0, &row_group(row_lo));
        hi.load_weight_rows(0, &row_group(row_hi));
        lo.install(DataType::Fp16);
        hi.install(DataType::Fp16);
        let (act_lo, act_hi) = fp16_lane0(2.0);
        lo.feed_activation_fp16(0, &hi, &act_lo, &act_hi);
        let Some(MxmResult::Fp32(first)) = lo.accumulate(1000, 0, false) else {
            panic!()
        };
        assert_eq!(first[0], 2.0);
        // Reinstall only the HIGH plane with weight 2.0's high byte (1.0 and
        // 2.0 share the low byte): the cached decode must not be reused.
        hi.load_weight_rows(0, &row_group(fp16_lane0(2.0).1));
        hi.install(DataType::Fp16);
        lo.feed_activation_fp16(0, &hi, &act_lo, &act_hi);
        let Some(MxmResult::Fp32(second)) = lo.accumulate(2000, 0, false) else {
            panic!()
        };
        assert_eq!(second[0], 4.0, "stale high-plane weights");
    }

    /// int8 and fp16 feeds interleaved on one plane read out in feed order,
    /// each at its own availability cycle: an fp16 feed computes at once,
    /// after the int8 feeds queued before it.
    #[test]
    fn mixed_int8_and_fp16_feeds_read_out_in_feed_order() {
        let mut lo = MxmPlane::new();
        let mut hi = MxmPlane::new();
        // Weight (0,0) = 0x3C01: 1 as the low plane's int8, 1 + 2^-10 as
        // the pair's fp16.
        let w = 1.0 + 2f32.powi(-10);
        let (row_lo, row_hi) = fp16_lane0(w);
        assert_eq!(row_lo.lane(0), 1);
        lo.load_weight_rows(0, &row_group(row_lo));
        hi.load_weight_rows(0, &row_group(row_hi));
        lo.install(DataType::Int8);
        hi.install(DataType::Fp16);
        let int8 = |v: u8| {
            let mut act = Vector::ZERO;
            act.set_lane(0, v);
            act
        };
        lo.feed_activation_i8(100, &int8(5));
        let (a_lo, a_hi) = fp16_lane0(2.0);
        lo.feed_activation_fp16(101, &hi, &a_lo, &a_hi);
        lo.feed_activation_i8(102, &int8(7));
        let (a_lo, a_hi) = fp16_lane0(4.0);
        lo.feed_activation_fp16(103, &hi, &a_lo, &a_hi);
        lo.feed_activation_i8(104, &int8(9));
        assert_eq!(lo.pending_results(), 5);
        /// Lane 0 of a read-out, by type.
        #[derive(Debug, PartialEq)]
        enum Lane0 {
            Int32(i32),
            Fp32(f32),
        }
        let want = [
            Lane0::Int32(5),
            Lane0::Fp32(2.0 * w),
            Lane0::Int32(7),
            Lane0::Fp32(4.0 * w),
            Lane0::Int32(9),
        ];
        for (i, want) in (0u64..).zip(want) {
            let ready = 100 + i + u64::from(tsp_isa::mxm::MXM_ARRAY_DELAY);
            assert!(
                lo.accumulate(ready - 1, 0, false).is_none(),
                "feed {i} available one cycle early"
            );
            let got = lo
                .accumulate(ready, 0, false)
                .unwrap_or_else(|| panic!("feed {i} missing at its availability cycle"));
            let got = match got {
                MxmResult::Int32(out) => Lane0::Int32(out[0]),
                MxmResult::Fp32(out) => Lane0::Fp32(out[0]),
            };
            assert_eq!(got, want, "feed {i}");
        }
    }
}
