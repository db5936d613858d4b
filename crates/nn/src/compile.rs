//! Lowering a quantized graph onto the TSP.
//!
//! Walks the layer DAG in topological order, invoking `tsp-compiler` kernels
//! and tracking where every activation lives. Policies implemented here:
//!
//! * **Padding materialization** — each feature map is allocated with the
//!   border its downstream consumers need (computed by a reverse pass), so
//!   conv offset passes never index out of bounds and residual adds see
//!   identical padded geometries.
//! * **Replication** — a producer writes as many copies of its output as its
//!   consumers will stream concurrently (extra `Write`s tapping one stream;
//!   see the kernels' docs). Max pool wants k² copies, a conv one per plane
//!   (each of its row-split chains streams its own copy).
//! * **Lane replication** — a conv whose every consumer is a conv that packs
//!   `G > 1` taps into one MXM pass (or a max pool that packs `G` pixels into
//!   one VXM row, below) writes each output row as `G` copies side by side
//!   (its weights tiled `G×` along M — the same 320×320 pass), which is what
//!   lets the consumers fetch `G` adjacent rows with one `Gather`
//!   (`tsp_compiler::kernels::conv`, "K-packing").
//! * **Lane-packed max pool** — a pool whose input is conv-written, whose
//!   every consumer is a conv and which is big enough to pay for its maps
//!   (`pool_pack`) gets that input in `G` lane copies and pools `G` output
//!   pixels per VXM row; its output is *lane-skewed* (pixel `x` at lane group
//!   `x mod G`), which the consumers absorb by tiling their weights `G×`
//!   along K (`tsp_compiler::kernels::pool`, "Lane packing").
//! * **Residual fusion** — an `Add` one of whose operands is a conv without
//!   ReLU that nothing else reads is lowered as the tail of that conv: each
//!   of its chains adds its own rows of the other operand (the shortcut)
//!   between requantize and ReLU, so the conv's result never visits SRAM on
//!   its own (`fuse_plan`; paper §II-E chaining).
//! * **Operand placement** — MEM queues are single-issue, so everything one
//!   conv streams at once sits on slices of its own: weights keep off the
//!   input's and the shortcut's slices, and the shortcut sits in the
//!   hemisphere opposite the input's.
//! * **First-layer im2col** — a conv whose input is the network input and
//!   whose patch (`k²·c_in`) fits one 320-lane pass is lowered as a dense
//!   matmul over host-prepared im2col rows: a single-pass caller of the same
//!   row-split lowering every other conv uses (the host DMA "emplaces the
//!   model and bootstraps execution", paper §II; DESIGN.md §2 records this
//!   substitution).
//! * **Layer overlap** — with [`CompileOptions::overlap`] the resource pool
//!   lets a layer start as soon as its own resources free up (paper §IV-C);
//!   otherwise every layer is fenced behind its predecessor (the E13
//!   baseline).

use std::collections::HashMap;
use std::sync::Arc;

use tsp_arch::{Hemisphere, Vector};
use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::kernels::conv::{alloc_feature_map, group_lanes};
use tsp_compiler::kernels::{
    conv2d_add, conv_passes, emplace_conv, global_avg_pool, lw_rows, matmul, max_pool,
    pixels_per_row, taps_per_pass, ActFeed, ChunkPass, Conv2dParams, FeatureMap, MatmulOpts,
    MaxPoolParams, RowSplit, WeightSet,
};
use tsp_compiler::{Scheduler, TensorHandle};
use tsp_isa::BinaryAluOp;
use tsp_sim::{Chip, Program};

use crate::graph::{Op, Shape};
use crate::quant::{QConv, QDense, QuantGraph};

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Allow layers to overlap wherever their resources are disjoint
    /// (paper §IV-C). `false` fences every layer (the E13 baseline).
    pub overlap: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions { overlap: true }
    }
}

/// How the host feeds the network input.
#[derive(Debug, Clone)]
pub enum InputKind {
    /// Write the quantized image into every replica of this feature map.
    Map(FeatureMap),
    /// Host-side im2col: chunk `c` holds the patches of `pixels[c]`
    /// (output-pixel ordinals `oy·ow + ox`), one patch row per tensor row,
    /// lanes ordered `(ky·k + kx)·c_in + ci`.
    Im2col {
        /// Per-chunk patch tensors.
        chunks: Vec<TensorHandle>,
        /// Per-chunk output-pixel ordinals.
        pixels: Vec<Vec<u32>>,
        /// Conv geometry: (k, stride, pad, input h, input w, input c, ow).
        geometry: (u32, u32, u32, u32, u32, u32, u32),
    },
}

/// Span of one layer in the schedule (for the per-layer power figure).
#[derive(Debug, Clone)]
pub struct LayerSpan {
    /// Layer name.
    pub name: String,
    /// First cycle of the layer's work.
    pub start: u64,
    /// Completion cycle.
    pub end: u64,
}

/// Where one node's activation was written during a run.
///
/// **Not where it can be read afterwards, in general**: [`compile`] frees an
/// activation's SRAM once its last consumer is scheduled and later layers
/// reuse it, so after a run every probe but the final node's may read
/// recycled memory (on ResNet-50, `conv1`'s probe "differs" from the
/// reference in over a thousand values that were in fact computed
/// correctly). To inspect an intermediate layer, compile the graph *prefix*
/// ending at it — the probed node is then the output and is never freed;
/// `first_divergence` in `crates/nn/tests/end_to_end.rs` does exactly that,
/// layer by layer, against the host int8 reference.
#[derive(Debug, Clone)]
pub enum Probe {
    /// A feature map: geometry plus one tensor per channel part.
    Map {
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Channels.
        c: u32,
        /// Materialized border.
        pad: u32,
        /// Lane groups the pixels are dealt over: pixel `x` holds its
        /// channels at lane group `x mod lane_skew` (1: every pixel at lane
        /// 0; see `FeatureMap::lane_skew`).
        lane_skew: u32,
        /// First replica of each channel part.
        parts: Vec<TensorHandle>,
        /// Every MEM slice any part or replica occupies.
        slices: Vec<(Hemisphere, u8)>,
    },
    /// A flat vector: one tensor per feature part.
    Flat(Vec<TensorHandle>),
    /// Not materialized (the im2col input; a conv whose result goes straight
    /// into the residual add it hosts).
    None,
}

/// A compiled model: program, constants, and the I/O locations.
#[derive(Debug)]
pub struct CompiledModel {
    /// The per-ICU instruction queues.
    pub program: Program,
    /// Host-DMA constants (weights, identity matrices, …).
    pub constants: Vec<(TensorHandle, Vec<Vector>)>,
    /// Where the host writes the input.
    pub input: InputKind,
    /// The logits tensors (feature parts of the final flat value).
    pub output: Vec<TensorHandle>,
    /// Compiler-predicted completion cycle (incl. the 20-tile drain).
    pub cycles: u64,
    /// Per-layer schedule spans.
    pub layer_spans: Vec<LayerSpan>,
    /// Kernels that found a port or stream taken at the cycle their chain
    /// dictated and were rescheduled later (`Scheduler::rollbacks`).
    pub rollbacks: u64,
    /// Per-node activation locations (same order as the graph's nodes).
    /// Only the last node's is still intact after a run — see [`Probe`].
    pub probes: Vec<Probe>,
    /// Lazily decoded op cache for the program (see [`CompiledModel::decoded`]).
    decoded: std::sync::OnceLock<Arc<tsp_sim::DecodedProgram>>,
}

impl CompiledModel {
    /// The program lowered to the dense decoded-op representation, decoded on
    /// first use and memoized for the model's lifetime. Running through this
    /// (`Chip::run_decoded`) skips the per-dispatch instruction re-decode and
    /// the per-run decode pass that `Chip::run` would otherwise repeat.
    pub fn decoded(&self) -> Arc<tsp_sim::DecodedProgram> {
        Arc::clone(
            self.decoded
                .get_or_init(|| Arc::new(tsp_sim::DecodedProgram::decode(&self.program))),
        )
    }

    /// Layer-boundary markers for `RunOptions::layers`: one mark per graph
    /// node, in schedule order, carrying the node's name and completion
    /// cycle. Handing these to the simulator turns on per-layer counter
    /// slicing — `RunReport::layers` then attributes every MXM wave, VXM
    /// issue and SRAM access to the layer whose `[start, end)` cycle range
    /// contains its dispatch (spans are contiguous by construction, so the
    /// attribution is total).
    #[must_use]
    pub fn layer_marks(&self) -> Vec<tsp_sim::LayerMark> {
        self.layer_spans
            .iter()
            .map(|s| tsp_sim::LayerMark {
                name: s.name.as_str().into(),
                end: s.end,
            })
            .collect()
    }

    /// Writes the constants into chip memory (the PCIe DMA model-emplace).
    pub fn load_constants(&self, chip: &mut Chip) {
        for (handle, rows) in &self.constants {
            for (r, v) in rows.iter().enumerate() {
                chip.memory.write(handle.row(r as u32), v.clone());
            }
        }
    }

    /// Writes a quantized `[y][x][c]` image into the input location(s).
    ///
    /// # Panics
    ///
    /// Panics if the image size mismatches the input shape.
    pub fn write_input(&self, chip: &mut Chip, image: &[i8]) {
        match &self.input {
            InputKind::Map(fm) => {
                assert_eq!(image.len() as u32, fm.h * fm.w * fm.c, "image size");
                for (kp, reps) in fm.parts.iter().enumerate() {
                    let c0 = kp as u32 * 320;
                    let cols = reps[0].cols as u32;
                    for rep in reps {
                        for y in 0..fm.h {
                            for x in 0..fm.w {
                                let mut v = Vector::ZERO;
                                for c in 0..cols {
                                    v.set_lane(
                                        c as usize,
                                        image[((y * fm.w + x) * fm.c + c0 + c) as usize] as u8,
                                    );
                                }
                                chip.memory.write(rep.row(fm.row_index(y, x)), v);
                            }
                        }
                    }
                }
            }
            InputKind::Im2col {
                chunks,
                pixels,
                geometry,
            } => {
                let (k, stride, pad, h, w, c, ow) = *geometry;
                assert_eq!(image.len() as u32, h * w * c, "image size");
                for (chunk, pix) in chunks.iter().zip(pixels) {
                    for (r, &p) in pix.iter().enumerate() {
                        let (oy, ox) = (p / ow, p % ow);
                        let mut v = Vector::ZERO;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as i64 - i64::from(pad);
                                let ix = (ox * stride + kx) as i64 - i64::from(pad);
                                if iy < 0 || ix < 0 || iy >= i64::from(h) || ix >= i64::from(w) {
                                    continue;
                                }
                                for ci in 0..c {
                                    let lane = ((ky * k + kx) * c + ci) as usize;
                                    v.set_lane(
                                        lane,
                                        image[((iy as u32 * w + ix as u32) * c + ci) as usize]
                                            as u8,
                                    );
                                }
                            }
                        }
                        chip.memory.write(chunk.row(r as u32), v);
                    }
                }
            }
        }
    }

    /// Reads the final logits back from chip memory.
    #[must_use]
    pub fn read_logits(&self, chip: &Chip) -> Vec<i8> {
        let mut out = Vec::new();
        for part in &self.output {
            let v = chip.memory.read_unchecked(part.row(0));
            for lane in 0..usize::from(part.cols) {
                out.push(v.lane(lane) as i8);
            }
        }
        out
    }
}

/// One lowered node's storage.
enum Lowered {
    Map(FeatureMap),
    Flat(Vec<TensorHandle>),
}

fn hemi(i: usize) -> Hemisphere {
    if i.is_multiple_of(2) {
        Hemisphere::West
    } else {
        Hemisphere::East
    }
}

/// Emplaces dense weights (`w[out][in]`) as a [`WeightSet`].
fn emplace_dense(s: &mut Scheduler, q: &QDense, replicas: u8) -> WeightSet {
    let kparts = q.inp.div_ceil(320) as usize;
    let mparts = q.out.div_ceil(320) as usize;
    let mut parts = Vec::with_capacity(kparts);
    for kp in 0..kparts {
        let k0 = kp as u32 * 320;
        let kcols = (q.inp - k0).min(320);
        let mut per_m = Vec::with_capacity(mparts);
        for mp in 0..mparts {
            let m0 = mp as u32 * 320;
            let mrows = (q.out - m0).min(320);
            let rows = lw_rows(
                |m, row| {
                    for lane in 0..kcols {
                        let w = q.w[((m0 + m) * q.inp + k0 + lane) as usize];
                        row.set_lane(lane as usize, w as u8);
                    }
                },
                mrows,
            );
            let reps: Vec<TensorHandle> = (0..replicas.max(1))
                .map(|_| s.add_constant(rows.clone(), kcols as u16, BankPolicy::Low, 20))
                .collect();
            per_m.push(reps);
        }
        parts.push(per_m);
    }
    WeightSet {
        k: q.inp,
        m: q.out,
        parts,
    }
}

/// Replicas each node's output needs, from its consumers.
fn replica_plan(q: &QuantGraph) -> Vec<u8> {
    let n = q.graph.nodes.len();
    let mut reps = vec![1u8; n];
    for node in &q.graph.nodes {
        let need: u8 = match &node.op {
            // One per plane: a conv's chains (row chunks × M-splits) keep all
            // four planes streaming at once, each from its own copy.
            Op::Conv(_) => 4,
            Op::MaxPool { k, .. } => (k * k).min(9) as u8,
            _ => 1,
        };
        for &inp in &node.inputs {
            reps[inp] = reps[inp].max(need);
        }
    }
    reps
}

/// The materialized border each node's output needs, from its consumers.
fn pad_plan(q: &QuantGraph) -> Vec<u32> {
    let n = q.graph.nodes.len();
    let mut pads = vec![0u32; n];
    for i in (0..n).rev() {
        let node = &q.graph.nodes[i];
        let need = match &node.op {
            Op::Conv(spec) => spec.pad,
            Op::MaxPool { pad, .. } => *pad,
            Op::Add { .. } => pads[i],
            _ => 0,
        };
        for &inp in &node.inputs {
            pads[inp] = pads[inp].max(need);
        }
    }
    pads
}

/// Fewest VXM cycles a lane-packed pool must save. Packing is not free: its
/// `k² + replicas` map streams hold a score of slice queues to the end of the
/// pool — a neighbouring conv waiting to prefetch weights from one of them
/// starts that much later — a `Gather` and a `Scatter` are slower than a
/// `Read` and a `Write`, and the maps' rows are paid at every emplace. On
/// `small_cnn`'s 36-pixel pool (30 cycles to save) that came to `p1` −20,
/// `c2` +17 and 48 more constant rows.
const MIN_PACKED_SAVING: u32 = 64;

/// The output pixels a max pool puts in one VXM row (`G`, see
/// `tsp_compiler::kernels::pool`): above 1 only when every consumer of the
/// pool is a conv — the one kind of reader a lane-skewed map has — the
/// channels leave room for a second pixel, and the shorter chain saves at
/// least [`MIN_PACKED_SAVING`] cycles.
fn pool_pack(q: &QuantGraph, shapes: &[Shape], pool: usize) -> u32 {
    let nodes = &q.graph.nodes;
    let mut consumers = nodes.iter().filter(|n| n.inputs.contains(&pool));
    let convs_only =
        consumers.clone().count() > 0 && consumers.all(|n| matches!(n.op, Op::Conv(_)));
    let Shape::Map { h, w, c } = shapes[pool] else {
        return 1;
    };
    let groups = pixels_per_row(c, w);
    let (rows, vectors) = (h * w, h * w.div_ceil(groups));
    if convs_only && rows - vectors >= MIN_PACKED_SAVING {
        groups
    } else {
        1
    }
}

/// The lane copies each node's output holds (see [`FeatureMap::lane_copies`]):
/// a conv all of whose consumers want them — convs packing `G > 1` taps per
/// pass, max pools packing `G > 1` pixels per row ([`pool_pack`]) — writes
/// the largest such `G`; everything else — pools, adds, the host-written
/// input, a conv with any other reader — writes one.
fn lane_plan(q: &QuantGraph, shapes: &[Shape]) -> Vec<u32> {
    let nodes = &q.graph.nodes;
    let mut copies = vec![0u32; nodes.len()];
    let mut packed_only = vec![true; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for &inp in &node.inputs {
            let want = match (&node.op, shapes[inp]) {
                (Op::Conv(spec), Shape::Map { c, .. }) => taps_per_pass(spec.k, c),
                (Op::MaxPool { .. }, _) => pool_pack(q, shapes, i),
                _ => 1,
            };
            copies[inp] = copies[inp].max(want);
            packed_only[inp] &= want > 1;
        }
    }
    (0..nodes.len())
        .map(|i| match nodes[i].op {
            Op::Conv(_) if packed_only[i] => copies[i].max(1),
            _ => 1,
        })
        .collect()
}

/// Which residual adds are lowered inside a conv, and the hemisphere every
/// node's output goes to. `partner[add] = Some(conv)` and `partner[conv] =
/// Some(add)` when `conv` — an operand of `add` with no ReLU and no other
/// reader — computes the add in its own chains, reading the other operand
/// (the shortcut) block by block. That needs the shortcut to be cut into the
/// conv's own output blocks, i.e. to be conv-written itself (a conv or a fused
/// add of the same shape), to be scheduled before the conv, and to share no
/// slice with the conv's input: the input goes to the opposite hemisphere,
/// and an add for which that cannot be arranged stays a kernel of its own.
/// `readers` counts every node's consumers; `im2col` is the first-layer conv,
/// which hosts no add.
fn fuse_plan(
    q: &QuantGraph,
    readers: &[usize],
    im2col: Option<usize>,
) -> (Vec<Option<usize>>, Vec<Hemisphere>) {
    let nodes = &q.graph.nodes;
    let mut partner: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut hemis: Vec<Hemisphere> = (0..nodes.len()).map(hemi).collect();
    // Hemispheres something already depends on; the host writes the network
    // input where `compile` says.
    let mut pinned = vec![false; nodes.len()];
    (hemis[0], pinned[0]) = (Hemisphere::East, true);
    for (add, node) in nodes.iter().enumerate() {
        let (Op::Add { .. }, &[a, b]) = (&node.op, node.inputs.as_slice()) else {
            continue;
        };
        let (shortcut, conv) = (a.min(b), a.max(b));
        let hosts = matches!(nodes[conv].op, Op::Conv(spec) if !spec.relu)
            && readers[conv] == 1
            && Some(conv) != im2col;
        let conv_written = match nodes[shortcut].op {
            Op::Conv(_) => true,
            Op::Add { .. } => partner[shortcut].is_some(),
            _ => false,
        };
        let input = nodes[conv].inputs[0];
        let apart = hemis[shortcut].opposite();
        if !hosts || !conv_written || input == shortcut || (pinned[input] && hemis[input] != apart)
        {
            continue;
        }
        hemis[input] = apart;
        pinned[input] = true;
        pinned[shortcut] = true;
        partner[add] = Some(conv);
        partner[conv] = Some(add);
    }
    (partner, hemis)
}

/// Compiles a quantized graph to a TSP program.
///
/// # Panics
///
/// Panics on graphs the lowering does not support (e.g. dense on a map).
#[must_use]
pub fn compile(q: &QuantGraph, options: &CompileOptions) -> CompiledModel {
    let mut s = Scheduler::new();
    let shapes = q.graph.shapes();
    let mut pads = pad_plan(q);
    let mut reps = replica_plan(q);
    let mut lanes = lane_plan(q, &shapes);
    let mut lowered: Vec<Option<Lowered>> = Vec::with_capacity(q.graph.nodes.len());
    // Remaining-consumer counts, for freeing dead activations.
    let mut remaining: Vec<usize> = vec![0; q.graph.nodes.len()];
    for node in &q.graph.nodes {
        for &inp in &node.inputs {
            remaining[inp] += 1;
        }
    }
    let last = q.graph.nodes.len() - 1;
    let mut input_kind: Option<InputKind> = None;
    let mut output: Vec<TensorHandle> = Vec::new();
    let mut spans = Vec::new();

    // Does the first conv qualify for host-side im2col?
    let first_conv_im2col = q.graph.nodes.iter().enumerate().find_map(|(i, n)| {
        if let Op::Conv(spec) = &n.op {
            if n.inputs == [0] {
                let Shape::Map { c, .. } = shapes[0] else {
                    return None;
                };
                if spec.k * spec.k * c <= 320 {
                    return Some(i);
                }
            }
        }
        None
    });
    let (partner, mut hemis) = fuse_plan(q, &remaining, first_conv_im2col);
    // A conv hosting an add writes the add's output, where the add would.
    for (conv, node) in q.graph.nodes.iter().enumerate() {
        if let (Op::Conv(_), Some(add)) = (&node.op, partner[conv]) {
            (pads[conv], reps[conv], lanes[conv]) = (pads[add], reps[add], lanes[add]);
            hemis[conv] = hemis[add];
        }
    }

    for (i, node) in q.graph.nodes.iter().enumerate() {
        let start = s.completion();
        let low: Option<Lowered> = match &node.op {
            Op::Input { h, w, c } => {
                if first_conv_im2col.is_some() {
                    None // materialized by the im2col conv below
                } else {
                    let fm =
                        alloc_feature_map(&mut s, *h, *w, *c, pads[i], Hemisphere::East, reps[i]);
                    input_kind = Some(InputKind::Map(fm.clone()));
                    Some(Lowered::Map(fm))
                }
            }
            Op::Conv(spec) => {
                // A hosted add's ReLU is the chain's; its other operand the
                // shortcut (the host itself has no ReLU).
                let add = partner[i].map(|add| &q.graph.nodes[add]);
                let shortcut = add.map(|add| {
                    let other = add.inputs.iter().find(|&&inp| inp != i);
                    match &lowered[*other.expect("an add has two operands")] {
                        Some(Lowered::Map(map)) => map,
                        _ => panic!("add input not a map at {}", add.name),
                    }
                });
                let params = Conv2dParams {
                    stride: spec.stride,
                    pad: spec.pad,
                    requant_shift: q.conv[&i].shift,
                    relu: add.map_or(spec.relu, |add| add.op == Op::Add { relu: true }),
                    out_pad: pads[i],
                    out_hemisphere: hemis[i],
                    out_replicas: reps[i],
                    not_before: 0,
                };
                if Some(i) == first_conv_im2col {
                    let Shape::Map { h, w, c } = shapes[0] else {
                        panic!()
                    };
                    let (fm, kind) = compile_im2col_conv(
                        &mut s,
                        &q.conv[&i],
                        spec,
                        (h, w, c),
                        lanes[i],
                        &params,
                    );
                    input_kind = Some(kind);
                    Some(Lowered::Map(fm))
                } else {
                    let Some(Lowered::Map(input)) = &lowered[node.inputs[0]] else {
                        panic!("conv input not a map at {}", node.name)
                    };
                    let qc = &q.conv[&i];
                    let taps = taps_per_pass(qc.k, qc.ci).min(input.lane_copies);
                    // A lane-packed pool's output is absorbed here: the same
                    // columns at every lane group a pixel may sit in.
                    let layout = (taps, input.lane_skew, lanes[i]);
                    // Nothing the conv streams while a weight block is due
                    // may share the block's slices: a 20-row weight read
                    // queued behind a pass-long burst arrives a pass late.
                    let keep_off: Vec<_> = (input.slices())
                        .chain(shortcut.iter().flat_map(|map| map.shortcut_slices()))
                        .collect();
                    let weights = emplace_conv(
                        &mut s,
                        (qc.k, qc.ci, qc.co),
                        layout,
                        (1, &keep_off),
                        |co, ci, dy, dx| {
                            qc.w[(((co * qc.ci + ci) * qc.k + dy) * qc.k + dx) as usize]
                        },
                    );
                    let (fm, _) = conv2d_add(&mut s, input, &weights, shortcut, &params);
                    Some(Lowered::Map(fm))
                }
            }
            Op::MaxPool { k, stride, pad } => {
                let Some(Lowered::Map(input)) = &lowered[node.inputs[0]] else {
                    panic!("pool input not a map")
                };
                let params = MaxPoolParams {
                    kernel: *k,
                    stride: *stride,
                    pad: *pad,
                    out_pad: pads[i],
                    out_hemisphere: hemis[i],
                    out_replicas: reps[i],
                    not_before: 0,
                };
                let (fm, _) = max_pool(&mut s, input, &params);
                Some(Lowered::Map(fm))
            }
            Op::GlobalAvgPool => {
                let Some(Lowered::Map(input)) = &lowered[node.inputs[0]] else {
                    panic!("gap input not a map")
                };
                let (parts, _) = global_avg_pool(&mut s, input, q.gap_shift[&i], hemis[i], 0);
                Some(Lowered::Flat(parts))
            }
            Op::Dense { relu, .. } => {
                let Some(Lowered::Flat(parts)) = &lowered[node.inputs[0]] else {
                    panic!("dense input not flat")
                };
                let w = emplace_dense(&mut s, &q.dense[&i], 1);
                let x_parts: Vec<Vec<TensorHandle>> =
                    parts.iter().map(|t| vec![t.clone()]).collect();
                let opts = MatmulOpts {
                    requant_shift: q.dense[&i].shift,
                    relu: *relu,
                    out_hemisphere: hemis[i],
                    ..MatmulOpts::default()
                };
                let (outs, _) = matmul(&mut s, &x_parts, &w, &opts);
                let flat: Vec<TensorHandle> = outs.into_iter().map(|mut v| v.remove(0)).collect();
                Some(Lowered::Flat(flat))
            }
            // Computed by its host conv, whose entry it takes over.
            Op::Add { .. } if partner[i].is_some() => {
                partner[i].and_then(|conv| lowered[conv].take())
            }
            Op::Add { relu } => {
                let (Some(Lowered::Map(a)), Some(Lowered::Map(b))) =
                    (&lowered[node.inputs[0]], &lowered[node.inputs[1]])
                else {
                    panic!("add inputs not maps")
                };
                assert_eq!(a.pad, b.pad, "residual pads must match at {}", node.name);
                assert_eq!(
                    (a.lane_skew, b.lane_skew),
                    (1, 1),
                    "an add reads lanes as stored"
                );
                assert_eq!(pads[i], a.pad, "add output pad mismatch");
                let mut parts = Vec::with_capacity(a.parts.len());
                for (pa, pb) in a.parts.iter().zip(&b.parts) {
                    // One pipelined pass: add on one ALU, chained ReLU on a
                    // second, replicas tapping the final stream (§II-E).
                    let (sum, _) = tsp_compiler::kernels::elementwise::binary_ew_fused(
                        &mut s,
                        BinaryAluOp::AddSat,
                        &pa[0],
                        &pb[0],
                        hemis[i],
                        BankPolicy::High,
                        0,
                        reps[i],
                        *relu,
                    );
                    parts.push(sum);
                }
                Some(Lowered::Map(FeatureMap {
                    h: match shapes[i] {
                        Shape::Map { h, .. } => h,
                        Shape::Flat { .. } => unreachable!(),
                    },
                    w: match shapes[i] {
                        Shape::Map { w, .. } => w,
                        Shape::Flat { .. } => unreachable!(),
                    },
                    c: match shapes[i] {
                        Shape::Map { c, .. } => c,
                        Shape::Flat { .. } => unreachable!(),
                    },
                    pad: a.pad,
                    lane_copies: 1,
                    lane_skew: 1,
                    parts,
                }))
            }
        };
        if let Some(Lowered::Flat(parts)) = &low {
            output = parts.clone();
        }
        spans.push(LayerSpan {
            name: node.name.clone(),
            start,
            end: s.completion(),
        });
        lowered.push(low);
        // Free inputs whose last consumer this node was (never the output,
        // and never the network input — the host owns it).
        for &inp in &q.graph.nodes[i].inputs.clone() {
            remaining[inp] -= 1;
            if remaining[inp] == 0 && inp != 0 && inp != last {
                if let Some(l) = &lowered[inp] {
                    match l {
                        Lowered::Map(fm) => {
                            for reps_ in &fm.parts {
                                for t in reps_ {
                                    s.alloc.free(t);
                                }
                            }
                        }
                        Lowered::Flat(parts) => {
                            for t in parts {
                                s.alloc.free(t);
                            }
                        }
                    }
                }
            }
        }
        if !options.overlap {
            let c = s.completion();
            s.pool.fence(c);
        }
    }

    let probes: Vec<Probe> = lowered
        .iter()
        .map(|l| match l {
            Some(Lowered::Map(fm)) => Probe::Map {
                h: fm.h,
                w: fm.w,
                c: fm.c,
                pad: fm.pad,
                lane_skew: fm.lane_skew,
                parts: fm.parts.iter().map(|r| r[0].clone()).collect(),
                slices: fm.slices().collect(),
            },
            Some(Lowered::Flat(parts)) => Probe::Flat(parts.clone()),
            None => Probe::None,
        })
        .collect();
    let cycles = s.completion() + u64::from(tsp_arch::timing::SLICE_TILES);
    let rollbacks = s.rollbacks();
    let constants = s.take_constants();
    if let Some(e) = s.check() {
        eprintln!("SCHEDULE ERROR: {e}");
        eprintln!("insertion-order dump of {}:", e.icu);
        for (idx, (c, i)) in s.dump_queue(e.icu).iter().enumerate() {
            if c.abs_diff(e.cycle) < 400 {
                eprintln!("  [{idx}] @{c}: {i}");
            }
        }
        panic!("schedule must be consistent: {e}");
    }
    let program = s.into_program().expect("checked above");
    CompiledModel {
        program,
        constants,
        input: input_kind.expect("graph has an input"),
        output,
        cycles,
        layer_spans: spans,
        rollbacks,
        probes,
        decoded: std::sync::OnceLock::new(),
    }
}

/// Process-global cache of compiled models, keyed by a fingerprint of the
/// quantized graph and the compile options.
static COMPILE_CACHE: std::sync::OnceLock<std::sync::Mutex<HashMap<u64, Arc<CompiledModel>>>> =
    std::sync::OnceLock::new();

/// Fingerprint of everything [`compile`] reads: graph structure, quantized
/// parameters, and options. Collisions would only silently reuse a model
/// compiled from a *different* graph, so the full weight bytes are hashed
/// (cheap next to a compile, which walks them many times).
fn fingerprint(q: &QuantGraph, options: &CompileOptions) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    options.overlap.hash(&mut h);
    // Node ops/edges/names have stable Debug representations.
    format!("{:?}", q.graph.nodes).hash(&mut h);
    for (i, c) in &q.conv {
        (i, c.co, c.ci, c.k, c.shift).hash(&mut h);
        c.w.hash(&mut h);
    }
    for (i, d) in &q.dense {
        (i, d.out, d.inp, d.shift).hash(&mut h);
        d.w.hash(&mut h);
    }
    for (i, s) in &q.gap_shift {
        (i, s).hash(&mut h);
    }
    q.input_scale.to_bits().hash(&mut h);
    h.finish()
}

/// [`compile`], memoized: repeated calls with an identical quantized graph
/// and options return the *same* `Arc<CompiledModel>` without recompiling.
///
/// The shared model is immutable — `load_constants` / `write_input` only
/// touch the `Chip` — so any number of threads can simulate from one cached
/// compile concurrently (the host-throughput pattern of the `determinism`,
/// `resnet_throughput`, and `fig10_power` benchmarks).
///
/// # Panics
///
/// Panics where [`compile`] panics, and if the cache mutex is poisoned.
#[must_use]
pub fn compile_cached(q: &QuantGraph, options: &CompileOptions) -> Arc<CompiledModel> {
    let key = fingerprint(q, options);
    let cache = COMPILE_CACHE.get_or_init(|| std::sync::Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    // Compile outside the lock: a long compile must not block unrelated hits.
    let model = Arc::new(compile(q, options));
    Arc::clone(cache.lock().unwrap().entry(key).or_insert(model))
}

/// Lowers the first conv as a dense matmul over host-im2col'ed patches: an
/// ordinary single-pass caller of the row-split lowering, each chunk reading
/// its own patch tensor and its own copy of the weights.
fn compile_im2col_conv(
    s: &mut Scheduler,
    qc: &QConv,
    spec: &crate::graph::ConvSpec,
    (h, w, c): (u32, u32, u32),
    lane_copies: u32,
    params: &Conv2dParams,
) -> (FeatureMap, InputKind) {
    let k = qc.k;
    let oh = (h + 2 * spec.pad - k) / spec.stride + 1;
    let ow = (w + 2 * spec.pad - k) / spec.stride + 1;
    let kdim = k * k * c; // ≤ 320, checked by the caller
    assert!(qc.co <= 320, "im2col path supports c_out ≤ 320");
    let split = RowSplit::new(oh, ow, params.out_pad, 4, lane_copies > 1);

    // LW-order weights, K lanes ordered (ky·k + kx)·c_in + ci, the output
    // channels repeated `lane_copies` times along M.
    let out_group = group_lanes(qc.co);
    let wrows = lw_rows(
        |m, row| {
            let co = m % out_group;
            if co >= qc.co {
                return; // the lanes between two copies
            }
            for lane in 0..kdim {
                let (off, ci) = (lane / c, lane % c);
                let (ky, kx) = (off / k, off % k);
                let w = qc.w[(((co * qc.ci + ci) * qc.k + ky) * qc.k + kx) as usize];
                row.set_lane(lane as usize, w as u8);
            }
        },
        (lane_copies - 1) * out_group + qc.co,
    );
    // Per chunk: a weight copy and a patch tensor, all slice-disjoint so the
    // four chains' reads never queue behind one another.
    let copies: Vec<TensorHandle> = (split.chunks.iter())
        .map(|_| s.add_constant(wrows.clone(), kdim as u16, BankPolicy::Low, 20))
        .collect();
    let mut avoid: Vec<(Hemisphere, u8)> = copies.iter().flat_map(|t| t.layout.slices()).collect();
    let patches: Vec<TensorHandle> = (split.chunks.iter())
        .map(|chunk| {
            let n = chunk.pixels.len() as u32;
            let t = s
                .alloc
                .alloc_avoiding(None, n, kdim as u16, BankPolicy::High, 4096, &avoid)
                .expect("SRAM exhausted for im2col patches");
            avoid.extend(t.layout.slices());
            t
        })
        .collect();
    let pass = |_mpart: usize, _pass: usize, ci: usize| ChunkPass {
        weights: &copies[ci],
        acts: ActFeed::Read(&patches[ci]),
        rows: (0..patches[ci].rows).collect(),
    };
    let (mut fm, _) = conv_passes(s, (oh, ow, qc.co), &split, 1, &pass, None, params);
    fm.lane_copies = lane_copies;

    let kind = InputKind::Im2col {
        pixels: split.chunks.into_iter().map(|c| c.pixels).collect(),
        chunks: patches,
        geometry: (k, spec.stride, spec.pad, h, w, c, ow),
    };
    (fm, kind)
}
