//! Lowering a quantized graph onto the TSP.
//!
//! [`plan`] decides, from the graph's shapes alone, what the tensor on every
//! edge looks like in SRAM — one [`MapLayout`] per node — and which nodes are
//! computed inside another's kernel; [`compile`] walks the DAG in topological
//! order, hands each `tsp-compiler` kernel its node's layout, checks the map
//! that comes back against it, and tracks where every activation lives.
//!
//! What a reader **needs** flows up the graph (one reverse sweep):
//!
//! * **Border** — a conv or pool needs its logical padding materialized
//!   around its input (border rows stay zero, so offset passes never index
//!   out of bounds); an add needs both operands cut like its own output.
//! * **Replicas** — a producer writes as many copies as its readers stream
//!   concurrently (extra `Write`s tapping one stream): a conv one per MXM
//!   plane (each row-split chain streams its own), a max pool one per tap.
//! * **Lane copies** — a conv that packs `G` taps into one MXM pass (any `G`
//!   consecutive in row-major order: five of a 3×3 over 64 channels), or a
//!   pool that packs `G` pixels into one VXM row, fetches `G` stored rows
//!   with one `Gather`, which needs every row written `G` times side by side
//!   — free for a conv (its weights tiled `G×` along M), and only if *every*
//!   reader packs. A pool packs when only convs read it and the shorter chain
//!   pays for the gather/scatter maps. A pool asked for more copies than its
//!   row has pixels keeps them instead — `max` is lane-wise — and asks its
//!   input for as many. A lane-replicated map a conv reads always has a
//!   border: a gather that would cross into the next block reads the block's
//!   first row for zero.
//!
//! What a producer **wrote** flows down (one forward sweep):
//!
//! * **Lane skew** — a pool given `G ≤ ow` lane copies leaves pixel `x` at
//!   lane group `x mod G`; the convs reading it tile their weights `G×` along
//!   K. Such a pool writes opposite its input: its tap maps flow out through
//!   one hemisphere, its maxima and scatter maps through the other. Given
//!   more, it writes them as it got them.
//! * **Residual fusion and sides** — an `Add` whose later operand is a conv
//!   without ReLU that nothing else reads runs as that conv's requant tail
//!   (paper §II-E chaining), each chain adding its own rows of the other
//!   operand. MEM queues are single-issue, so everything one conv streams at
//!   once sits on slices of its own: the conv's input goes to the hemisphere
//!   opposite the shortcut's, weights keep off both.
//! * **First-layer im2col** — a conv alone on the network input whose patch
//!   (`k²·c_in`) and output each fit one 320-lane part takes host-prepared
//!   im2col rows: a 1×1 conv through the same row-split lowering (the host
//!   DMA "emplaces the model and bootstraps execution", paper §II; DESIGN.md
//!   §2 records this substitution).
//!
//! A node nothing reads is neither planned for nor lowered. With
//! [`CompileOptions::overlap`] the resource pool lets a layer start as soon
//! as its own resources free up (paper §IV-C); otherwise every layer is
//! fenced behind its predecessor (the E13 baseline).

use std::collections::HashMap;
use std::sync::Arc;

use tsp_arch::{ChipConfig, Hemisphere, Vector};
use tsp_compiler::alloc::BankPolicy;
use tsp_compiler::kernels::{
    conv2d_add, conv_passes, emplace_conv, global_avg_pool, matmul, max_pool, packed_taps,
    pixels_per_row, pooled_lanes, taps_per_pass, ActFeed, ChunkPass, Conv2dParams, FeatureMap,
    MapLayout, MatmulOpts, MaxPoolParams, RowSplit, WeightSet,
};
use tsp_compiler::{ConstantRows, RestoreSet, RowRuns, Scheduler, TensorHandle};
use tsp_isa::BinaryAluOp;
use tsp_sim::{Chip, Memory, Program};

use crate::graph::{Graph, Node, Op, Shape};
use crate::quant::{QConv, QDense, QuantGraph};
use crate::reference::{run_int8, ValueQ};

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
/// [`first_divergence`] does exactly that, layer by layer, against the host
/// int8 reference.
#[derive(Debug, Clone)]
pub enum Probe {
    /// A feature map, as its kernel built it: geometry, layout, tensors.
    Map(FeatureMap),
    /// A flat vector: one tensor per feature part.
    Flat(Vec<TensorHandle>),
    /// Not materialized: the im2col input, a conv whose result goes straight
    /// into the residual add it hosts, a node nothing reads.
    None,
}

/// A compiled model: program, constants, and the I/O locations.
#[derive(Debug)]
pub struct CompiledModel {
    /// The per-ICU instruction queues.
    pub program: Program,
    /// Host-DMA constants (weights, identity matrices, …): each one's whole
    /// allocation and the rows of it that hold data, the only rows shipped.
    pub constants: Vec<(TensorHandle, ConstantRows)>,
    /// Where the host writes the input.
    pub input: InputKind,
    /// The logits tensors (feature parts of the final flat value).
    pub output: Vec<TensorHandle>,
    /// Compiler-predicted completion cycle (incl. the 20-tile drain).
    pub cycles: u64,
    /// Per-layer schedule spans.
    pub layer_spans: Vec<LayerSpan>,
    /// Kernels — a conv's or matmul's chain, a global pool's channel part,
    /// an element-wise chain or a max pool round — that found an ALU, stream
    /// or port taken at the cycle their chain dictated and were rescheduled
    /// later (`Scheduler::rollbacks`).
    pub rollbacks: u64,
    /// Per-node activation locations (same order as the graph's nodes).
    /// Only the last node's is still intact after a run — see [`Probe`].
    pub probes: Vec<Probe>,
    /// The rows the program reads as a fresh chip left them (set E of the
    /// re-run contract, `tsp_compiler::rerun`).
    pub fresh: RowRuns,
    /// The rows the program's data writes land on (set W).
    pub written: RowRuns,
    /// What [`CompiledModel::restore`] writes before a rerun (set R).
    pub restore_set: RestoreSet,
    /// Tells this compile's constants from every other's: what a resident
    /// chip is tagged with (see [`CompiledModel::id`]).
    id: u64,
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

    /// Writes the constants' shipped rows into a fresh chip's memory (the
    /// PCIe DMA model-emplace); the rest of each allocation reads zero there.
    pub fn load_constants(&self, chip: &mut Chip) {
        for (handle, rows) in &self.constants {
            for (r, v) in rows {
                chip.memory.write(handle.row(*r), v.clone());
            }
        }
    }

    /// Simulated cycles [`CompiledModel::load_constants`] costs: one 320-byte
    /// row per cycle, the PCIe-DMA bound of the paper's host runtime, for the
    /// rows that hold data. A pure function of the compile.
    #[must_use]
    pub fn emplace_cycles(&self) -> u64 {
        (self.constants.iter())
            .map(|(_, rows)| rows.len() as u64)
            .sum()
    }

    /// Readies a chip this model has already run on, kept as its `config` and
    /// SRAM `memory`, for the next run: a chip at power-on in all but SRAM
    /// ([`Chip::with_memory`]) with the rows of
    /// [`CompiledModel::restore_set`] written back, so that
    /// `restore` then `write_input` gives the same cycles, telemetry and
    /// logits as a fresh chip, `load_constants` and `write_input` — at
    /// [`CompiledModel::restore_cycles`] instead of the whole emplace.
    #[must_use]
    pub fn restore(&self, config: ChipConfig, memory: Memory) -> Chip {
        let mut chip = Chip::with_memory(config, memory);
        for addr in self.restore_set.zero.addresses() {
            chip.memory.write(addr, Vector::ZERO);
        }
        for (addr, v) in &self.restore_set.shipped {
            chip.memory.write(*addr, v.clone());
        }
        chip
    }

    /// Simulated cycles [`CompiledModel::restore`] costs: one row per cycle,
    /// the emplace's DMA rate.
    #[must_use]
    pub fn restore_cycles(&self) -> u64 {
        self.restore_set.rows()
    }

    /// This compile's identity: equal only for the same `CompiledModel` (the
    /// one [`compile_cached`] shares), so a chip tagged with it holds exactly
    /// these constants.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
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

fn hemi(i: usize) -> Hemisphere {
    if i.is_multiple_of(2) {
        Hemisphere::West
    } else {
        Hemisphere::East
    }
}

/// Emplaces dense weights (`w[out][in]`) as a [`WeightSet`]: a 1×1 conv's
/// one pass ([`emplace_conv`]), off the slices in `avoid` (the matmul's
/// input).
fn emplace_dense(s: &mut Scheduler, q: &QDense, avoid: &[(Hemisphere, u8)]) -> WeightSet {
    let mut weights = emplace_conv(
        s,
        (1, q.inp, q.out),
        (1, 1, 1),
        (1, 1, avoid),
        |co, ci, _, _| q.w[(co * q.inp + ci) as usize],
    );
    WeightSet {
        k: q.inp,
        m: q.out,
        parts: weights.passes.swap_remove(0),
    }
}

/// Fewest VXM cycles a lane-packed pool must save. Packing is not free: its
/// `k² + replicas` map streams hold a score of slice queues to the end of the
/// pool — a neighbouring conv waiting to prefetch weights from one of them
/// starts that much later — and a `Gather` and a `Scatter` are slower than a
/// `Read` and a `Write`. (The maps' rows cost an emplace, once per chip a
/// model stays resident on.) Packing `small_cnn`'s 36-pixel `p1` (30 cycles
/// to save) came to `p1` −20 and `c2` +17.
const MIN_PACKED_SAVING: u32 = 64;

/// What [`plan`] decided for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePlan {
    /// What the node's output looks like in SRAM — of a flat node's, only the
    /// hemisphere means anything. `replicas == 0`: nothing reads the node and
    /// it is not the output, so it is not lowered at all.
    pub layout: MapLayout,
    /// The node whose kernel produces this one's value instead of a kernel of
    /// its own: for an `Add`, the conv computing it in its requant tail (that
    /// conv's `layout` is then the add's); for the network input, the first
    /// conv when it takes host-prepared im2col patches instead of a map.
    pub host: Option<usize>,
}

/// What node `i` — its own output layout `out` final — needs of the map on
/// each of its input edges: `(border, replicas, lane copies)`, the copies
/// above 1 only where it would pack that many taps or pixels, or pass them
/// through. `conv_readers`: whether `i` itself is read by convs and nothing
/// else.
fn need(
    graph: &Graph,
    shapes: &[Shape],
    i: usize,
    out: &MapLayout,
    conv_readers: bool,
) -> (u32, u8, u32) {
    let node = &graph.nodes[i];
    match (&node.op, shapes[i]) {
        // A replica per plane: a conv's chains (row chunks × M-splits) keep
        // all four planes streaming at once, each from its own copy.
        (Op::Conv(spec), _) => {
            let Shape::Map { c, .. } = shapes[node.inputs[0]] else {
                panic!("conv on a flat input at {}", node.name)
            };
            (spec.pad, 4, taps_per_pass(spec.k, c))
        }
        // A replica per tap. A pool keeping its readers' copies (more than
        // its width: `pooled_lanes`) asks its input for them. Otherwise it
        // packs `G` pixels a VXM row when only convs — the one kind of reader
        // a lane-skewed map has — read it and the shorter chain saves at
        // least `MIN_PACKED_SAVING` cycles.
        (Op::MaxPool { k, pad, .. }, Shape::Map { h, w, c }) => {
            let groups = pixels_per_row(c, w);
            let saving = h * w - h * w.div_ceil(groups);
            let packs = conv_readers && saving >= MIN_PACKED_SAVING;
            let copies = match out.lane_copies {
                1 if packs => groups,
                copies => copies,
            };
            (*pad, (k * k).min(9) as u8, copies)
        }
        // An add's operands are cut exactly like its output.
        (Op::Add { .. }, _) => (out.pad, 1, 1),
        _ => (0, 1, 1),
    }
}

/// Decides every edge's layout and which nodes are lowered inside another,
/// from the graph's shapes alone (the module docs say what is decided).
///
/// **Needs flow up**, in one reverse sweep: a node's layout is final before
/// its inputs are visited, so each folds what it `need`s into them — the
/// widest border, the most replicas, and lane copies only if *every* reader
/// packs (then the most any asks for). A conv writes them, or a pool keeps
/// its input's when they are more than its row has pixels — and asks its
/// input for them. A node nothing reads, unless it is the output, asks for
/// nothing.
///
/// **Placement flows down**, in one forward sweep: a pool given lane copies
/// writes a skewed map, in the hemisphere opposite its input's (pinned
/// there), or keeps the copies it cannot pack pixels by ([`pooled_lanes`]);
/// an `Add` is computed by its later operand when that
/// is a conv without ReLU and with no other reader, the other operand (the
/// shortcut) is cut into the conv's own output blocks — conv-written itself,
/// a conv or a fused add of the same shape — and is not the conv's own input,
/// and that input can go to the hemisphere opposite the shortcut's; an add
/// for which that cannot be arranged stays a kernel of its own. Last, a map
/// with lane copies that a conv reads gets a border.
#[must_use]
pub fn plan(graph: &Graph, shapes: &[Shape]) -> Vec<NodePlan> {
    let nodes = &graph.nodes;
    let last = nodes.len() - 1;
    let mut plans: Vec<NodePlan> = (0..nodes.len())
        .map(|_| NodePlan {
            layout: MapLayout {
                replicas: 0,
                ..MapLayout::plain(0, Hemisphere::East, 0)
            },
            host: None,
        })
        .collect();
    plans[last].layout.replicas = 1;
    // Per node: its readers, and how many of them are convs.
    let mut readers = vec![0usize; nodes.len()];
    let mut conv_readers = vec![0usize; nodes.len()];
    for (i, node) in nodes.iter().enumerate().rev() {
        if plans[i].layout.replicas == 0 {
            continue;
        }
        let is_conv = matches!(node.op, Op::Conv(_));
        let l = &mut plans[i].layout;
        l.lane_copies = match (&node.op, shapes[i]) {
            (Op::Conv(_), _) => l.lane_copies,
            (Op::MaxPool { .. }, Shape::Map { w, .. }) => pooled_lanes(l.lane_copies, w).1,
            _ => 1,
        };
        let out = plans[i].layout;
        let only_convs = readers[i] > 0 && conv_readers[i] == readers[i];
        let (pad, replicas, copies) = need(graph, shapes, i, &out, only_convs);
        for &inp in &node.inputs {
            let l = &mut plans[inp].layout;
            l.pad = l.pad.max(pad);
            l.replicas = l.replicas.max(replicas);
            let so_far = if readers[inp] == 0 {
                copies
            } else {
                l.lane_copies
            };
            l.lane_copies = if so_far.min(copies) > 1 {
                so_far.max(copies)
            } else {
                1
            };
            readers[inp] += 1;
            conv_readers[inp] += usize::from(is_conv);
        }
    }

    // The first conv, alone on the network input with a patch that fits one
    // pass and one M-split, takes it as host-prepared im2col rows.
    let stem =
        (1..nodes.len()).find(|&j| plans[j].layout.replicas > 0 && nodes[j].inputs.contains(&0));
    if let (1, Some(stem), Shape::Map { c, .. }) = (readers[0], stem, shapes[0]) {
        if matches!(nodes[stem].op, Op::Conv(spec) if spec.k * spec.k * c <= 320 && spec.c_out <= 320)
        {
            plans[0].host = Some(stem);
        }
    }

    // Hemispheres something already depends on: the host writes the network
    // input east, everything lowered after it alternates sides.
    let mut pinned = vec![false; nodes.len()];
    pinned[0] = true;
    let mut lowered = 0;
    for (i, node) in nodes.iter().enumerate() {
        if plans[i].layout.replicas == 0 {
            continue;
        }
        if i > 0 {
            plans[i].layout.hemisphere = hemi(lowered);
        }
        lowered += 1;
        match (&node.op, node.inputs.as_slice(), shapes[i]) {
            (Op::MaxPool { .. }, &[input], Shape::Map { w, .. }) => {
                let (skew, copies) = pooled_lanes(plans[input].layout.lane_copies, w);
                (plans[i].layout.lane_skew, plans[i].layout.lane_copies) = (skew, copies);
                // A packed pool's tap maps flow outward through its input's
                // hemisphere and its partial maxima, results and scatter
                // maps outward through its output's: on one side they are
                // more than the 32 streams of a direction.
                if skew > 1 {
                    plans[i].layout.hemisphere = plans[input].layout.hemisphere.opposite();
                    pinned[i] = true;
                }
            }
            (Op::Add { .. }, &[a, b], _) => {
                let (shortcut, conv) = (a.min(b), a.max(b));
                let hosts = matches!(nodes[conv].op, Op::Conv(spec) if !spec.relu)
                    && readers[conv] == 1
                    && plans[0].host != Some(conv);
                let conv_written = match nodes[shortcut].op {
                    Op::Conv(_) => true,
                    Op::Add { .. } => plans[shortcut].host.is_some(),
                    _ => false,
                };
                let input = nodes[conv].inputs[0];
                let apart = plans[shortcut].layout.hemisphere.opposite();
                if hosts
                    && conv_written
                    && input != shortcut
                    && !(pinned[input] && plans[input].layout.hemisphere != apart)
                {
                    plans[input].layout.hemisphere = apart;
                    (pinned[input], pinned[shortcut]) = (true, true);
                    plans[i].host = Some(conv);
                }
            }
            _ => {}
        }
    }
    // A host conv writes its add's output, where and as the add would (only
    // now: a later host may still have moved an earlier add's hemisphere).
    for add in 1..nodes.len() {
        if let (Op::Add { .. }, Some(conv)) = (&nodes[add].op, plans[add].host) {
            plans[conv].layout = plans[add].layout;
        }
    }
    // A conv's gather across two padded rows takes the first row of a block
    // for zero: a lane-replicated map a conv reads has a border (a pool needs
    // none: it pools whole rows, or pixels). Only now are a pool's copies
    // known: its input's may exceed what its readers asked for.
    for (plan, &convs) in plans.iter_mut().zip(&conv_readers) {
        if plan.layout.lane_copies > 1 && convs > 0 {
            plan.layout.pad = plan.layout.pad.max(1);
        }
    }
    plans
}

/// The map node `i` was lowered to, which `reader` streams.
fn map_of<'a>(lowered: &'a [Probe], i: usize, reader: &Node) -> &'a FeatureMap {
    match &lowered[i] {
        Probe::Map(map) => map,
        _ => panic!("input {i} of {} is not a map", reader.name),
    }
}

/// Compiles a quantized graph to a TSP program.
///
/// # Panics
///
/// Panics on graphs the lowering does not support (e.g. dense on a map).
#[must_use]
pub fn compile(q: &QuantGraph, options: &CompileOptions) -> CompiledModel {
    let mut s = Scheduler::new();
    let nodes = &q.graph.nodes;
    let shapes = q.graph.shapes();
    let plans = plan(&q.graph, &shapes);
    let live = |i: usize| plans[i].layout.replicas > 0;
    let mut lowered: Vec<Probe> = Vec::with_capacity(nodes.len());
    // Remaining-consumer counts, for freeing dead activations.
    let mut remaining: Vec<usize> = vec![0; nodes.len()];
    let lowered_nodes = nodes.iter().enumerate().filter(|&(i, _)| live(i));
    for &inp in lowered_nodes.flat_map(|(_, node)| &node.inputs) {
        remaining[inp] += 1;
    }
    let last = nodes.len() - 1;
    let mut input_kind: Option<InputKind> = None;
    let mut output: Vec<TensorHandle> = Vec::new();
    let mut spans = Vec::new();
    let dims = |i: usize| match shapes[i] {
        Shape::Map { h, w, c } => (h, w, c),
        Shape::Flat { .. } => panic!("{} is flat", nodes[i].name),
    };

    for (i, node) in nodes.iter().enumerate() {
        let start = s.completion();
        let out = plans[i].layout;
        let low: Probe = match (&node.op, plans[i].host) {
            _ if !live(i) => Probe::None,
            // Materialized as patches by its im2col conv below.
            (Op::Input { .. }, Some(_)) => Probe::None,
            (Op::Input { .. }, None) => {
                let fm = FeatureMap::alloc(&mut s, dims(i), out);
                input_kind = Some(InputKind::Map(fm.clone()));
                Probe::Map(fm)
            }
            (Op::Conv(spec), _) => {
                // A hosted add's ReLU is the chain's; its other operand the
                // shortcut (the host itself has no ReLU).
                let add = (i + 1..nodes.len()).find(|&a| plans[a].host == Some(i));
                let add = add.map(|add| &nodes[add]);
                let shortcut = add.map(|add| {
                    let other = add.inputs.iter().find(|&&inp| inp != i);
                    map_of(&lowered, *other.expect("an add has two operands"), add)
                });
                let qc = &q.conv[&i];
                let params = Conv2dParams {
                    stride: spec.stride,
                    pad: spec.pad,
                    requant_shift: qc.shift,
                    relu: add.map_or(spec.relu, |add| add.op == Op::Add { relu: true }),
                    out_pad: out.pad,
                    out_hemisphere: out.hemisphere,
                    out_replicas: out.replicas,
                };
                if plans[0].host == Some(i) {
                    let (fm, kind) = compile_im2col_conv(&mut s, qc, dims(0), &out, &params);
                    input_kind = Some(kind);
                    Probe::Map(fm)
                } else {
                    let input = map_of(&lowered, node.inputs[0], node);
                    // A tap per lane copy of the input goes into one pass; a
                    // lane-packed pool's skew is absorbed by the same columns
                    // at every lane group.
                    let lanes = (
                        packed_taps(qc.k, qc.ci, input.layout.lane_copies),
                        input.layout.lane_skew,
                        out.lane_copies,
                    );
                    // Nothing the conv streams while a weight block is due
                    // may share the block's slices: a 20-row weight read
                    // queued behind a pass-long burst arrives a pass late.
                    let keep_off: Vec<_> = (input.slices())
                        .chain(shortcut.iter().flat_map(|map| map.shortcut_slices()))
                        .collect();
                    // Which plane an M-split's chains run on — where its
                    // weights belong — follows from how the output is cut.
                    let chunks = RowSplit::of_conv(dims(i), &out).chunks.len();
                    let weights = emplace_conv(
                        &mut s,
                        (qc.k, qc.ci, qc.co),
                        lanes,
                        (1, chunks, &keep_off),
                        |co, ci, dy, dx| {
                            qc.w[(((co * qc.ci + ci) * qc.k + dy) * qc.k + dx) as usize]
                        },
                    );
                    Probe::Map(conv2d_add(&mut s, input, &weights, shortcut, &params).0)
                }
            }
            (Op::MaxPool { k, stride, pad }, _) => {
                let params = MaxPoolParams {
                    kernel: *k,
                    stride: *stride,
                    pad: *pad,
                    out_pad: out.pad,
                    out_hemisphere: out.hemisphere,
                    out_replicas: out.replicas,
                    not_before: 0,
                };
                Probe::Map(max_pool(&mut s, map_of(&lowered, node.inputs[0], node), &params).0)
            }
            (Op::GlobalAvgPool, _) => {
                let input = map_of(&lowered, node.inputs[0], node);
                Probe::Flat(global_avg_pool(&mut s, input, q.gap_shift[&i], out.hemisphere).0)
            }
            (Op::Dense { relu, .. }, _) => {
                let Probe::Flat(parts) = &lowered[node.inputs[0]] else {
                    panic!("dense input not flat")
                };
                let keep_off: Vec<_> = parts.iter().flat_map(|t| t.layout.slices()).collect();
                let w = emplace_dense(&mut s, &q.dense[&i], &keep_off);
                let x_parts: Vec<Vec<TensorHandle>> =
                    parts.iter().map(|t| vec![t.clone()]).collect();
                let opts = MatmulOpts {
                    requant_shift: q.dense[&i].shift,
                    relu: *relu,
                    out_hemisphere: out.hemisphere,
                    ..MatmulOpts::default()
                };
                let (outs, _) = matmul(&mut s, &x_parts, &w, &opts);
                Probe::Flat(outs.into_iter().map(|mut v| v.remove(0)).collect())
            }
            // Computed by its host conv, whose entry it takes over.
            (Op::Add { .. }, Some(conv)) => std::mem::replace(&mut lowered[conv], Probe::None),
            (Op::Add { relu }, None) => {
                let a = map_of(&lowered, node.inputs[0], node);
                let b = map_of(&lowered, node.inputs[1], node);
                assert_eq!(
                    (a.layout.pad, b.layout.pad),
                    (out.pad, out.pad),
                    "residual pads must match at {}",
                    node.name
                );
                assert_eq!(
                    (a.layout.lane_skew, b.layout.lane_skew),
                    (1, 1),
                    "an add reads lanes as stored"
                );
                let parts = (a.parts.iter().zip(&b.parts))
                    .map(|(pa, pb)| {
                        // One pipelined pass: add on one ALU, chained ReLU on
                        // a second, replicas tapping the final stream (§II-E).
                        tsp_compiler::kernels::elementwise::binary_ew_fused(
                            &mut s,
                            BinaryAluOp::AddSat,
                            &pa[0],
                            &pb[0],
                            out.hemisphere,
                            BankPolicy::High,
                            0,
                            out.replicas,
                            *relu,
                        )
                        .0
                    })
                    .collect();
                Probe::Map(FeatureMap::new(dims(i), out, parts))
            }
        };
        match &low {
            Probe::Map(map) => {
                assert_eq!(map.layout, out, "{} is not laid out as planned", node.name)
            }
            Probe::Flat(parts) => output = parts.clone(),
            Probe::None => {}
        }
        spans.push(LayerSpan {
            name: node.name.clone(),
            start,
            end: s.completion(),
        });
        lowered.push(low);
        // Free inputs whose last consumer this node was (never the output,
        // and never the network input — the host owns it).
        let read: &[usize] = if live(i) { &node.inputs } else { &[] };
        for &inp in read {
            remaining[inp] -= 1;
            if remaining[inp] == 0 && inp != 0 && inp != last {
                let tensors: Vec<&TensorHandle> = match &lowered[inp] {
                    Probe::Map(fm) => fm.parts.iter().flatten().collect(),
                    Probe::Flat(parts) => parts.iter().collect(),
                    Probe::None => Vec::new(),
                };
                for t in tensors {
                    s.alloc.free(t);
                }
            }
        }
        if !options.overlap {
            let c = s.completion();
            s.fence(c);
        }
    }

    let cycles = s.completion() + u64::from(tsp_arch::timing::SLICE_TILES);
    let rollbacks = s.rollbacks();
    let constants = s.take_constants();
    let (fresh, written) = (s.fresh_rows(), s.written_rows());
    let restore_set = RestoreSet::new(&fresh, &written, &constants);
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
        probes: lowered,
        fresh,
        written,
        restore_set,
        id: NEXT_MODEL_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        decoded: std::sync::OnceLock::new(),
    }
}

/// The next [`CompiledModel::id`].
static NEXT_MODEL_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

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

/// Localizes a simulator-vs-[`run_int8`] disagreement: compiles every graph
/// *prefix* `nodes[..=i]` — so node `i` is the prefix's output, which
/// [`compile`] never frees, and its [`Probe`] is safe to read — runs it on a
/// fresh chip, and returns the first node whose activation differs from the
/// reference, with the number of differing values. `None` when every node
/// agrees. One compile and one functional run per node: seconds for a small
/// graph, minutes for a ResNet at 224×224.
///
/// # Panics
///
/// Panics if a prefix does not run cleanly, or a probe's shape does not match
/// the reference's.
#[must_use]
pub fn first_divergence(q: &QuantGraph, image: &[i8]) -> Option<(String, usize)> {
    let reference = run_int8(q, image);
    (1..q.graph.nodes.len()).find_map(|i| {
        let prefix = QuantGraph {
            graph: Graph {
                nodes: q.graph.nodes[..=i].to_vec(),
            },
            ..q.clone()
        };
        let model = compile(&prefix, &CompileOptions::default());
        let mut chip = Chip::new(ChipConfig::asic());
        model.load_constants(&mut chip);
        model.write_input(&mut chip, image);
        chip.run(&model.program, &tsp_sim::chip::RunOptions::default())
            .expect("prefix must run without scheduling faults");
        let lane = |t: &TensorHandle, row: u32, lane: usize| {
            chip.memory.read_unchecked(t.row(row)).lane(lane) as i8
        };
        let differing = match (&model.probes[i], &reference[i]) {
            (Probe::Map(map), ValueQ::Map { c, data, .. }) => data
                .iter()
                .enumerate()
                .filter(|&(j, &want)| {
                    let (px, ch) = (j as u32 / c, j as u32 % c);
                    let (y, x) = (px / map.w, px % map.w);
                    // A lane-packed pool leaves pixel `x` at lane group
                    // `x mod lane_skew` (whole superlanes per group).
                    let first = x % map.layout.lane_skew * c.div_ceil(16) * 16;
                    lane(
                        &map.parts[(ch / 320) as usize][0],
                        map.row_index(y, x),
                        (first + ch % 320) as usize,
                    ) != want
                })
                .count(),
            (Probe::Flat(parts), ValueQ::Flat(data)) => data
                .iter()
                .enumerate()
                .filter(|&(j, &want)| lane(&parts[j / 320], 0, j % 320) != want)
                .count(),
            (Probe::None, _) => 0,
            (probe, _) => panic!("probe {probe:?} does not match the reference's shape"),
        };
        (differing > 0).then(|| (q.graph.nodes[i].name.clone(), differing))
    })
}

/// Lowers the first conv as a dense matmul over host-im2col'ed patches: a 1×1
/// conv over the patch's `k²·c_in` lanes (ordered `(ky·k + kx)·c_in + ci`)
/// through the row-split lowering every other conv uses, each chunk reading
/// its own patch tensor and its own copy of the weights.
fn compile_im2col_conv(
    s: &mut Scheduler,
    qc: &QConv,
    (h, w, c): (u32, u32, u32),
    out: &MapLayout,
    params: &Conv2dParams,
) -> (FeatureMap, InputKind) {
    let k = qc.k;
    let oh = (h + 2 * params.pad - k) / params.stride + 1;
    let ow = (w + 2 * params.pad - k) / params.stride + 1;
    let kdim = k * k * c; // ≤ 320, as is c_out: the planner's condition
    let split = RowSplit::new(oh, ow, 4, out);

    // Per chunk: a weight copy and a patch tensor, all slice-disjoint so the
    // four chains' reads never queue behind one another.
    let weights = emplace_conv(
        s,
        (1, kdim, qc.co),
        (1, 1, out.lane_copies),
        (split.chunks.len() as u8, split.chunks.len(), &[]),
        |co, lane, _, _| {
            let (off, ci) = (lane / c, lane % c);
            qc.w[(((co * qc.ci + ci) * k + off / k) * k + off % k) as usize]
        },
    );
    let [copies] = weights.passes[0][0].as_slice() else {
        panic!("im2col path supports c_out ≤ 320")
    };
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
        feeds: vec![(0..patches[ci].rows).collect()],
    };
    let shape = (oh, ow, qc.co);
    let (parts, _) = conv_passes(s, shape, &split, 1, &pass, None, params);

    let kind = InputKind::Im2col {
        pixels: split.chunks.into_iter().map(|c| c.pixels).collect(),
        chunks: patches,
        geometry: (k, params.stride, params.pad, h, w, c, ow),
    };
    (FeatureMap::new(shape, *out, parts), kind)
}
