//! `tsp-prof resnet50 --stalls`: where the MXM planes' cycles go, read off a
//! compiled model's instruction queues alone — nothing is simulated and
//! nothing is asked of the scheduler that produced them.
//!
//! A plane's `ABC`s (port 1) are its **feeds**; a feed's read-out is the
//! `ACC` (port 2) dispatched the array delay after it, and a feed whose `ACC`
//! overwrites starts a **chain**. Of the gap between a feed and the end of the
//! feed before it on the same plane:
//!
//! * before a chain's first feed it is **hand-over** — the plane waiting for
//!   the chain's first operands: its **weights**, when the feed issues the
//!   cycle its `IW` completes, else its activations — **operands** — i.e.
//!   the layer before;
//! * inside a chain it is **in-chain stall**, less the `IW` latency when an
//!   install lies in the gap: weights, or a later activation stream, that did
//!   not arrive under the previous feed.
//!
//! Layers overlap — a conv feeds its first rows while its predecessor is
//! still writing — so a chain, with all its feeds, belongs to the layer whose
//! span ([`CompiledModel::layer_marks`]) holds the end of its last read-out;
//! a layer's figure is the maximum over the four planes, and the totals sum
//! those. The hand-over's split into weights late and operands late is summed
//! over the planes instead (the two add up to the four planes' hand-over).
//!
//! The **clear** column says when the padding border of a layer's output was
//! zeroed relative to its data. The zeros of a clear are `Read` from a
//! Low-bank word no constant covers (SRAM starts out zero and that bank holds
//! nothing else), and a `Write` consuming one of them is a border write; the
//! output's blocks are the model's own record ([`CompiledModel::probes`]).
//! `-`: nothing cleared in the program — no border, or a border on SRAM that
//! is fresh at entry (zero on a new chip, and restored by the host before a
//! rerun: `CompiledModel::restore`). `before`: the last border
//! write ended no later than the last data write. `after +n`: the fallback —
//! it ended `n` cycles later.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use tsp_arch::{Hemisphere, Slice, StreamId};
use tsp_compiler::sched::edge_hops;
use tsp_isa::{AccumulateMode, IcuOp, Instruction, MemOp, MxmOp, Plane, MXM_ARRAY_DELAY};
use tsp_nn::compile::{CompiledModel, Probe};
use tsp_sim::{IcuId, Program};

/// One `ABC` and what led up to it.
struct Feed {
    at: u64,
    rows: u64,
    /// Cycles since the previous feed on the plane ended.
    gap: u64,
    /// Its `ACC` overwrites: the first feed of a chain.
    first: bool,
    /// It issued the cycle the `IW` before it completed: its weights, not
    /// its activations, were the last to arrive.
    weights_late: bool,
}

fn feeds(program: &Program, plane: Plane) -> Vec<Feed> {
    let port = |port: u8| program.dispatches(IcuId::Mxm { plane, port });
    // A feed's `ACC` trails its `ABC` by the array delay.
    let overwrites: HashSet<u64> = port(2)
        .filter_map(|(t, i)| match i {
            Instruction::Mxm(MxmOp::Accumulate { mode, .. }) => {
                (*mode == AccumulateMode::Overwrite).then_some(t)
            }
            _ => None,
        })
        .collect();
    let installs: Vec<(u64, u64)> = port(3)
        .filter(|(_, i)| matches!(i, Instruction::Mxm(MxmOp::InstallWeights { .. })))
        .map(|(t, i)| (t, u64::from(i.time_model().d_func)))
        .collect();
    let abcs = port(1).filter_map(|(t, i)| match i {
        Instruction::Mxm(MxmOp::ActivationBuffer { rows, .. }) => Some((t, u64::from(*rows))),
        _ => None,
    });
    let (mut prev_at, mut prev_end) = (0u64, 0u64);
    let mut out = Vec::new();
    for (at, rows) in abcs {
        let first = overwrites.contains(&(at + u64::from(MXM_ARRAY_DELAY)));
        let install = (installs.iter()).find(|&&(t, _)| t > prev_at && t <= at);
        let idle = at - prev_end;
        out.push(Feed {
            at,
            rows,
            gap: if first {
                idle
            } else {
                idle.saturating_sub(install.map_or(0, |&(_, d)| d))
            },
            first,
            weights_late: install.is_some_and(|&(t, d)| t + d == at),
        });
        (prev_at, prev_end) = (at, at + rows);
    }
    out
}

/// A burst of `Write`s on one slice: `[at, at + len)` over words
/// `[word, word + len)`.
#[derive(Clone, Copy)]
struct Burst {
    at: u64,
    word: u16,
    len: u64,
    border: bool,
}

/// When a layer's border was cleared, relative to its data: the ends of the
/// last border burst and of the last data burst into its output's blocks.
#[derive(Clone, Copy, Default)]
struct Clear {
    border_end: u64,
    data_end: u64,
}

/// Per-layer [`Clear`]s, keyed by the index of the layer that wrote the data.
fn clears(model: &CompiledModel, layer_of: impl Fn(u64) -> usize) -> BTreeMap<usize, Clear> {
    let constant: HashSet<(Hemisphere, u8, u16)> = (model.constants.iter())
        .flat_map(|(t, _)| (0..t.rows).map(move |r| t.row(r)))
        .map(|a| (a.hemisphere, a.slice, a.word.word()))
        .collect();
    let program = &model.program;
    let mem_queues = || {
        program.queues().filter_map(|(icu, _)| match icu {
            IcuId::Mem { hemisphere, index } => Some((hemisphere, index, program.dispatches(icu))),
            _ => None,
        })
    };
    // A stream value is named by its direction, id and the cycle it leaves
    // the chip, wherever it is produced or consumed.
    let value = |stream: StreamId, h: Hemisphere, sl: u8, t: u64| {
        let edge = t + edge_hops(stream.direction, Slice::mem(h, sl).position());
        (stream.direction, stream.id, edge)
    };
    let mut zeros = HashSet::new();
    for (h, sl, queue) in mem_queues() {
        for (t, i) in queue {
            if let Instruction::Mem(op @ MemOp::Read { addr, stream }) = i {
                if addr.bank() == 0 && !constant.contains(&(h, sl, addr.word())) {
                    let at = t + u64::from(op.time_model().d_func);
                    zeros.insert(value(*stream, h, sl, at));
                }
            }
        }
    }
    let mut bursts: BTreeMap<(Hemisphere, u8), Vec<Burst>> = BTreeMap::new();
    for (h, sl, queue) in mem_queues() {
        let bursts = bursts.entry((h, sl)).or_default();
        let mut open = false;
        for (t, i) in queue {
            match i {
                Instruction::Mem(MemOp::Write { addr, stream }) => {
                    bursts.push(Burst {
                        at: t,
                        word: addr.word(),
                        len: 1,
                        border: zeros.contains(&value(*stream, h, sl, t)),
                    });
                    open = true;
                }
                Instruction::Icu(IcuOp::Repeat { n, .. }) if open => {
                    bursts.last_mut().expect("a burst is open").len += u64::from(*n);
                    open = false;
                }
                _ => open = false,
            }
        }
    }
    // A map's words are its own from the layer before its producer — where a
    // clear ahead of the data may land: their previous tenant was read by a
    // layer scheduled before that — to its producer's end.
    let mut out: BTreeMap<usize, Clear> = BTreeMap::new();
    for (i, probe) in model.probes.iter().enumerate() {
        let Probe::Map(map) = probe else { continue };
        // A lane-skewed map is scattered into, cleared whole beforehand.
        if map.layout.pad == 0 || map.layout.lane_skew > 1 {
            continue;
        }
        let from = i.checked_sub(2).map_or(0, |j| model.layer_spans[j].end);
        let until = model.layer_spans[i].end;
        let mut clear = Clear::default();
        for tensor in map.parts.iter().flatten() {
            let words = u64::from(tensor.layout.rows_per_block);
            for &(h, sl, base) in &tensor.layout.blocks {
                let block = u64::from(base)..u64::from(base) + words;
                let own = (bursts[&(h, sl)].iter())
                    .filter(|b| block.contains(&u64::from(b.word)) && b.at >= from && b.at < until);
                for burst in own {
                    let end = if burst.border {
                        &mut clear.border_end
                    } else {
                        &mut clear.data_end
                    };
                    *end = (*end).max(burst.at + burst.len);
                }
            }
        }
        if clear.border_end > 0 {
            out.insert(layer_of(clear.data_end.saturating_sub(1)), clear);
        }
    }
    out
}

/// The report: one row per layer that feeds an MXM plane or clears a border,
/// then the three totals.
#[must_use]
pub fn render(model: &CompiledModel) -> String {
    let marks = model.layer_marks();
    let layer_of = |t: u64| {
        let i = marks.partition_point(|m| m.end <= t);
        i.min(marks.len() - 1)
    };
    // `[layer][plane]`: feed rows, in-chain stall, hand-over, and the
    // hand-over of the chains whose weights came last.
    let mut cells = vec![[[0u64; 4]; Plane::COUNT as usize]; marks.len()];
    for plane in Plane::all() {
        let feeds = feeds(&model.program, plane);
        for chain in feeds.chunk_by(|_, next| !next.first) {
            let last = chain.last().expect("a chunk is not empty");
            let read_out = last.at + u64::from(MXM_ARRAY_DELAY) + last.rows;
            let cell = &mut cells[layer_of(read_out)][usize::from(plane.index())];
            for feed in chain {
                cell[0] += feed.rows;
                cell[if feed.first { 2 } else { 1 }] += feed.gap;
                if feed.first && feed.weights_late {
                    cell[3] += feed.gap;
                }
            }
        }
    }
    let clears = clears(model, layer_of);

    let mut out = String::from("# MXM feed census: per layer and plane, cycles feeding rows, stalled inside a chain, waiting for a chain's first operands (Σ p0..p3 of that wait: weights late, operands late)\n");
    let _ = writeln!(
        out,
        "{:<12} {:>6} | {:>23} {:>5} | {:>19} {:>4} | {:>23} {:>5} | {:>5} {:>5} | clear",
        "layer",
        "cycles",
        "feed rows p0..p3",
        "max",
        "in-chain p0..p3",
        "max",
        "hand-over p0..p3",
        "max",
        "wts",
        "ops"
    );
    let mut totals = [0u64; 3];
    let mut late = [0u64; 2];
    let mut late_layers = 0;
    let mut start = 0u64;
    for (i, mark) in marks.iter().enumerate() {
        let span = mark.end - start;
        start = mark.end;
        let clear = clears.get(&i);
        if cells[i].iter().flatten().all(|&v| v == 0) && clear.is_none() {
            continue;
        }
        let column = |k: usize, width: usize| {
            let per_plane: Vec<String> = (cells[i].iter())
                .map(|cell| format!("{:>width$}", cell[k]))
                .collect();
            let max = cells[i].iter().map(|cell| cell[k]).max().unwrap_or(0);
            (per_plane.join(" "), max)
        };
        let (rows, stall, wait) = (column(0, 5), column(1, 4), column(2, 5));
        for (total, max) in totals.iter_mut().zip([rows.1, stall.1, wait.1]) {
            *total += max;
        }
        let weights: u64 = cells[i].iter().map(|cell| cell[3]).sum();
        let operands = cells[i].iter().map(|cell| cell[2]).sum::<u64>() - weights;
        late[0] += weights;
        late[1] += operands;
        let clear = match clear {
            None => "-".to_string(),
            Some(c) if c.border_end <= c.data_end => "before".to_string(),
            Some(c) => {
                late_layers += 1;
                format!("after +{} (fallback)", c.border_end - c.data_end)
            }
        };
        let _ = writeln!(
            out,
            "{:<12} {:>6} | {} {:>5} | {} {:>4} | {} {:>5} | {weights:>5} {operands:>5} | {clear}",
            mark.name, span, rows.0, rows.1, stall.0, stall.1, wait.0, wait.1
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "compiled cycles        {:>7}", model.cycles);
    let _ = writeln!(out, "feed rows      (Σ max) {:>7}", totals[0]);
    let _ = writeln!(out, "in-chain stall (Σ max) {:>7}", totals[1]);
    let _ = writeln!(out, "hand-over      (Σ max) {:>7}", totals[2]);
    let _ = writeln!(out, "  weights late  (Σ p0..p3) {:>7}", late[0]);
    let _ = writeln!(out, "  operands late (Σ p0..p3) {:>7}", late[1]);
    let _ = writeln!(
        out,
        "border clears          {:>7} layers, {late_layers} cleared after their data (fallback)",
        clears.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_compiler::alloc::BankPolicy;
    use tsp_compiler::kernels::matmul::PlaneChainBuilder;
    use tsp_compiler::kernels::ActFeed;
    use tsp_compiler::Scheduler;

    /// Two passes of eight rows on an idle chip: the second feed cannot start
    /// before its 20-row `LW` — which may begin once the first `IW` is through,
    /// as the first feed starts — and its `IW` are done, 24 cycles after the
    /// first feed began; less the feed's own 8 rows and the `IW`, 12 stalled.
    #[test]
    fn a_short_feed_leaves_its_successors_weight_load_exposed() {
        let mut s = Scheduler::new();
        let acts = s.alloc.alloc(8, 320, BankPolicy::High, 4096).unwrap();
        let weights: Vec<_> = (0..2)
            .map(|_| s.alloc.alloc(320, 320, BankPolicy::Low, 20).unwrap())
            .collect();
        let rows: Vec<u32> = (0..8).collect();
        let plane = Plane::new(1);
        let mut chain = PlaneChainBuilder::new(&s, plane, 8, 0);
        for weights in &weights {
            PlaneChainBuilder::install(&mut s, weights, std::slice::from_mut(&mut chain));
            chain.feed(&mut s, ActFeed::Read(&acts), &rows);
        }
        let _ = chain.finish();
        let program = s.into_program().expect("valid schedule");
        let feeds = feeds(&program, plane);
        let seen: Vec<(u64, bool, u64)> = feeds.iter().map(|f| (f.rows, f.first, f.gap)).collect();
        assert_eq!(seen, [(8, true, feeds[0].at), (8, false, 12)]);
        assert!(super::feeds(&program, Plane::new(0)).is_empty());
    }

    /// A chain's first feed on an idle chip issues the cycle its `IW`
    /// completes: its weights came last. With its activations' slice held
    /// busy for a while, it waits for them instead.
    #[test]
    fn a_chain_start_is_weights_late_only_when_it_issues_at_its_install() {
        for held in [0u64, 500] {
            let mut s = Scheduler::new();
            let acts = s.alloc.alloc(8, 320, BankPolicy::High, 4096).unwrap();
            let weights = s.alloc.alloc(320, 320, BankPolicy::Low, 20).unwrap();
            let (h, sl, _) = acts.layout.blocks[0];
            s.occupy_mem(h, sl, held);
            let rows: Vec<u32> = (0..8).collect();
            let plane = Plane::new(2);
            let mut chain = PlaneChainBuilder::new(&s, plane, 8, 0);
            PlaneChainBuilder::install(&mut s, &weights, std::slice::from_mut(&mut chain));
            chain.feed(&mut s, ActFeed::Read(&acts), &rows);
            let _ = chain.finish();
            let program = s.into_program().expect("valid schedule");
            let feeds = feeds(&program, plane);
            assert_eq!(feeds.len(), 1);
            assert!(feeds[0].first);
            assert_eq!(feeds[0].weights_late, held == 0, "held until {held}");
            assert!(feeds[0].at > held);
        }
    }
}
