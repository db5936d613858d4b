//! Schedule visualization: renders a compiled program as a per-queue
//! timeline, the textual equivalent of the paper's Fig. 11 ("Example
//! instruction schedule for 3x3 max pool").

use tsp_sim::Program;

/// A listing of every instruction dispatch in `[from, to)`, one line per
/// dispatch, sorted by cycle then queue. NOPs are elided — they are the
/// timing glue, not the work.
#[must_use]
pub fn render_listing(program: &Program, from: u64, to: u64) -> String {
    let mut lines: Vec<(u64, String, String)> = Vec::new();
    for (icu, _) in program.queues() {
        for (t, i) in program.dispatches(icu) {
            if t >= from
                && t < to
                && !matches!(i, tsp_isa::Instruction::Icu(tsp_isa::IcuOp::Nop { .. }))
            {
                lines.push((t, icu.to_string(), i.to_string()));
            }
        }
    }
    lines.sort();
    let mut out = String::from("cycle    queue              instruction\n");
    for (t, q, i) in lines {
        out.push_str(&format!("{t:<8} {q:<18} {i}\n"));
    }
    out
}

/// A coarse Gantt chart: one row per queue, one column per `bin` cycles;
/// `#` marks bins where the queue dispatches real work, `.` idle/NOP.
#[must_use]
pub fn render_gantt(program: &Program, from: u64, to: u64, bin: u64) -> String {
    assert!(bin > 0, "zero bin");
    let cols = ((to - from).div_ceil(bin)) as usize;
    let mut out = String::new();
    for (icu, _) in program.queues() {
        let mut row = vec!['.'; cols];
        let mut any = false;
        for (t, i) in program.dispatches(icu) {
            let busy = !matches!(i, tsp_isa::Instruction::Icu(tsp_isa::IcuOp::Nop { .. }));
            if busy {
                let start = t.max(from);
                let end = (t + i.queue_cycles()).min(to);
                if start < end {
                    any = true;
                    for b in (start - from) / bin..=(end - 1 - from) / bin {
                        row[b as usize] = '#';
                    }
                }
            }
        }
        if any {
            out.push_str(&format!(
                "{:<18} |{}|\n",
                icu.to_string(),
                row.iter().collect::<String>()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::{Hemisphere, StreamId};
    use tsp_isa::{IcuOp, MemAddr, MemOp};
    use tsp_sim::IcuId;

    fn sample() -> Program {
        let mut p = Program::new();
        let mut b = p.builder(IcuId::Mem {
            hemisphere: Hemisphere::East,
            index: 0,
        });
        b.push(MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::east(0),
        });
        b.push(IcuOp::Nop { count: 10 });
        b.push(MemOp::Write {
            addr: MemAddr::new(1),
            stream: StreamId::east(1),
        });
        p
    }

    #[test]
    fn listing_elides_nops_and_sorts() {
        let s = render_listing(&sample(), 0, 100);
        assert!(s.contains("Read"));
        assert!(s.contains("Write"));
        assert!(!s.contains("NOP"));
        let read_at = s.find("Read").unwrap();
        let write_at = s.find("Write").unwrap();
        assert!(read_at < write_at);
    }

    #[test]
    fn gantt_marks_busy_bins() {
        let g = render_gantt(&sample(), 0, 12, 1);
        assert!(g.contains('#'));
        assert!(g.contains('.'));
    }
}
