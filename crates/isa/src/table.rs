//! The paper's Table I ("Summary of instructions for each functional
//! slice"), transcribed row by row, and a markdown rendering of it. The rows
//! are text, not derived from the instruction enums; what ties the two is a
//! test: every sample instruction's mnemonic is named by a row of its area.

use crate::FunctionalArea;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaRow {
    /// Functional area ("ICU", "MEM", …).
    pub area: FunctionalArea,
    /// Instruction mnemonic and operand sketch.
    pub instruction: &'static str,
    /// Prose description.
    pub description: &'static str,
}

/// All rows of the ISA summary, in the paper's Table I order.
#[must_use]
pub fn isa_summary() -> Vec<IsaRow> {
    use FunctionalArea::*;
    let rows = [
        (Icu, "NOP N", "No-operation, can be repeated N times to delay by N cycles"),
        (Icu, "Ifetch", "Fetch instructions from streams or local memory"),
        (Icu, "Sync", "Parks at the head of the instruction dispatch queue to await barrier notification"),
        (Icu, "Notify", "Releases the pending barrier operations causing instruction flow to resume"),
        (Icu, "Config", "Configure low-power mode"),
        (Icu, "Repeat n, d", "Repeat the previous instruction n times, with d cycles between iterations"),
        (Mem, "Read a,s", "Load vector at address a onto stream s"),
        (Mem, "Write a,s", "Store stream s register contents into main memory address a"),
        (Mem, "Gather s, map", "Indirectly read addresses pointed to by map putting onto stream s"),
        (Mem, "Scatter s, map", "Indirectly store stream s into address in the map stream"),
        (Vxm, "unary operation", "z = op x point-wise operation on 1 operand producing 1 result (e.g. mask, negate)"),
        (Vxm, "binary operation", "z = x op y point-wise operations with 2 operands producing 1 result (e.g. add, mul, sub)"),
        (Vxm, "type conversions", "Converting fixed point to floating point, and vice versa"),
        (Vxm, "ReLU", "Rectified linear unit activation function max(0,x)"),
        (Vxm, "TanH", "Hyperbolic tangent - activation function"),
        (Vxm, "Exp", "Exponentiation e^x"),
        (Vxm, "RSqrt", "Reciprocal square root"),
        (Mxm, "LW", "Load weights (LW) from streams to weight buffer"),
        (Mxm, "IW", "Install weights (IW) from streams or LW buffer into the 320x320 array"),
        (Mxm, "ABC", "Activation buffer control (ABC) to initiate and coordinate arriving activations"),
        (Mxm, "ACC", "Accumulate (ACC) either INT32 or FP32 result from MXM"),
        (Sxm, "Shift up/down N", "Lane-shift streams up/down by N lanes, and Select between North/South shifted vectors"),
        (Sxm, "Permute map", "Bijective permute of 320 inputs to outputs"),
        (Sxm, "Distribute map", "Rearrange or replicate data within a superlane (16 lanes)"),
        (Sxm, "Rotate stream", "Rotate nxn input data to generate n^2 output streams with all possible rotations (n=3 or n=4)"),
        (Sxm, "Transpose sg16", "Transpose 16x16 elements producing 16 output streams with rows and columns interchanged"),
        (C2c, "Deskew", "Manage skew across plesiochronous links"),
        (C2c, "Send", "Send a 320-byte vector"),
        (C2c, "Receive", "Receive a 320-byte vector, emplacing it in main memory"),
    ];
    rows.into_iter()
        .map(|(area, instruction, description)| IsaRow {
            area,
            instruction,
            description,
        })
        .collect()
}

/// Renders the ISA summary as a markdown table (the regenerated Table I).
#[must_use]
pub fn isa_summary_markdown() -> String {
    let mut out = String::from("| Function | Instruction | Description |\n|---|---|---|\n");
    for row in isa_summary() {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            row.area, row.instruction, row.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_six_areas() {
        let rows = isa_summary();
        for area in FunctionalArea::ALL {
            assert!(
                rows.iter().any(|r| r.area == area),
                "no Table I rows for {area}"
            );
        }
    }

    /// Letters and digits only, lower case: "Shift up/down N" and "ShiftUp"
    /// then agree.
    fn squash(text: &str) -> String {
        let kept = text.chars().filter(char::is_ascii_alphanumeric);
        kept.map(|c| c.to_ascii_lowercase()).collect()
    }

    /// The words of a mnemonic, lower case: "ShiftDown" is "shift" and
    /// "down". An ALU operation's variant suffix (`mul_sat`) is not part of
    /// its name.
    fn words(mnemonic: &str) -> Vec<String> {
        let name = mnemonic.split('_').next().expect("a first piece");
        let mut words = vec![String::new()];
        let mut after_lower = false;
        for c in name.chars() {
            if after_lower && c.is_ascii_uppercase() {
                words.push(String::new());
            }
            after_lower = c.is_ascii_lowercase();
            words
                .last_mut()
                .expect("a word")
                .push(c.to_ascii_lowercase());
        }
        words
    }

    /// A row names a mnemonic by spelling each of its words — in its
    /// instruction column ("Shift up/down N" names `ShiftDown`) or, for an
    /// instruction sharing a row (`Select`, the ALU operations the "binary
    /// operation" row lists as "add, mul, sub"), in its description.
    #[test]
    fn every_sample_mnemonic_is_named_by_a_row_of_its_area() {
        let rows = isa_summary();
        for insn in crate::encode::tests::samples() {
            let mnemonic = insn.mnemonic();
            let named = rows.iter().any(|row| {
                let text = squash(&format!("{} {}", row.instruction, row.description));
                row.area == insn.area() && words(mnemonic).iter().all(|w| text.contains(w))
            });
            assert!(named, "no {} row of Table I names {mnemonic}", insn.area());
        }
    }

    #[test]
    fn matches_paper_row_count() {
        // Table I has 29 instruction rows.
        assert_eq!(isa_summary().len(), 29);
    }

    #[test]
    fn markdown_renders() {
        let md = isa_summary_markdown();
        assert!(md.contains("| MXM | LW |"));
        assert!(md.contains("| ICU | NOP N |"));
        assert!(md.lines().count() >= 31);
    }
}
