//! Dynamic instruction stream records.

use std::fmt;

use crate::instr::{ControlKind, Instr};
use crate::program::Addr;

/// One executed dynamic instruction: the unit of the oracle stream the
/// timing simulator replays.
///
/// The functional [`crate::Interpreter`] produces these in program order.
/// Together they record everything the timing model needs: the PC, the
/// decoded instruction, the *architectural* next PC (i.e. the correct-path
/// successor), the branch outcome, and the data address touched.
///
/// The fields are laid out in declaration order, which puts the 12-byte
/// [`Instr`] at offset 4. The interpreter assembles an `Instr` as a
/// 4-byte head and an 8-byte tail, and at offset 4 a record copies it in
/// the same two pieces; at the offset Rust's reordering picked (16), the
/// copy into the record queue read an 8-byte word back across both
/// stores, which the CPU cannot forward from its store buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct ExecRecord {
    /// Address of the instruction.
    pub pc: Addr,
    /// The instruction itself.
    pub instr: Instr,
    /// Address of the next correct-path instruction.
    pub next_pc: Addr,
    /// For conditional branches: whether the branch was taken. `false` for
    /// everything else.
    pub taken: bool,
    /// For loads/stores: the word address accessed.
    pub mem_addr: Option<u64>,
}

impl ExecRecord {
    /// The control-flow class of the executed instruction.
    #[must_use]
    pub fn control_kind(&self) -> ControlKind {
        self.instr.control_kind()
    }

    /// Whether this record is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        self.instr.is_cond_branch()
    }
}

impl fmt::Display for ExecRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.pc, self.instr, self.next_pc)?;
        if self.is_cond_branch() {
            write!(f, " [{}]", if self.taken { "T" } else { "N" })?;
        }
        Ok(())
    }
}

/// Aggregate statistics over a dynamic instruction stream; used to
/// characterize workloads (average fetch-block size, branch mix, bias).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic taken conditional branches.
    pub taken_branches: u64,
    /// Dynamic unconditional direct jumps.
    pub jumps: u64,
    /// Dynamic direct calls.
    pub calls: u64,
    /// Dynamic returns.
    pub returns: u64,
    /// Dynamic indirect jumps + indirect calls.
    pub indirect: u64,
    /// Dynamic serializing traps.
    pub traps: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
}

impl StreamStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> StreamStats {
        StreamStats::default()
    }

    /// Accumulates one record.
    pub fn record(&mut self, rec: &ExecRecord) {
        self.instructions += 1;
        match rec.control_kind() {
            ControlKind::CondBranch => {
                self.cond_branches += 1;
                if rec.taken {
                    self.taken_branches += 1;
                }
            }
            ControlKind::Jump => self.jumps += 1,
            ControlKind::Call => self.calls += 1,
            ControlKind::Return => self.returns += 1,
            ControlKind::IndirectJump | ControlKind::IndirectCall => self.indirect += 1,
            ControlKind::Trap => self.traps += 1,
            ControlKind::None => {}
        }
        if rec.instr.is_load() {
            self.loads += 1;
        } else if rec.instr.is_store() {
            self.stores += 1;
        }
    }

    /// Average dynamic fetch-block size: instructions per block-ending
    /// control instruction (conditional branch, return, indirect, trap).
    ///
    /// Returns `None` when the stream contains no block terminators.
    #[must_use]
    pub fn avg_block_size(&self) -> Option<f64> {
        let terminators = self.cond_branches + self.returns + self.indirect + self.traps;
        if terminators == 0 {
            None
        } else {
            Some(self.instructions as f64 / terminators as f64)
        }
    }

    /// Fraction of dynamic instructions that are conditional branches.
    #[must_use]
    pub fn cond_branch_ratio(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cond_branches as f64 / self.instructions as f64
        }
    }
}

impl std::iter::Extend<ExecRecord> for StreamStats {
    fn extend<T: IntoIterator<Item = ExecRecord>>(&mut self, iter: T) {
        for r in iter {
            self.record(&r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;
    use crate::reg::Reg;

    fn rec(instr: Instr, taken: bool) -> ExecRecord {
        ExecRecord {
            pc: Addr::new(0),
            instr,
            next_pc: Addr::new(1),
            taken,
            mem_addr: None,
        }
    }

    #[test]
    fn stats_classify_control_flow() {
        let mut s = StreamStats::new();
        s.record(&rec(Instr::Nop, false));
        s.record(&rec(
            Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(0),
            },
            true,
        ));
        s.record(&rec(Instr::Ret, false));
        s.record(&rec(Instr::JumpInd { base: Reg::T0 }, false));
        s.record(&rec(
            Instr::Call {
                target: Addr::new(0),
            },
            false,
        ));
        s.record(&rec(
            Instr::Load {
                rd: Reg::T0,
                base: Reg::SP,
                offset: 0,
            },
            false,
        ));
        assert_eq!(s.instructions, 6);
        assert_eq!(s.cond_branches, 1);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.returns, 1);
        assert_eq!(s.indirect, 1);
        assert_eq!(s.calls, 1);
        assert_eq!(s.loads, 1);
    }

    #[test]
    fn avg_block_size_counts_terminators_only() {
        let mut s = StreamStats::new();
        for _ in 0..9 {
            s.record(&rec(Instr::Nop, false));
        }
        s.record(&rec(
            Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(0),
            },
            false,
        ));
        assert_eq!(s.avg_block_size(), Some(10.0));
    }

    #[test]
    fn avg_block_size_none_without_terminators() {
        let mut s = StreamStats::new();
        s.record(&rec(Instr::Nop, false));
        s.record(&rec(
            Instr::Jump {
                target: Addr::new(0),
            },
            false,
        ));
        assert_eq!(s.avg_block_size(), None);
    }

    #[test]
    fn display_marks_branch_outcome() {
        let r = rec(
            Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(0),
            },
            true,
        );
        assert!(r.to_string().contains("[T]"));
    }
}
