//! An assembler-style program builder with labels and fixups.

use std::fmt;

use crate::instr::{AluOp, Cond, Instr};
use crate::program::{Addr, Program, ProgramError};
use crate::reg::Reg;

/// A forward-referenceable code label created by
/// [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was bound twice.
    DuplicateBind {
        /// The label's name.
        name: String,
    },
    /// A label was referenced but never bound.
    UnboundLabel {
        /// The label's name.
        name: String,
    },
    /// The assembled program failed validation.
    Invalid(ProgramError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::DuplicateBind { name } => write!(f, "label `{name}` bound twice"),
            AsmError::UnboundLabel { name } => {
                write!(f, "label `{name}` referenced but never bound")
            }
            AsmError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for AsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsmError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> AsmError {
        AsmError::Invalid(e)
    }
}

#[derive(Debug, Clone)]
struct LabelInfo {
    name: String,
    addr: Option<Addr>,
}

/// Incrementally builds a [`Program`].
///
/// Branch, jump, and call targets are [`Label`]s; they may be referenced
/// before being bound and are resolved when [`ProgramBuilder::build`] is
/// called. All emit methods return `&mut Self` for chaining.
///
/// # Example
///
/// ```
/// use tc_isa::{ProgramBuilder, Reg, Cond};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let end = b.new_label("end");
/// b.li(Reg::T0, 1).branch(Cond::Ne, Reg::T0, Reg::ZERO, end).nop();
/// b.bind(end)?;
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: Vec<LabelInfo>,
    /// Fixups: (instruction index, label) pairs to patch at build time.
    fixups: Vec<(usize, Label)>,
    entry: Addr,
}

impl ProgramBuilder {
    /// Creates an empty builder. The entry point defaults to address 0.
    #[must_use]
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Creates a fresh label with a diagnostic `name`.
    pub fn new_label(&mut self, name: impl Into<String>) -> Label {
        self.labels.push(LabelInfo {
            name: name.into(),
            addr: None,
        });
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::DuplicateBind`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<&mut Self, AsmError> {
        let at = self.cursor();
        let info = &mut self.labels[label.0];
        if info.addr.is_some() {
            return Err(AsmError::DuplicateBind {
                name: info.name.clone(),
            });
        }
        info.addr = Some(at);
        Ok(self)
    }

    /// Convenience: creates a label and immediately binds it here.
    pub fn here(&mut self, name: impl Into<String>) -> Label {
        let l = self.new_label(name);
        self.labels[l.0].addr = Some(self.cursor());
        l
    }

    /// Sets the program entry point to `label` (otherwise address 0).
    pub fn entry(&mut self, label: Label) -> &mut Self {
        // Recorded as a fixup against a synthetic index; resolved in build().
        self.fixups.push((usize::MAX, label));
        self
    }

    /// The address the next emitted instruction will occupy.
    #[must_use]
    pub fn cursor(&self) -> Addr {
        Addr::new(self.instrs.len() as u32)
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instructions have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    // --- ALU ---------------------------------------------------------

    /// Emits a register-register ALU operation.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Instr::Alu { op, rd, rs1, rs2 })
    }

    /// Emits a register-immediate ALU operation.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(Instr::AluImm { op, rd, rs1, imm })
    }

    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Add, rd, rs1, rs2)
    }

    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Sub, rd, rs1, rs2)
    }

    /// `rd = rs1 * rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Mul, rd, rs1, rs2)
    }

    /// `rd = rs1 / rs2` (signed)
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Div, rd, rs1, rs2)
    }

    /// `rd = rs1 % rs2` (signed)
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Rem, rd, rs1, rs2)
    }

    /// `rd = rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::And, rd, rs1, rs2)
    }

    /// `rd = rs1 | rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Or, rd, rs1, rs2)
    }

    /// `rd = rs1 ^ rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.alu(AluOp::Xor, rd, rs1, rs2)
    }

    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::Add, rd, rs1, imm)
    }

    /// `rd = rs1 * imm`
    pub fn muli(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::Mul, rd, rs1, imm)
    }

    /// `rd = rs1 & imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::And, rd, rs1, imm)
    }

    /// `rd = rs1 | imm`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::Or, rd, rs1, imm)
    }

    /// `rd = rs1 ^ imm`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::Xor, rd, rs1, imm)
    }

    /// `rd = rs1 << imm`
    pub fn shli(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::Shl, rd, rs1, imm)
    }

    /// `rd = rs1 >> imm` (logical)
    pub fn shri(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alui(AluOp::Shr, rd, rs1, imm)
    }

    /// `rd = imm`
    pub fn li(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.push(Instr::Li { rd, imm })
    }

    /// `rd = rs` (encoded as `rd = rs + 0`)
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    // --- Memory ------------------------------------------------------

    /// `rd = mem[base + offset]`
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i32) -> &mut Self {
        self.push(Instr::Load { rd, base, offset })
    }

    /// `mem[base + offset] = src`
    pub fn store(&mut self, src: Reg, base: Reg, offset: i32) -> &mut Self {
        self.push(Instr::Store { src, base, offset })
    }

    // --- Control -----------------------------------------------------

    /// Conditional branch to `target`.
    pub fn branch(&mut self, cond: Cond, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instr::Branch {
            cond,
            rs1,
            rs2,
            target: Addr::new(u32::MAX),
        })
    }

    /// `beq rs1, rs2, target`
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.branch(Cond::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, target`
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.branch(Cond::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, target`
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.branch(Cond::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, target`
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.branch(Cond::Ge, rs1, rs2, target)
    }

    /// Branch if `rs` is zero.
    pub fn beqz(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.beq(rs, Reg::ZERO, target)
    }

    /// Branch if `rs` is nonzero.
    pub fn bnez(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.bne(rs, Reg::ZERO, target)
    }

    /// Unconditional jump to `target`.
    pub fn jump(&mut self, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instr::Jump {
            target: Addr::new(u32::MAX),
        })
    }

    /// Direct call to `target` (`ra = return address`).
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instr::Call {
            target: Addr::new(u32::MAX),
        })
    }

    /// Return through the link register.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Instr::Ret)
    }

    /// Indirect jump through `base`.
    pub fn jr(&mut self, base: Reg) -> &mut Self {
        self.push(Instr::JumpInd { base })
    }

    /// Indirect call through `base`.
    pub fn callr(&mut self, base: Reg) -> &mut Self {
        self.push(Instr::CallInd { base })
    }

    /// Serializing trap.
    pub fn trap(&mut self, code: u16) -> &mut Self {
        self.push(Instr::Trap { code })
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Halt (stops the interpreter).
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// Loads the *address* of a label into `rd` (for indirect jumps and
    /// jump tables). Resolved at build time into a `li`.
    pub fn la(&mut self, rd: Reg, target: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), target));
        self.push(Instr::Li { rd, imm: i32::MAX })
    }

    // --- Stack helpers (software convention, SP-relative) -------------

    /// Pushes `regs` onto the stack (decrements SP by `regs.len()` then
    /// stores each register).
    pub fn push_regs(&mut self, regs: &[Reg]) -> &mut Self {
        self.addi(Reg::SP, Reg::SP, -(regs.len() as i32));
        for (i, &r) in regs.iter().enumerate() {
            self.store(r, Reg::SP, i as i32);
        }
        self
    }

    /// Pops `regs` off the stack (loads each register then increments SP).
    /// Must mirror the corresponding [`ProgramBuilder::push_regs`].
    pub fn pop_regs(&mut self, regs: &[Reg]) -> &mut Self {
        for (i, &r) in regs.iter().enumerate() {
            self.load(r, Reg::SP, i as i32);
        }
        self.addi(Reg::SP, Reg::SP, regs.len() as i32)
    }

    /// Resolves all fixups and validates the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound, or [`AsmError::Invalid`] if validation fails.
    pub fn build(&self) -> Result<Program, AsmError> {
        let mut instrs = self.instrs.clone();
        let mut entry = self.entry;
        let mut address_taken = Vec::new();
        for &(at, label) in &self.fixups {
            let info = &self.labels[label.0];
            let addr = info.addr.ok_or_else(|| AsmError::UnboundLabel {
                name: info.name.clone(),
            })?;
            if at == usize::MAX {
                entry = addr;
                continue;
            }
            match &mut instrs[at] {
                Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                    *target = addr;
                }
                Instr::Li { imm, .. } => {
                    // An `la`: the label's address escapes into a register,
                    // making it a candidate indirect-transfer target.
                    *imm = addr.raw() as i32;
                    address_taken.push(addr);
                }
                other => unreachable!("fixup against non-relocatable instruction {other}"),
            }
        }
        Ok(Program::with_address_taken(instrs, entry, address_taken)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_references_resolve() {
        let mut b = ProgramBuilder::new();
        let fwd = b.new_label("fwd");
        b.jump(fwd).nop();
        b.bind(fwd).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(
            p.fetch(Addr::new(0)),
            Some(Instr::Jump {
                target: Addr::new(2)
            })
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("dangling");
        b.jump(l);
        assert!(matches!(b.build(), Err(AsmError::UnboundLabel { .. })));
    }

    #[test]
    fn duplicate_bind_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("x");
        b.bind(l).unwrap();
        assert!(matches!(b.bind(l), Err(AsmError::DuplicateBind { .. })));
    }

    #[test]
    fn la_resolves_to_label_address() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.la(Reg::T0, t).jr(Reg::T0).nop();
        b.bind(t).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(
            p.fetch(Addr::new(0)),
            Some(Instr::Li {
                rd: Reg::T0,
                imm: 3
            })
        );
    }

    #[test]
    fn la_records_address_taken() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.la(Reg::T0, t).la(Reg::T1, t).jr(Reg::T0);
        b.bind(t).unwrap();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.address_taken(), &[Addr::new(3)]);
    }

    #[test]
    fn plain_li_is_not_address_taken() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 2).halt();
        let p = b.build().unwrap();
        assert!(p.address_taken().is_empty());
    }

    #[test]
    fn entry_label_sets_entry_point() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        b.halt(); // addr 0: not the entry
        b.bind(main).unwrap();
        b.entry(main);
        b.nop().halt();
        let p = b.build().unwrap();
        assert_eq!(p.entry(), Addr::new(1));
    }

    #[test]
    fn push_pop_regs_are_symmetric_in_length() {
        let mut b = ProgramBuilder::new();
        b.push_regs(&[Reg::RA, Reg::S0]);
        let after_push = b.len();
        assert_eq!(after_push, 3); // addi + 2 stores
        b.pop_regs(&[Reg::RA, Reg::S0]);
        assert_eq!(b.len(), 6); // + 2 loads + addi
        b.halt();
        b.build().unwrap();
    }

    #[test]
    fn cursor_tracks_next_address() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.cursor(), Addr::new(0));
        b.nop().nop();
        assert_eq!(b.cursor(), Addr::new(2));
        assert!(!b.is_empty());
    }
}
