//! Instruction definitions and static classification.

use std::fmt;

use crate::program::Addr;
use crate::reg::Reg;

/// Integer ALU operations.
///
/// Division follows the RISC-V convention: division by zero produces all
/// ones (`u64::MAX`) for `Div`/`Divu` and the dividend for `Rem`, rather
/// than trapping, so workloads never fault on data-dependent divisors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (3-cycle latency in the timing model).
    Mul,
    /// Signed division (12-cycle latency in the timing model).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Set if less-than, signed (1 or 0).
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
    /// 32-bit wrapping addition, result sign-extended to 64 bits.
    ///
    /// The `*w` operations give the RV32I translation (`tc-rv`) exact
    /// 32-bit wrap semantics while keeping every register value in the
    /// sign-extended-32-bit canonical form the translator guarantees.
    Addw,
    /// 32-bit wrapping subtraction, sign-extended.
    Subw,
    /// 32-bit logical shift left (amount masked to 5 bits), sign-extended.
    Sllw,
    /// 32-bit logical shift right, sign-extended.
    Srlw,
    /// 32-bit arithmetic shift right, sign-extended.
    Sraw,
}

/// Sign-extends the low 32 bits of a value to 64 bits.
#[inline]
fn sext32(x: u64) -> u64 {
    x as u32 as i32 as i64 as u64
}

impl AluOp {
    /// Evaluates the operation on two operand values.
    #[must_use]
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
            AluOp::Addw => sext32(a.wrapping_add(b)),
            AluOp::Subw => sext32(a.wrapping_sub(b)),
            AluOp::Sllw => sext32(u64::from((a as u32).wrapping_shl((b & 31) as u32))),
            AluOp::Srlw => sext32(u64::from((a as u32).wrapping_shr((b & 31) as u32))),
            AluOp::Sraw => ((a as u32 as i32).wrapping_shr((b & 31) as u32)) as i64 as u64,
        }
    }

    /// Execution latency of the operation in cycles, used by the timing
    /// model in `tc-engine`.
    #[must_use]
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 12,
            _ => 1,
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Addw => "addw",
            AluOp::Subw => "subw",
            AluOp::Sllw => "sllw",
            AluOp::Srlw => "srlw",
            AluOp::Sraw => "sraw",
        };
        f.write_str(s)
    }
}

/// Conditions for conditional branches, comparing two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// Evaluates the condition on two register values.
    #[must_use]
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// The opposite condition (`eval` of the negation is `!eval`).
    #[must_use]
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        };
        f.write_str(s)
    }
}

/// The control-flow class of an instruction, as seen by the front end.
///
/// This classification drives fetch-block formation and trace-segment
/// finalization in `tc-core`, following §3 of the paper:
///
/// * conditional branches terminate fetch blocks and count toward the
///   3-branch limit of a trace segment;
/// * unconditional direct jumps and calls do *not* terminate blocks within
///   trace segments;
/// * returns, indirect jumps/calls, and serializing traps force the pending
///   trace segment to be finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// Not a control instruction.
    None,
    /// Conditional direct branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (writes the link register).
    Call,
    /// Return (jumps to the link register).
    Return,
    /// Indirect jump through a register.
    IndirectJump,
    /// Indirect call through a register.
    IndirectCall,
    /// Serializing trap / system instruction.
    Trap,
}

impl ControlKind {
    /// Whether this instruction redirects the PC at all.
    #[must_use]
    pub fn is_control(self) -> bool {
        self != ControlKind::None
    }

    /// Whether the front end must terminate the *trace segment* after this
    /// instruction (returns, indirect branches, serializing instructions).
    #[must_use]
    pub fn ends_segment(self) -> bool {
        matches!(
            self,
            ControlKind::Return
                | ControlKind::IndirectJump
                | ControlKind::IndirectCall
                | ControlKind::Trap
        )
    }

    /// Whether the instruction's target comes from a register rather than
    /// the instruction encoding.
    #[must_use]
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            ControlKind::Return | ControlKind::IndirectJump | ControlKind::IndirectCall
        )
    }
}

/// Access width of a narrow (byte-addressed) memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl MemWidth {
    /// The access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// One fixed-width (4-byte) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate operand (sign-extended).
        imm: i32,
    },
    /// Load immediate: `rd = imm`.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// Load word: `rd = mem[rs1 + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset (sign-extended).
        offset: i32,
    },
    /// Store word: `mem[rs1 + offset] = src`.
    Store {
        /// Register holding the value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset (sign-extended).
        offset: i32,
    },
    /// Narrow load, *byte*-addressed: `rd = mem_bytes[rs1 + offset ..][..width]`.
    ///
    /// Data memory is viewed as little-endian bytes packed eight to a
    /// `u64` word; the effective byte address must be naturally aligned
    /// for `width`, so an access never spans two backing words. Used by
    /// the RV32I translation (`tc-rv`); the synthetic workloads use the
    /// word-addressed [`Instr::Load`].
    LoadN {
        /// Destination register.
        rd: Reg,
        /// Base address register (byte address).
        base: Reg,
        /// Byte offset (sign-extended).
        offset: i32,
        /// Access width.
        width: MemWidth,
        /// Sign-extend (`true`) or zero-extend the loaded value.
        signed: bool,
    },
    /// Narrow store, byte-addressed: `mem_bytes[rs1 + offset ..][..width] = src`.
    StoreN {
        /// Register holding the value to store (low `width` bytes used).
        src: Reg,
        /// Base address register (byte address).
        base: Reg,
        /// Byte offset (sign-extended).
        offset: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional direct branch: `if cond(rs1, rs2) goto target`.
    Branch {
        /// Branch condition.
        cond: Cond,
        /// First comparison register.
        rs1: Reg,
        /// Second comparison register.
        rs2: Reg,
        /// Branch target.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target.
        target: Addr,
    },
    /// Direct call: `ra = pc + 1; goto target`.
    Call {
        /// Call target.
        target: Addr,
    },
    /// Return: `goto ra`.
    Ret,
    /// Indirect jump: `goto regs[base]` (the register holds an instruction
    /// index, i.e. an [`Addr`] value).
    JumpInd {
        /// Register holding the target instruction index.
        base: Reg,
    },
    /// Indirect call: `ra = pc + 1; goto regs[base]`.
    CallInd {
        /// Register holding the target instruction index.
        base: Reg,
    },
    /// Serializing trap (models a syscall); architecturally a no-op.
    Trap {
        /// Trap code for diagnostics.
        code: u16,
    },
    /// No operation.
    Nop,
    /// Stops the interpreter; never fetched by the timing model.
    Halt,
}

impl Instr {
    /// The control-flow class of this instruction.
    #[must_use]
    pub fn control_kind(&self) -> ControlKind {
        match self {
            Instr::Branch { .. } => ControlKind::CondBranch,
            Instr::Jump { .. } => ControlKind::Jump,
            Instr::Call { .. } => ControlKind::Call,
            Instr::Ret => ControlKind::Return,
            Instr::JumpInd { .. } => ControlKind::IndirectJump,
            Instr::CallInd { .. } => ControlKind::IndirectCall,
            Instr::Trap { .. } => ControlKind::Trap,
            _ => ControlKind::None,
        }
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Instr::Branch { .. })
    }

    /// Whether this instruction accesses data memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this instruction is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::LoadN { .. })
    }

    /// Whether this instruction is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::StoreN { .. })
    }

    /// The destination register written by this instruction, if any.
    ///
    /// Calls report the link register [`Reg::RA`].
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match self {
            Instr::Alu { rd, .. } | Instr::AluImm { rd, .. } | Instr::Li { rd, .. } => *rd,
            Instr::Load { rd, .. } | Instr::LoadN { rd, .. } => *rd,
            Instr::Call { .. } | Instr::CallInd { .. } => Reg::RA,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// The source registers read by this instruction (up to two), excluding
    /// the hardwired zero register.
    #[must_use]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        self.source_pair()
            .map(|r| if r.is_zero() { None } else { Some(r) })
    }

    /// The two source registers, with [`Reg::ZERO`] standing for "no
    /// source": a consumer can read both without unwrapping, since the
    /// zero register is never written.
    #[must_use]
    #[inline]
    pub fn source_pair(&self) -> [Reg; 2] {
        match self {
            Instr::Alu { rs1, rs2, .. } | Instr::Branch { rs1, rs2, .. } => [*rs1, *rs2],
            Instr::AluImm { rs1: r, .. }
            | Instr::Load { base: r, .. }
            | Instr::LoadN { base: r, .. }
            | Instr::JumpInd { base: r }
            | Instr::CallInd { base: r } => [*r, Reg::ZERO],
            Instr::Store { src, base, .. } | Instr::StoreN { src, base, .. } => [*src, *base],
            Instr::Ret => [Reg::RA, Reg::ZERO],
            _ => [Reg::ZERO, Reg::ZERO],
        }
    }

    /// Execution latency in cycles, excluding cache effects for memory
    /// operations.
    #[must_use]
    pub fn latency(&self) -> u32 {
        match self {
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => op.latency(),
            _ => 1,
        }
    }

    /// The statically-encoded direct target of this instruction, if any.
    #[must_use]
    pub fn direct_target(&self) -> Option<Addr> {
        match self {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                Some(*target)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, rd, rs1, rs2 } => write!(f, "{op} {rd}, {rs1}, {rs2}"),
            Instr::AluImm { op, rd, rs1, imm } => write!(f, "{op}i {rd}, {rs1}, {imm}"),
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Instr::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Instr::LoadN {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let m = match (width, signed) {
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Word, _) => "lw",
                };
                write!(f, "{m} {rd}, {offset}({base})")
            }
            Instr::StoreN {
                src,
                base,
                offset,
                width,
            } => {
                let m = match width {
                    MemWidth::Byte => "sb",
                    MemWidth::Half => "sh",
                    MemWidth::Word => "sw",
                };
                write!(f, "{m} {src}, {offset}({base})")
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "{cond} {rs1}, {rs2}, {target}")
            }
            Instr::Jump { target } => write!(f, "j {target}"),
            Instr::Call { target } => write!(f, "call {target}"),
            Instr::Ret => write!(f, "ret"),
            Instr::JumpInd { base } => write!(f, "jr {base}"),
            Instr::CallInd { base } => write!(f, "callr {base}"),
            Instr::Trap { code } => write!(f, "trap {code}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_matches_semantics() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), u64::MAX); // wraps
        assert_eq!(AluOp::Mul.eval(6, 7), 42);
        assert_eq!(AluOp::Div.eval(42, 6), 7);
        assert_eq!(AluOp::Div.eval(1, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(43, 6), 1);
        assert_eq!(AluOp::Rem.eval(43, 0), 43);
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0);
        assert_eq!(AluOp::Sra.eval((-8i64) as u64, 1), (-4i64) as u64);
    }

    #[test]
    fn word_ops_wrap_at_32_bits_and_sign_extend() {
        // 0x7fff_ffff + 1 overflows the 32-bit range and sign-extends.
        assert_eq!(AluOp::Addw.eval(0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(AluOp::Subw.eval(0, 1), u64::MAX);
        // Bits above 31 in the operands are ignored.
        assert_eq!(AluOp::Addw.eval(0xdead_0000_0000_0003, 4), 7);
        assert_eq!(AluOp::Sllw.eval(1, 31), 0xffff_ffff_8000_0000);
        assert_eq!(AluOp::Sllw.eval(1, 32), 1); // amount masked to 5 bits
        assert_eq!(AluOp::Srlw.eval(0xffff_ffff_8000_0000, 31), 1);
        assert_eq!(AluOp::Sraw.eval(0xffff_ffff_8000_0000, 31), u64::MAX);
        for op in [
            AluOp::Addw,
            AluOp::Subw,
            AluOp::Sllw,
            AluOp::Srlw,
            AluOp::Sraw,
        ] {
            assert_eq!(op.latency(), 1);
        }
    }

    #[test]
    fn narrow_memory_ops_classify_as_memory_accesses() {
        let load = Instr::LoadN {
            rd: Reg::T0,
            base: Reg::SP,
            offset: -2,
            width: MemWidth::Word,
            signed: true,
        };
        let store = Instr::StoreN {
            src: Reg::T1,
            base: Reg::SP,
            offset: 6,
            width: MemWidth::Half,
        };
        assert!(load.is_mem() && load.is_load() && !load.is_store());
        assert!(store.is_mem() && store.is_store() && !store.is_load());
        assert_eq!(load.dest(), Some(Reg::T0));
        assert_eq!(store.dest(), None);
        assert_eq!(load.sources(), [Some(Reg::SP), None]);
        assert_eq!(store.sources(), [Some(Reg::T1), Some(Reg::SP)]);
        assert_eq!(load.control_kind(), ControlKind::None);
        assert_eq!(load.to_string(), "lw t0, -2(sp)");
        assert_eq!(store.to_string(), "sh t1, 6(sp)");
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
    }

    #[test]
    fn signed_division_truncates_toward_zero() {
        assert_eq!(AluOp::Div.eval((-7i64) as u64, 2) as i64, -3);
        assert_eq!(AluOp::Rem.eval((-7i64) as u64, 2) as i64, -1);
    }

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
        let samples = [(0u64, 0u64), (1, 2), (2, 1), (u64::MAX, 0), (0, u64::MAX)];
        for c in conds {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in samples {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn control_kinds_classify_per_paper() {
        assert!(!Instr::Nop.control_kind().is_control());
        assert!(Instr::Ret.control_kind().ends_segment());
        assert!(Instr::JumpInd { base: Reg::T0 }
            .control_kind()
            .ends_segment());
        assert!(Instr::Trap { code: 0 }.control_kind().ends_segment());
        // Jumps and calls do not end segments (paper §3).
        assert!(!Instr::Jump {
            target: Addr::new(0)
        }
        .control_kind()
        .ends_segment());
        assert!(!Instr::Call {
            target: Addr::new(0)
        }
        .control_kind()
        .ends_segment());
        assert!(!Instr::Branch {
            cond: Cond::Eq,
            rs1: Reg::T0,
            rs2: Reg::T1,
            target: Addr::new(0)
        }
        .control_kind()
        .ends_segment());
    }

    #[test]
    fn dest_and_sources_ignore_zero_register() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::T1,
        };
        assert_eq!(i.dest(), None);
        assert_eq!(i.sources(), [None, Some(Reg::T1)]);
        assert_eq!(i.source_pair(), [Reg::ZERO, Reg::T1]);
    }

    #[test]
    fn calls_write_the_link_register() {
        assert_eq!(
            Instr::Call {
                target: Addr::new(5)
            }
            .dest(),
            Some(Reg::RA)
        );
        assert_eq!(Instr::CallInd { base: Reg::T0 }.dest(), Some(Reg::RA));
        assert_eq!(Instr::Ret.sources(), [Some(Reg::RA), None]);
        assert_eq!(Instr::Ret.source_pair(), [Reg::RA, Reg::ZERO]);
    }

    #[test]
    fn latency_uses_alu_op_latency() {
        let mul = Instr::Alu {
            op: AluOp::Mul,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Reg::T2,
        };
        assert_eq!(mul.latency(), 3);
        assert_eq!(Instr::Nop.latency(), 1);
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let instrs = [
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::T1,
                imm: -3,
            },
            Instr::Li {
                rd: Reg::T0,
                imm: 9,
            },
            Instr::Load {
                rd: Reg::T0,
                base: Reg::SP,
                offset: 1,
            },
            Instr::Store {
                src: Reg::T0,
                base: Reg::SP,
                offset: -1,
            },
            Instr::LoadN {
                rd: Reg::T0,
                base: Reg::SP,
                offset: 2,
                width: MemWidth::Half,
                signed: false,
            },
            Instr::StoreN {
                src: Reg::T0,
                base: Reg::SP,
                offset: 3,
                width: MemWidth::Byte,
            },
            Instr::Branch {
                cond: Cond::Ne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                target: Addr::new(3),
            },
            Instr::Jump {
                target: Addr::new(4),
            },
            Instr::Call {
                target: Addr::new(8),
            },
            Instr::Ret,
            Instr::JumpInd { base: Reg::T3 },
            Instr::CallInd { base: Reg::T3 },
            Instr::Trap { code: 7 },
            Instr::Nop,
            Instr::Halt,
        ];
        for i in instrs {
            assert!(!i.to_string().is_empty());
        }
    }
}
