//! Functional interpreter producing the dynamic instruction stream.

use std::fmt;

use crate::instr::{Instr, MemWidth};
use crate::program::{Addr, Program};
use crate::reg::Reg;
use crate::stream::ExecRecord;

/// The in-word bit mask (before shifting) of a narrow access lane.
#[inline]
fn lane_mask(width: MemWidth) -> u64 {
    match width {
        MemWidth::Byte => 0xff,
        MemWidth::Half => 0xffff,
        MemWidth::Word => 0xffff_ffff,
    }
}

/// Errors raised during functional execution. These indicate a *workload*
/// bug (the synthetic benchmarks are expected to be well-formed), so the
/// timing layers treat them as fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the program (e.g. an indirect jump through a corrupted
    /// register).
    PcOutOfRange {
        /// The bad program counter.
        pc: Addr,
    },
    /// A load or store touched an address outside data memory.
    MemOutOfBounds {
        /// Address of the faulting instruction.
        pc: Addr,
        /// The faulting word address.
        addr: u64,
        /// Size of data memory in words.
        mem_words: u64,
    },
    /// A narrow (byte-addressed) access was not naturally aligned.
    MemUnaligned {
        /// Address of the faulting instruction.
        pc: Addr,
        /// The faulting byte address.
        addr: u64,
        /// Required alignment in bytes (the access width).
        bytes: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            ExecError::MemOutOfBounds {
                pc,
                addr,
                mem_words,
            } => write!(
                f,
                "memory access at {pc} touches word {addr:#x} outside {mem_words:#x}-word memory"
            ),
            ExecError::MemUnaligned { pc, addr, bytes } => write!(
                f,
                "misaligned {bytes}-byte access at {pc} to byte address {addr:#x}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// The architectural state of the machine: registers, data memory, PC.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u64; Reg::COUNT],
    mem: Vec<u64>,
    // The fast-forward executor commits straight-line runs directly.
    pub(crate) pc: Addr,
    pub(crate) retired: u64,
    halted: bool,
}

/// What one instruction did to control flow and data memory, as
/// reported by [`Machine::execute`] before the caller commits it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Effect {
    pub(crate) next_pc: Addr,
    taken: bool,
    mem_addr: Option<u64>,
}

/// Result of a single interpreter step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction executed.
    Executed(ExecRecord),
    /// The machine reached a `halt` and stopped.
    Halted,
}

impl Machine {
    /// Creates a machine with `mem_words` words of zeroed data memory.
    ///
    /// The stack pointer is initialized to the top of memory and grows
    /// down; the global pointer starts at 0.
    #[must_use]
    pub fn new(entry: Addr, mem_words: usize) -> Machine {
        let mut m = Machine {
            regs: [0; Reg::COUNT],
            mem: vec![0; mem_words],
            pc: entry,
            retired: 0,
            halted: false,
        };
        m.set_reg(Reg::SP, mem_words as u64 - 1);
        m
    }

    /// Reads register `r`.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes register `r`. Writes to the zero register are discarded.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Reads the data-memory word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range; use only for test/setup access.
    #[must_use]
    pub fn mem(&self, addr: u64) -> u64 {
        self.mem[addr as usize]
    }

    /// Copies `words` into memory starting at `base` (setup helper).
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load_image(&mut self, base: u64, words: &[u64]) {
        let base = base as usize;
        self.mem[base..base + words.len()].copy_from_slice(words);
    }

    /// Data memory size in words.
    #[must_use]
    pub fn mem_words(&self) -> usize {
        self.mem.len()
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Number of instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the machine has executed a `halt`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reconstructs a machine from fully explicit state, as captured by
    /// [`Machine::regs`] / [`Machine::memory`] and the scalar accessors.
    /// This is the checkpoint-restore constructor: no implicit
    /// initialisation (stack pointer, zeroing) is applied, so a machine
    /// rebuilt from another machine's state is bit-identical to it.
    #[must_use]
    pub fn from_parts(
        regs: [u64; Reg::COUNT],
        mem: Vec<u64>,
        pc: Addr,
        retired: u64,
        halted: bool,
    ) -> Machine {
        Machine {
            regs,
            mem,
            pc,
            retired,
            halted,
        }
    }

    /// The full register file, indexed by [`Reg::index`].
    #[must_use]
    pub fn regs(&self) -> &[u64; Reg::COUNT] {
        &self.regs
    }

    /// The full data memory image.
    #[must_use]
    pub fn memory(&self) -> &[u64] {
        &self.mem
    }

    fn data_addr(&self, pc: Addr, base: Reg, offset: i32) -> Result<u64, ExecError> {
        let addr = self.reg(base).wrapping_add(offset as i64 as u64);
        if (addr as usize) < self.mem.len() {
            Ok(addr)
        } else {
            Err(ExecError::MemOutOfBounds {
                pc,
                addr,
                mem_words: self.mem.len() as u64,
            })
        }
    }

    /// Resolves the *byte* address of a narrow access and checks natural
    /// alignment and bounds. Data memory is viewed as little-endian
    /// bytes packed eight to a word, so a naturally-aligned access never
    /// spans two backing words.
    fn narrow_addr(
        &self,
        pc: Addr,
        base: Reg,
        offset: i32,
        width: MemWidth,
    ) -> Result<u64, ExecError> {
        let addr = self.reg(base).wrapping_add(offset as i64 as u64);
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(ExecError::MemUnaligned { pc, addr, bytes });
        }
        let mem_bytes = (self.mem.len() as u64).saturating_mul(8);
        if addr.checked_add(bytes).is_none_or(|end| end > mem_bytes) {
            return Err(ExecError::MemOutOfBounds {
                pc,
                addr: addr >> 3,
                mem_words: self.mem.len() as u64,
            });
        }
        Ok(addr)
    }

    /// Reads a naturally-aligned narrow value at byte address `addr`.
    fn narrow_load(&self, addr: u64, width: MemWidth, signed: bool) -> u64 {
        let word = self.mem[(addr >> 3) as usize];
        let lane = (word >> ((addr & 7) * 8)) & lane_mask(width);
        match (width, signed) {
            (MemWidth::Byte, true) => lane as u8 as i8 as i64 as u64,
            (MemWidth::Half, true) => lane as u16 as i16 as i64 as u64,
            // Full words always land in the canonical sign-extended-32
            // register form regardless of `signed`.
            (MemWidth::Word, _) => lane as u32 as i32 as i64 as u64,
            (MemWidth::Byte | MemWidth::Half, false) => lane,
        }
    }

    /// Writes the low `width` bytes of `value` at byte address `addr`.
    fn narrow_store(&mut self, addr: u64, width: MemWidth, value: u64) {
        let shift = (addr & 7) * 8;
        let mask = lane_mask(width) << shift;
        let slot = &mut self.mem[(addr >> 3) as usize];
        *slot = (*slot & !mask) | ((value << shift) & mask);
    }

    /// Executes `instr` as the instruction at `pc`: updates registers and
    /// memory, and reports where control goes next. Returns `None` for
    /// `halt`. The PC, retired count and halt flag are left to the
    /// caller, which commits them once the next PC is known to be valid.
    ///
    /// This is the one definition of instruction semantics: [`Machine::step`]
    /// and the fast-forward executor both run every instruction through it.
    #[inline(always)]
    pub(crate) fn execute(&mut self, pc: Addr, instr: Instr) -> Result<Option<Effect>, ExecError> {
        let mut next_pc = pc.next();
        let mut taken = false;
        let mut mem_addr = None;

        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm as i64 as u64);
                self.set_reg(rd, v);
            }
            Instr::Li { rd, imm } => self.set_reg(rd, imm as i64 as u64),
            Instr::Load { rd, base, offset } => {
                let addr = self.data_addr(pc, base, offset)?;
                mem_addr = Some(addr);
                let v = self.mem[addr as usize];
                self.set_reg(rd, v);
            }
            Instr::Store { src, base, offset } => {
                let addr = self.data_addr(pc, base, offset)?;
                mem_addr = Some(addr);
                self.mem[addr as usize] = self.reg(src);
            }
            Instr::LoadN {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let addr = self.narrow_addr(pc, base, offset, width)?;
                mem_addr = Some(addr >> 3);
                let v = self.narrow_load(addr, width, signed);
                self.set_reg(rd, v);
            }
            Instr::StoreN {
                src,
                base,
                offset,
                width,
            } => {
                let addr = self.narrow_addr(pc, base, offset, width)?;
                mem_addr = Some(addr >> 3);
                let v = self.reg(src);
                self.narrow_store(addr, width, v);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                taken = cond.eval(self.reg(rs1), self.reg(rs2));
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Call { target } => {
                self.set_reg(Reg::RA, u64::from(pc.next()));
                next_pc = target;
            }
            Instr::Ret => next_pc = Addr::new(self.reg(Reg::RA) as u32),
            Instr::JumpInd { base } => next_pc = Addr::new(self.reg(base) as u32),
            Instr::CallInd { base } => {
                let target = Addr::new(self.reg(base) as u32);
                self.set_reg(Reg::RA, u64::from(pc.next()));
                next_pc = target;
            }
            Instr::Trap { .. } | Instr::Nop => {}
            Instr::Halt => return Ok(None),
        }
        Ok(Some(Effect {
            next_pc,
            taken,
            mem_addr,
        }))
    }

    /// Executes one instruction of `program`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the PC leaves the program or a memory
    /// access is out of bounds or misaligned.
    pub fn step(&mut self, program: &Program) -> Result<StepOutcome, ExecError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let instr = program.fetch(pc).ok_or(ExecError::PcOutOfRange { pc })?;
        let Some(effect) = self.execute(pc, instr)? else {
            self.halted = true;
            return Ok(StepOutcome::Halted);
        };
        if effect.next_pc.index() >= program.len() {
            return Err(ExecError::PcOutOfRange { pc: effect.next_pc });
        }
        self.pc = effect.next_pc;
        self.retired += 1;
        Ok(StepOutcome::Executed(ExecRecord {
            pc,
            instr,
            next_pc: effect.next_pc,
            taken: effect.taken,
            mem_addr: effect.mem_addr,
        }))
    }
}

/// Iterator adapter over [`Machine::step`]: yields the dynamic instruction
/// stream of a program until it halts, errs, or is dropped.
///
/// Errors stop iteration; check [`Interpreter::error`] afterwards. (The
/// synthetic workloads never err, which integration tests verify.)
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    program: &'p Program,
    machine: Machine,
    error: Option<ExecError>,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter over `program` with `mem_words` words of
    /// data memory.
    #[must_use]
    pub fn new(program: &'p Program, mem_words: usize) -> Interpreter<'p> {
        Interpreter {
            program,
            machine: Machine::new(program.entry(), mem_words),
            error: None,
        }
    }

    /// Creates an interpreter from a pre-initialized machine (e.g. with a
    /// loaded data image).
    #[must_use]
    pub fn with_machine(program: &'p Program, machine: Machine) -> Interpreter<'p> {
        Interpreter {
            program,
            machine,
            error: None,
        }
    }

    /// The underlying machine state.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The error that stopped iteration, if any.
    #[must_use]
    pub fn error(&self) -> Option<&ExecError> {
        self.error.as_ref()
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Fast-forwards up to `max_insts` instructions through the
    /// predecoded block cache without yielding records, returning how
    /// many retired. Architecturally bit-identical to draining the same
    /// count through [`Iterator::next`]; on a fault the error is latched
    /// (see [`Interpreter::error`]) and iteration stops, exactly as for
    /// stepped execution.
    pub fn fast_forward(&mut self, blocks: &crate::fastpath::BlockCache, max_insts: u64) -> u64 {
        if self.error.is_some() {
            return 0;
        }
        let before = self.machine.retired();
        match self.machine.fast_forward(self.program, blocks, max_insts) {
            Ok(n) => n,
            Err(e) => {
                self.error = Some(e);
                self.machine.retired() - before
            }
        }
    }
}

impl Iterator for Interpreter<'_> {
    type Item = ExecRecord;

    fn next(&mut self) -> Option<ExecRecord> {
        if self.error.is_some() {
            return None;
        }
        match self.machine.step(self.program) {
            Ok(StepOutcome::Executed(rec)) => Some(rec),
            Ok(StepOutcome::Halted) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::instr::Cond;

    #[test]
    fn straight_line_execution() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 5).addi(Reg::T0, Reg::T0, 3).halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        let recs: Vec<_> = i.by_ref().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(i.machine().reg(Reg::T0), 8);
        assert!(i.machine().is_halted());
        assert!(i.error().is_none());
    }

    #[test]
    fn loop_sums_integers() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label("top");
        let done = b.new_label("done");
        b.li(Reg::T0, 0).li(Reg::T1, 100).li(Reg::T2, 0);
        b.bind(top).unwrap();
        b.branch(Cond::Ge, Reg::T0, Reg::T1, done);
        b.add(Reg::T2, Reg::T2, Reg::T0);
        b.addi(Reg::T0, Reg::T0, 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        let n = i.by_ref().count();
        assert_eq!(i.machine().reg(Reg::T2), 4950);
        assert_eq!(n as u64, i.machine().retired());
    }

    #[test]
    fn call_and_return_through_link_register() {
        let mut b = ProgramBuilder::new();
        let func = b.new_label("func");
        let main = b.new_label("main");
        b.entry(main);
        b.bind(func).unwrap();
        b.li(Reg::A0, 42).ret();
        b.bind(main).unwrap();
        b.call(func).halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        let recs: Vec<_> = i.by_ref().collect();
        assert_eq!(i.machine().reg(Reg::A0), 42);
        // call, li, ret
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].instr.control_kind(), crate::ControlKind::Call);
        assert_eq!(recs[2].instr.control_kind(), crate::ControlKind::Return);
    }

    #[test]
    fn memory_roundtrip_and_stack_convention() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 99)
            .push_regs(&[Reg::T0])
            .li(Reg::T0, 0)
            .pop_regs(&[Reg::T0])
            .halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 128);
        let sp0 = i.machine().reg(Reg::SP);
        i.by_ref().for_each(drop);
        assert!(i.error().is_none());
        assert_eq!(i.machine().reg(Reg::T0), 99);
        assert_eq!(i.machine().reg(Reg::SP), sp0);
    }

    #[test]
    fn indirect_jump_through_register() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.la(Reg::T3, t).jr(Reg::T3).halt(); // halt is skipped
        b.bind(t).unwrap();
        b.li(Reg::T4, 7).halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        i.by_ref().for_each(drop);
        assert_eq!(i.machine().reg(Reg::T4), 7);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 1 << 20).load(Reg::T1, Reg::T0, 0).halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        i.by_ref().for_each(drop);
        assert!(matches!(i.error(), Some(ExecError::MemOutOfBounds { .. })));
    }

    #[test]
    fn branch_records_taken_flag_and_target() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.li(Reg::T0, 1).bnez(Reg::T0, t).nop();
        b.bind(t).unwrap();
        b.halt();
        let p = b.build().unwrap();
        let recs: Vec<_> = Interpreter::new(&p, 64).collect();
        let br = recs.iter().find(|r| r.is_cond_branch()).unwrap();
        assert!(br.taken);
        assert_eq!(br.next_pc, Addr::new(3));
    }

    #[test]
    fn zero_register_stays_zero() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::ZERO, 55).addi(Reg::ZERO, Reg::ZERO, 3).halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        i.by_ref().for_each(drop);
        assert_eq!(i.machine().reg(Reg::ZERO), 0);
    }

    #[test]
    fn trap_is_architectural_noop() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 3).trap(1).addi(Reg::T0, Reg::T0, 1).halt();
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, 64);
        let recs: Vec<_> = i.by_ref().collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(i.machine().reg(Reg::T0), 4);
    }
}
