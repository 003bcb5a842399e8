//! Fast functional dispatch: predecoded straight-line blocks let the
//! machine fast-forward at full interpreter speed without materialising a
//! per-step [`crate::ExecRecord`].
//!
//! The timing simulator consumes the dynamic instruction stream one
//! [`crate::ExecRecord`] at a time, which is exactly right when every
//! instruction is being timed — and pure overhead when the simulator only
//! needs to *skip ahead* (fast-forward before a sampled measurement
//! window, or to build a checkpoint). [`BlockCache`] predecodes a program
//! into straight-line runs; [`Machine::fast_forward`] then executes whole
//! runs in a tight loop with no per-instruction next-PC resolution, no
//! bounds re-checks on fall-through, and no record construction. Each
//! run's tail (the instruction that may redirect the PC or halt) is
//! committed the way [`Machine::step`] commits an instruction, with the
//! same halt handling and next-PC range check, but without fetching it
//! again through [`Program::fetch`] or building a record.
//!
//! The fast path has no instruction semantics of its own: the straight
//! prefix, the tail and `step` all execute through the same
//! `Machine::execute`.
//! It is therefore *architecturally bit-identical* to stepping: after
//! `fast_forward(p, &blocks, n)` the machine's registers, memory, PC,
//! retired count, and halt flag are exactly what `n` calls of
//! [`Machine::step`] would have produced, including the state at which an
//! [`ExecError`] is raised. The equivalence tests below drive both paths
//! in lockstep on toy programs, and `tc-workloads`' `lockstep` test on
//! every registered workload.

use crate::instr::Instr;
use crate::interp::{ExecError, Machine};
use crate::program::{Addr, Program};

/// Whether `instr` ends a straight-line run: any instruction that can
/// redirect the PC away from `pc + 1`, plus `halt`. Traps and nops fall
/// through architecturally and stay inside a run.
fn ends_run(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::JumpInd { .. }
            | Instr::CallInd { .. }
            | Instr::Halt
    )
}

/// Predecoded straight-line run lengths for a [`Program`].
///
/// `run_len(i)` is the number of instructions in the straight-line run
/// starting at instruction `i`: everything up to and including the first
/// PC-redirecting instruction or `halt` (or the last instruction of the
/// program). Every instruction before the run's tail is guaranteed to
/// fall through to `pc + 1` *inside* the program, so the fast-forward
/// executor retires them without per-instruction next-PC checks.
///
/// Construction is `O(program len)` (a single reverse scan) and the table
/// is immutable, so one cache can be shared across any number of
/// fast-forward calls over the same program.
#[derive(Debug, Clone)]
pub struct BlockCache {
    run_len: Vec<u32>,
}

impl BlockCache {
    /// Predecodes `program` into straight-line runs.
    #[must_use]
    pub fn new(program: &Program) -> BlockCache {
        let instrs = program.instrs();
        let mut run_len = vec![1u32; instrs.len()];
        // Reverse scan: a run either stops here (control / halt / end of
        // program) or extends the run that starts at the next instruction.
        for i in (0..instrs.len()).rev() {
            if !ends_run(instrs[i]) && i + 1 < instrs.len() {
                run_len[i] = run_len[i + 1] + 1;
            }
        }
        BlockCache { run_len }
    }

    /// Straight-line run length starting at `addr` (`None` if out of
    /// range).
    #[must_use]
    pub fn run_len(&self, addr: Addr) -> Option<u32> {
        self.run_len.get(addr.index()).copied()
    }

    /// Number of static instructions covered (equals the program length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.run_len.len()
    }

    /// Whether the cache covers no instructions (never true for a cache
    /// built from a validated program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run_len.is_empty()
    }
}

impl Machine {
    /// Executes up to `max_insts` instructions through the predecoded
    /// fast path, returning how many retired.
    ///
    /// Architecturally bit-identical to calling [`Machine::step`] in a
    /// loop: stops early on `halt` (the halt itself does not count, as in
    /// `step`), and faults leave the machine in exactly the state `step`
    /// would have left it (PC at the faulting instruction, prior
    /// instructions retired).
    ///
    /// `blocks` must have been built from this `program`; a cache from a
    /// different program produces unspecified (but still memory-safe)
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] under the same conditions as
    /// [`Machine::step`]: the PC leaving the program or an out-of-bounds
    /// or misaligned data access. Inspect [`Machine::retired`] for
    /// progress made before the fault.
    pub fn fast_forward(
        &mut self,
        program: &Program,
        blocks: &BlockCache,
        max_insts: u64,
    ) -> Result<u64, ExecError> {
        let instrs = program.instrs();
        let mut executed: u64 = 0;
        while executed < max_insts && !self.is_halted() {
            let pc = self.pc;
            let Some(run) = blocks.run_len(pc) else {
                return Err(ExecError::PcOutOfRange { pc });
            };
            // The straight-line prefix is every instruction before the
            // run's tail, cut short if the budget expires inside it.
            let remaining = max_insts - executed;
            let straight = (u64::from(run) - 1).min(remaining);
            self.run_straight(&instrs[pc.index()..pc.index() + straight as usize])?;
            executed += straight;
            if straight == remaining {
                break;
            }
            // The tail resolves control flow, halts and range-checks the
            // next PC through `step`'s own commit, with no record built.
            let at = self.pc;
            if self
                .execute_and_commit(at, instrs[at.index()], instrs.len())?
                .is_some()
            {
                executed += 1;
            }
        }
        Ok(executed)
    }

    /// Executes a straight-line slice of instructions starting at the
    /// current PC. Every instruction is known to fall through inside the
    /// program, so the PC advances by `window.len()` in one commit.
    ///
    /// On a memory fault, state is fixed up to match stepwise execution:
    /// PC at the faulting instruction, earlier instructions retired.
    fn run_straight(&mut self, window: &[Instr]) -> Result<(), ExecError> {
        let pc = self.pc;
        for (k, &instr) in window.iter().enumerate() {
            let at = pc.offset(k as u32);
            match self.execute(at, instr) {
                // The block cache ends every window before a control
                // instruction or `halt`; a foreign cache breaks that.
                Ok(effect) => debug_assert!(effect.is_some_and(|e| e.next_pc == at.next())),
                Err(e) => {
                    self.pc = at;
                    self.retired += k as u64;
                    return Err(e);
                }
            }
        }
        self.pc = pc.offset(window.len() as u32);
        self.retired += window.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::instr::{Cond, MemWidth};
    use crate::interp::{Interpreter, StepOutcome};
    use crate::reg::Reg;

    /// A program exercising every run shape: loops, calls/returns,
    /// indirect jumps, memory traffic, traps.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.new_label("top");
        let body = b.new_label("body");
        let func = b.new_label("func");
        let done = b.new_label("done");
        let fin = b.new_label("fin");
        let main = b.new_label("main");
        b.entry(main);
        b.bind(func).unwrap();
        b.add(Reg::A0, Reg::A0, Reg::A1).trap(1).ret();
        b.bind(main).unwrap();
        b.li(Reg::T0, 0).li(Reg::T1, 57).li(Reg::T2, 0);
        b.bind(top).unwrap();
        b.branch(Cond::Ge, Reg::T0, Reg::T1, done);
        b.bind(body).unwrap();
        b.add(Reg::A0, Reg::T2, Reg::ZERO)
            .add(Reg::A1, Reg::T0, Reg::ZERO)
            .call(func)
            .add(Reg::T2, Reg::A0, Reg::ZERO);
        b.store(Reg::T2, Reg::GP, 5)
            .load(Reg::T3, Reg::GP, 5)
            .addi(Reg::T0, Reg::T0, 1)
            .jump(top);
        b.bind(done).unwrap();
        b.la(Reg::T4, fin).jr(Reg::T4).nop();
        b.bind(fin).unwrap();
        b.halt();
        b.build().unwrap()
    }

    /// Drives `step` and `fast_forward` in lockstep with awkward chunk
    /// sizes and asserts bit-identical machine state at every boundary.
    #[test]
    fn fast_forward_matches_step_at_every_chunk_boundary() {
        let p = mixed_program();
        let blocks = BlockCache::new(&p);
        let mut slow = Machine::new(p.entry(), 64);
        let mut fast = Machine::new(p.entry(), 64);
        let mut chunk = 1u64;
        loop {
            let n = fast.fast_forward(&p, &blocks, chunk).unwrap();
            for _ in 0..n {
                match slow.step(&p).unwrap() {
                    StepOutcome::Executed(_) => {}
                    StepOutcome::Halted => panic!("slow halted before fast"),
                }
            }
            // Fast path may stop at a halt without retiring; let the slow
            // machine observe it too.
            if fast.is_halted() {
                assert!(matches!(slow.step(&p).unwrap(), StepOutcome::Halted));
            }
            assert_eq!(slow.pc(), fast.pc(), "pc diverged");
            assert_eq!(slow.retired(), fast.retired(), "retired diverged");
            assert_eq!(slow.is_halted(), fast.is_halted(), "halt diverged");
            for r in 0..Reg::COUNT {
                assert_eq!(
                    slow.reg(Reg::new(r as u8)),
                    fast.reg(Reg::new(r as u8)),
                    "register {r} diverged"
                );
            }
            for a in 0..64 {
                assert_eq!(slow.mem(a), fast.mem(a), "mem[{a}] diverged");
            }
            if fast.is_halted() {
                break;
            }
            chunk = (chunk * 3 + 1) % 17 + 1;
        }
        assert!(fast.retired() > 400, "program should run a while");
    }

    #[test]
    fn fast_forward_counts_exactly() {
        let p = mixed_program();
        let blocks = BlockCache::new(&p);
        let mut m = Machine::new(p.entry(), 64);
        assert_eq!(m.fast_forward(&p, &blocks, 100).unwrap(), 100);
        assert_eq!(m.retired(), 100);
        assert_eq!(m.fast_forward(&p, &blocks, 0).unwrap(), 0);
        assert_eq!(m.retired(), 100);
    }

    #[test]
    fn fast_forward_stops_at_halt_like_step() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 1).addi(Reg::T0, Reg::T0, 2).halt();
        let p = b.build().unwrap();
        let blocks = BlockCache::new(&p);
        let mut m = Machine::new(p.entry(), 64);
        assert_eq!(m.fast_forward(&p, &blocks, 1_000).unwrap(), 2);
        assert!(m.is_halted());
        assert_eq!(m.reg(Reg::T0), 3);
        // Further calls are no-ops, as with step.
        assert_eq!(m.fast_forward(&p, &blocks, 1_000).unwrap(), 0);
    }

    /// Every `ExecError` variant — memory faults inside a straight-line
    /// prefix, PC faults at a run's tail: `step` and `fast_forward` must
    /// stop with the same error in the same architectural state, and
    /// `Interpreter::for_each_record` must hand out the records `next`
    /// yields and stop at the same fault.
    #[test]
    fn fault_state_matches_step_fault_state() {
        let case = |build: &dyn Fn(&mut ProgramBuilder)| {
            let mut b = ProgramBuilder::new();
            build(&mut b);
            b.build().unwrap()
        };
        let cases: [(&str, Program, ExecError, u64); 5] = [
            (
                "out-of-bounds word load",
                case(&|b| {
                    b.li(Reg::T0, 1 << 20)
                        .li(Reg::T1, 7)
                        .load(Reg::T2, Reg::T0, 0)
                        .halt();
                }),
                ExecError::MemOutOfBounds {
                    pc: Addr::new(2),
                    addr: 1 << 20,
                    mem_words: 64,
                },
                2,
            ),
            (
                "misaligned narrow load",
                case(&|b| {
                    b.li(Reg::T0, 3).li(Reg::T1, 7).push(Instr::LoadN {
                        rd: Reg::T2,
                        base: Reg::T0,
                        offset: 0,
                        width: MemWidth::Half,
                        signed: true,
                    });
                    b.halt();
                }),
                ExecError::MemUnaligned {
                    pc: Addr::new(2),
                    addr: 3,
                    bytes: 2,
                },
                2,
            ),
            (
                "narrow store past the end of memory",
                case(&|b| {
                    b.li(Reg::T0, 64 * 8).li(Reg::T1, 7).push(Instr::StoreN {
                        src: Reg::T1,
                        base: Reg::T0,
                        offset: 0,
                        width: MemWidth::Byte,
                    });
                    b.halt();
                }),
                ExecError::MemOutOfBounds {
                    pc: Addr::new(2),
                    addr: 64,
                    mem_words: 64,
                },
                2,
            ),
            (
                "indirect jump past the program",
                case(&|b| {
                    b.li(Reg::T0, 1000).li(Reg::T1, 7).jr(Reg::T0).halt();
                }),
                ExecError::PcOutOfRange {
                    pc: Addr::new(1000),
                },
                2,
            ),
            (
                "fall-through off the end",
                case(&|b| {
                    b.li(Reg::T0, 5);
                }),
                ExecError::PcOutOfRange { pc: Addr::new(1) },
                0,
            ),
        ];
        for (name, p, want, want_retired) in cases {
            let blocks = BlockCache::new(&p);
            let mut slow = Machine::new(p.entry(), 64);
            let slow_err = loop {
                match slow.step(&p) {
                    Ok(StepOutcome::Executed(_)) => {}
                    Ok(StepOutcome::Halted) => panic!("{name}: step halted"),
                    Err(e) => break e,
                }
            };
            let mut fast = Machine::new(p.entry(), 64);
            let fast_err = fast.fast_forward(&p, &blocks, 1_000).unwrap_err();

            assert_eq!(slow_err, want, "{name}: step error");
            assert_eq!(fast_err, want, "{name}: fast_forward error");
            assert_eq!(slow.pc(), fast.pc(), "{name}: pc");
            assert_eq!(slow.retired(), want_retired, "{name}: step retired count");
            assert_eq!(slow.retired(), fast.retired(), "{name}: retired");
            assert_eq!(slow.regs(), fast.regs(), "{name}: registers");

            let mut by_next = Interpreter::new(&p, 64);
            let want_recs: Vec<_> = by_next.by_ref().collect();
            let mut batched = Interpreter::new(&p, 64);
            let mut recs = Vec::new();
            let ran = batched.for_each_record(1_000, |rec| recs.push(rec));
            assert_eq!(recs, want_recs, "{name}: records");
            assert_eq!(ran, want_retired, "{name}: records handed out");
            assert_eq!(by_next.error(), Some(&want), "{name}: next error");
            assert_eq!(batched.error(), Some(&want), "{name}: batch error");
            assert_eq!(batched.machine().pc(), slow.pc(), "{name}: batch pc");
            assert_eq!(
                batched.machine().regs(),
                slow.regs(),
                "{name}: batch registers"
            );
            // A latched fault ends the stream for good.
            assert_eq!(
                batched.for_each_record(1_000, |_| {}),
                0,
                "{name}: after fault"
            );
        }
    }

    #[test]
    fn run_lengths_cover_enders_and_program_end() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.li(Reg::T0, 1).addi(Reg::T0, Reg::T0, 1).jump(t);
        b.bind(t).unwrap();
        b.trap(0).nop().halt();
        let p = b.build().unwrap();
        let blocks = BlockCache::new(&p);
        assert_eq!(blocks.len(), 6);
        assert_eq!(blocks.run_len(Addr::new(0)), Some(3)); // li, addi, jump
        assert_eq!(blocks.run_len(Addr::new(3)), Some(3)); // trap, nop, halt
        assert_eq!(blocks.run_len(Addr::new(5)), Some(1)); // halt alone
        assert_eq!(blocks.run_len(Addr::new(6)), None);
    }
}
