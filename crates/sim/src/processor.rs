//! The whole-processor simulation loop.

use std::collections::VecDeque;

use tc_cache::MemoryHierarchy;
use tc_core::{
    FetchBundle, FrontEnd, InlineVec, NextPc, TerminationReason, MAX_SEGMENT_BRANCHES,
    MAX_SEGMENT_INSTS,
};
use tc_engine::{ExecutionEngine, IssueTimes};
use tc_fault::{FaultDraw, FaultInjector, FaultLocus, FaultStats};
use tc_isa::{Addr, BlockCache, ControlKind, ExecRecord, Interpreter, Machine, Program};
use tc_predict::ReturnStack;
use tc_trace::{ExecPhase, FetchOrigin, NoopTracer, TraceEvent, Tracer};
use tc_workloads::Workload;

use crate::config::{ExecutionMode, SimConfig};
use crate::plan::PlanStats;
use crate::report::{CycleAccounting, SamplingStats, SimReport};

/// Bubble charged when an indirect branch has no predicted target (the
/// address is produced at decode rather than fetch).
const MISFETCH_PENALTY: u64 = 2;

/// Cap on wrong-path fetches simulated per misprediction shadow (the
/// shadow itself can be long on a memory miss; fetch stops meaningfully
/// polluting after the machine would have filled its window).
const MAX_WRONG_PATH_FETCHES: u32 = 64;

#[derive(Debug, Default)]
struct Counters {
    issued: u64,
    cond_branches: u64,
    cond_mispredicts: u64,
    promoted_faults: u64,
    promoted_executed: u64,
    indirect_mispredicts: u64,
    indirect_executed: u64,
    return_mispredicts: u64,
    resolution_cycles: u64,
    resolution_events: u64,
    salvaged: u64,
    /// Per-class activity of plan-covered branches (all zero when no
    /// promotion plan is attached), indexed by `BranchClass::index`.
    class_execs: [u64; 4],
    class_promoted: [u64; 4],
    class_faults: [u64; 4],
}

impl Counters {
    /// Attributes one conditional-branch execution to its plan class;
    /// a `wrong` promoted branch is a promoted fault.
    fn record_class(
        &mut self,
        classes: Option<&std::collections::HashMap<u64, usize>>,
        pc: Addr,
        promoted: bool,
        wrong: bool,
    ) {
        let Some(&ci) = classes.and_then(|m| m.get(&pc.byte_addr())) else {
            return;
        };
        self.class_execs[ci] += 1;
        if promoted && wrong {
            self.class_faults[ci] += 1;
        } else if promoted {
            self.class_promoted[ci] += 1;
        }
    }
}

/// What went wrong with a fetch, if anything.
#[derive(Debug, Clone, Copy, Default)]
enum FetchUpshot {
    /// Everything on the predicted path.
    #[default]
    Clean,
    /// A conditional branch, promoted fault, return or indirect target
    /// was mispredicted; resolution completes at `done`.
    Mispredict { done: u64 },
    /// A return or indirect branch had no predicted target (or, under
    /// fault injection, the active path left the correct path): short
    /// bubble.
    Misfetch,
}

/// One fetch as the issue path sees it: when it issues, what its
/// instructions did, and how it ended.
#[derive(Debug, Default)]
struct FetchIssue {
    /// The cycle its instructions issue in.
    cycle: u64,
    upshot: FetchUpshot,
    /// Actual directions of the non-promoted conditional branches, for
    /// predictor training. A fetch carries at most three, and at most
    /// sixteen instructions, so both lists live on the stack.
    outcomes: InlineVec<bool, MAX_SEGMENT_BRANCHES>,
    /// Actual directions of every conditional branch, replayed into the
    /// global history on repair.
    history_replay: InlineVec<bool, MAX_SEGMENT_INSTS>,
    issued: usize,
    promoted: u64,
    last_times: Option<IssueTimes>,
    trap_fetched: bool,
}

/// Per-run mutable state threaded through the timing loop, so the loop
/// can be entered repeatedly (once per measurement window in sampled
/// mode) without resetting counters or the committed-RAS mirror.
#[derive(Debug)]
struct RunState {
    c: Counters,
    acct: CycleAccounting,
    /// Committed return-stack mirror for recovery — same geometry as
    /// the front end's speculative RAS.
    ras_mirror: ReturnStack,
    cycle: u64,
    last_retire: u64,
    /// The oracle stream ran out (program completed): no further
    /// windows can execute.
    ended: bool,
}

/// The simulated processor: front end + engine + memory, driven by a
/// workload's oracle instruction stream.
#[derive(Debug)]
pub struct Processor<T: Tracer = NoopTracer> {
    config: SimConfig,
    front_end: FrontEnd<T>,
    engine: ExecutionEngine,
    mem: MemoryHierarchy,
    injector: Option<FaultInjector>,
    fault: FaultStats,
    /// The one record queue. Each record the interpreter produces
    /// stays in place here until it retires: the first
    /// `engine.occupancy()` records are in flight (issued, in program
    /// order, so the engine's retire times line up with them), and the
    /// rest are the oracle look-ahead. Held as a field so measurement
    /// windows reuse the allocation.
    oracle: VecDeque<ExecRecord>,
    /// Byte address → plan class index, present when a promotion plan
    /// is attached; used to attribute branch activity per class.
    plan_classes: Option<std::collections::HashMap<u64, usize>>,
    /// Whether the one run has started.
    ran: bool,
}

impl Processor {
    /// Builds a processor from a configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Processor {
        Processor::with_tracer(config, NoopTracer)
    }
}

impl<T: Tracer> Processor<T> {
    /// Builds a processor whose front end reports events to `tracer`.
    #[must_use]
    pub fn with_tracer(config: SimConfig, tracer: T) -> Processor<T> {
        let mut front_end = match &config.static_promotion {
            Some(table) => {
                FrontEnd::with_static_promotion_and_tracer(config.front_end, table.clone(), tracer)
            }
            None => FrontEnd::with_tracer(config.front_end, tracer),
        };
        let plan_classes = config.promotion_plan.as_ref().map(|plan| {
            front_end.set_bias_overrides(plan.overrides());
            plan.class_indices()
        });
        Processor {
            front_end,
            engine: ExecutionEngine::new(config.engine),
            mem: MemoryHierarchy::new(config.hierarchy),
            injector: config.fault_plan.clone().map(FaultInjector::new),
            fault: FaultStats::default(),
            oracle: VecDeque::with_capacity(128),
            plan_classes,
            config,
            ran: false,
        }
    }

    /// The attached tracer.
    #[must_use]
    pub fn tracer(&self) -> &T {
        self.front_end.tracer()
    }

    /// Runs the workload to its dynamic-instruction budget (or
    /// completion) from a new machine and reports, honoring the
    /// configured [`ExecutionMode`].
    ///
    /// # Panics
    ///
    /// A processor runs once: a second `run` or [`Processor::run_from`]
    /// panics. Build a new processor for each run.
    pub fn run(&mut self, workload: &Workload) -> SimReport {
        self.run_from(workload, workload.machine())
    }

    /// Runs the workload starting from an explicit architectural
    /// `machine` state (typically restored from a checkpoint).
    ///
    /// A machine checkpointed at instruction `n` and resumed under
    /// [`ExecutionMode::FastForward`]`{ skip: n }` produces a report
    /// bit-identical to an unresumed `--fast-forward n` run: the mode's
    /// `skip` counts stream *position*, so instructions the restored
    /// machine has already retired count toward it.
    ///
    /// # Panics
    ///
    /// Panics if this processor has already run.
    pub fn run_from(&mut self, workload: &Workload, machine: Machine) -> SimReport {
        assert!(
            !std::mem::replace(&mut self.ran, true),
            "a Processor runs once; build a new one for each run"
        );
        let program = workload.program();
        let mut interp = Interpreter::with_machine(program, machine);
        let mut rs = RunState {
            c: Counters::default(),
            acct: CycleAccounting::default(),
            ras_mirror: ReturnStack::for_depth(self.config.front_end.ras_depth),
            cycle: 0,
            last_retire: 0,
            ended: false,
        };

        let sampling = match self.config.mode {
            ExecutionMode::FullTiming => {
                self.run_timing(program, &mut interp, &mut rs, self.config.max_insts);
                None
            }
            ExecutionMode::FastForward { skip } => {
                Some(self.run_fast_forward(program, &mut interp, &mut rs, skip))
            }
            ExecutionMode::Sample {
                warmup,
                measure,
                period,
            } => Some(self.run_sampled(program, &mut interp, &mut rs, warmup, measure, period)),
        };

        // Let the machine drain. `total_cycles` bounds every pending
        // retire time, so draining to it empties the window.
        let total_cycles = rs.cycle.max(rs.last_retire);
        self.drain_to(total_cycles);
        // Final sweep: audit every segment still resident in the cache.
        self.front_end.audit();

        assert!(
            interp.error().is_none(),
            "workload faulted: {:?}",
            interp.error()
        );
        self.report(workload, &rs.c, rs.acct, total_cycles, sampling)
    }

    /// Fast-forwards to stream position `skip` (counting instructions
    /// the machine has already retired), then times up to the
    /// configured budget.
    fn run_fast_forward(
        &mut self,
        program: &Program,
        interp: &mut Interpreter<'_>,
        rs: &mut RunState,
        skip: u64,
    ) -> SamplingStats {
        let mut stats = SamplingStats::default();
        let already = interp.machine().retired();
        let want = skip.saturating_sub(already);
        let mut skipped = 0;
        if want > 0 {
            let blocks = BlockCache::new(program);
            skipped = self.skip_ahead(interp, &blocks, want);
            if skipped < want {
                rs.ended = true;
            }
        }
        stats.fast_forwarded = already + skipped;
        self.mode_boundary(ExecPhase::FastForward, stats.fast_forwarded);
        if !rs.ended {
            self.run_timing(program, interp, rs, self.config.max_insts);
        }
        stats.measured = rs.c.issued;
        stats.windows = u64::from(rs.c.issued > 0);
        stats.total_stream = stats.fast_forwarded + stats.warmed + stats.measured;
        stats
    }

    /// SMARTS-style sampling: repeat (fast-forward, functional warm-up,
    /// timed measure) windows until the stream or the total budget runs
    /// out. `max_insts` bounds the *total* stream traversed, so a
    /// sampled run covers the same dynamic region as a full-timing run
    /// with the same budget.
    fn run_sampled(
        &mut self,
        program: &Program,
        interp: &mut Interpreter<'_>,
        rs: &mut RunState,
        warmup: u64,
        measure: u64,
        period: u64,
    ) -> SamplingStats {
        let mut stats = SamplingStats::default();
        let blocks = BlockCache::new(program);
        let skip_per_window = period - warmup - measure;
        let total = self.config.max_insts;
        let mut consumed = 0u64;

        while !rs.ended && consumed < total {
            // --- Fast-forward portion ---
            let want = skip_per_window.min(total - consumed);
            if want > 0 {
                let skipped = self.skip_ahead(interp, &blocks, want);
                consumed += skipped;
                stats.fast_forwarded += skipped;
                self.mode_boundary(ExecPhase::FastForward, skipped);
                if skipped < want {
                    break;
                }
            }
            // --- Functional warm-up ---
            let want = warmup.min(total - consumed);
            if want > 0 {
                let warmed = self.warm_up(interp, &mut rs.ras_mirror, want);
                consumed += warmed;
                stats.warmed += warmed;
                self.mode_boundary(ExecPhase::Warmup, warmed);
                if warmed < want {
                    break;
                }
            }
            // --- Timed measurement window ---
            let want = measure.min(total - consumed);
            if want == 0 {
                break;
            }
            self.front_end.restore_ras(&rs.ras_mirror);
            let before = rs.c.issued;
            self.run_timing(program, interp, rs, want);
            let measured = rs.c.issued - before;
            consumed += measured;
            stats.windows += 1;
            self.mode_boundary(ExecPhase::Measure, measured);
            if !rs.ended {
                // The pipeline drains across the (long) skipped region
                // before the next window attaches. `rs.cycle` has been
                // advanced past every pending retire time, so draining
                // to it empties the window.
                rs.cycle = rs.cycle.max(rs.last_retire);
                self.drain_to(rs.cycle);
            }
        }
        stats.measured = rs.c.issued;
        stats.total_stream = stats.fast_forwarded + stats.warmed + stats.measured;
        stats
    }

    /// Functionally warms the front end for up to `want` instructions:
    /// trains the conditional predictor and history, the indirect
    /// predictor, and (via retirement) the bias table, fill unit, and
    /// trace cache — without advancing timing. Loads and stores also
    /// touch the data-side hierarchy, so measurement windows do not
    /// start against a cold dcache/L2. Returns the number of
    /// instructions consumed (short only when the stream ends).
    fn warm_up(
        &mut self,
        interp: &mut Interpreter<'_>,
        ras_mirror: &mut ReturnStack,
        want: u64,
    ) -> u64 {
        debug_assert_eq!(
            self.engine.occupancy(),
            0,
            "warming starts with an empty window"
        );
        let mut warm = |rec: &ExecRecord| {
            mirror_ras(ras_mirror, rec);
            if let Some(addr) = rec.mem_addr {
                let _ = self.mem.data_access(addr * 8); // word -> byte address
            }
            self.front_end.warm(rec);
        };
        // Warming needs no look-ahead: the records already queued go
        // first, then the interpreter hands the rest of the window
        // straight to `warm`, with no copy through the queue.
        let queued = (self.oracle.len() as u64).min(want);
        for rec in self.oracle.drain(..queued as usize) {
            warm(&rec);
        }
        queued + interp.for_each_record(want - queued, |rec| warm(&rec))
    }

    /// The timing loop: one [`Processor::tick`] per cycle, from the
    /// oracle's current stream position, until `budget` more
    /// correct-path instructions have issued or the stream runs out
    /// (which sets `rs.ended`).
    fn run_timing(
        &mut self,
        program: &Program,
        interp: &mut Interpreter<'_>,
        rs: &mut RunState,
        budget: u64,
    ) {
        let start = rs.c.issued;
        let (acct_start, cycle_start) = (rs.acct.total(), rs.cycle);
        let mut bundle = FetchBundle::default();
        self.refill(interp);
        let mut next = self.correct_pc();
        while let Some(pc) = next {
            if rs.c.issued - start >= budget {
                break;
            }
            self.refill(interp);
            next = self.tick(program, rs, &mut bundle, pc);
        }
        rs.ended = next.is_none();
        debug_assert_eq!(
            rs.acct.total() - acct_start,
            rs.cycle - cycle_start,
            "cycle accounting lost track of the clock"
        );
    }

    /// One cycle of the front end, fetching at `pc`: the stages in
    /// order. Returns the next fetch PC — the known target after a clean
    /// fetch, otherwise the PC of the next correct-path record, read
    /// after salvage — or `None` once the stream has run out.
    #[inline(always)]
    fn tick(
        &mut self,
        program: &Program,
        rs: &mut RunState,
        bundle: &mut FetchBundle,
        pc: Addr,
    ) -> Option<Addr> {
        self.lookahead()?;
        if !self.start_cycle(rs) {
            return Some(pc);
        }
        let mut f = self.fetch(program, rs, bundle, pc);
        self.issue_fetch(rs, bundle, &mut f);
        self.record(bundle, &f);
        self.advance(program, rs, bundle, &f);
        match (f.upshot, bundle.next_pc) {
            (FetchUpshot::Clean, NextPc::Known(target)) => Some(target),
            _ => self.correct_pc(),
        }
    }

    /// Starts a cycle: injects the fault scheduled for it, retires what
    /// has completed, and stalls the clock while the window is full.
    /// Returns whether fetch proceeds this cycle.
    #[inline(always)]
    fn start_cycle(&mut self, rs: &mut RunState) -> bool {
        self.front_end.set_cycle(rs.cycle);
        if let Some(draw) = self.injector.as_mut().and_then(|inj| inj.poll(rs.cycle)) {
            self.apply_fault(draw);
        }
        self.retire_to(rs.cycle);
        if self.engine.has_room() {
            return true;
        }
        // A window without room holds an instruction to wait for: the
        // engine rejects a zero-entry window.
        let Some(t) = self.engine.earliest_retire() else {
            unreachable!("a full window holds an instruction");
        };
        let wait = t.saturating_sub(rs.cycle).max(1);
        self.trace(TraceEvent::WindowStall {
            wait: wait as u32,
            occupancy: self.engine.occupancy() as u32,
        });
        rs.acct.full_window += wait;
        rs.cycle += wait;
        false
    }

    /// Fetches at `pc` into `bundle` and charges an i-cache miss to the
    /// clock. Returns the fetch's issue record, opened at the cycle its
    /// instructions issue in.
    #[inline(always)]
    fn fetch(
        &mut self,
        program: &Program,
        rs: &mut RunState,
        bundle: &mut FetchBundle,
        pc: Addr,
    ) -> FetchIssue {
        self.front_end.fetch_to(pc, program, &mut self.mem, bundle);
        let latency = u64::from(bundle.icache_latency);
        rs.acct.cache_misses += latency;
        rs.cycle += latency;
        FetchIssue {
            cycle: rs.cycle,
            ..FetchIssue::default()
        }
    }

    /// Issues the fetch: its active instructions while they stay on the
    /// correct path, then — when they all held — the check of its return
    /// or indirect target. On a misprediction it salvages the inactive
    /// instructions that happen to lie on the correct path.
    #[inline(always)]
    fn issue_fetch(&mut self, rs: &mut RunState, bundle: &FetchBundle, f: &mut FetchIssue) {
        for fi in bundle.active() {
            let Some(front) = self.lookahead() else {
                break;
            };
            if front.pc != fi.pc {
                // The predicted path silently left the correct path —
                // impossible with consistent segments, so under fault
                // injection this is a corruption that escaped the
                // sanitizer; count it and resync as a misfetch.
                if self.injector.is_some() {
                    self.fault.escaped += 1;
                    self.fault.detected += 1;
                } else {
                    debug_assert!(false, "active path diverged without a branch mispredict");
                }
                f.upshot = FetchUpshot::Misfetch;
                return;
            }
            if let Some(done) = self.issue(rs, f, fi.promoted, fi.pred_taken) {
                f.upshot = FetchUpshot::Mispredict { done };
                break;
            }
        }
        if let FetchUpshot::Clean = f.upshot {
            let done = f.last_times.map_or(f.cycle + 1, |t| t.done);
            f.upshot = self.check_target(rs, bundle, done);
        }
        if let FetchUpshot::Mispredict { .. } = f.upshot {
            let validated = f.issued;
            for fi in bundle.inactive() {
                let Some(front) = self.lookahead() else {
                    break;
                };
                if front.pc != fi.pc || fi.pred_taken.is_some_and(|dir| dir != front.taken) {
                    break;
                }
                // The direction check above means no salvaged branch
                // is mispredicted: issue it as predicted correctly.
                let taken = front.taken;
                self.issue(rs, f, fi.promoted, Some(taken));
            }
            rs.c.salvaged += (f.issued - validated) as u64;
        }
    }

    /// Checks the return or indirect target a fetch ended on against
    /// the next correct-path record, and trains the indirect predictor
    /// with the actual target; a wrong target resolves at `done`. Returns
    /// are ideal (always clean) when the configuration gives no
    /// return-stack depth.
    #[inline(always)]
    fn check_target(&mut self, rs: &mut RunState, bundle: &FetchBundle, done: u64) -> FetchUpshot {
        let (predicted, indirect_pc) = match bundle.next_pc {
            NextPc::Known(_) => return FetchUpshot::Clean,
            NextPc::Return { .. } if self.config.front_end.ras_depth.is_none() => {
                return FetchUpshot::Clean;
            }
            NextPc::Return { predicted } => (predicted, None),
            NextPc::Indirect { pc, predicted } => {
                rs.c.indirect_executed += 1;
                (predicted, Some(pc))
            }
        };
        let Some(actual) = self.correct_pc() else {
            return FetchUpshot::Clean;
        };
        if let Some(pc) = indirect_pc {
            self.front_end.train_indirect(pc, actual);
        }
        match predicted {
            Some(p) if p == actual => return FetchUpshot::Clean,
            None => return FetchUpshot::Misfetch,
            Some(_) => {}
        }
        let event = if let Some(pc) = indirect_pc {
            rs.c.indirect_mispredicts += 1;
            TraceEvent::IndirectMispredict { pc }
        } else {
            rs.c.return_mispredicts += 1;
            TraceEvent::ReturnMispredict {
                pc: bundle.fetch_pc,
            }
        };
        self.trace(event);
        FetchUpshot::Mispredict { done }
    }

    /// Records the fetch: its statistics, its `Fetch` event, and the
    /// predictor training with the actual directions.
    #[inline(always)]
    fn record(&mut self, bundle: &FetchBundle, f: &FetchIssue) {
        let mispredicted = matches!(f.upshot, FetchUpshot::Mispredict { .. });
        let reason = if mispredicted {
            TerminationReason::MispredBr
        } else {
            bundle.base_reason
        };
        let stats = self.front_end.stats_mut();
        stats.record_fetch(reason, f.issued, bundle.predictions_used);
        match bundle.source {
            FetchOrigin::TraceCache => stats.tc_fetches += 1,
            FetchOrigin::ICache => stats.icache_fetches += 1,
        }
        stats.promoted_fetched += f.promoted;
        self.trace(TraceEvent::Fetch {
            pc: bundle.fetch_pc,
            size: f.issued as u8,
            source: bundle.source,
            cond_branches: f.outcomes.len() as u8,
            promoted: f.promoted as u8,
            mispredicted,
        });
        self.front_end.train(&bundle.pred, &f.outcomes);
    }

    /// Advances the clock past the fetch: one cycle, plus the stall
    /// until a fetched trap retires, the misfetch bubble, or the
    /// misprediction shadow — fetching down the wrong path through it,
    /// then repairing the speculative history and return stack.
    #[inline(always)]
    fn advance(
        &mut self,
        program: &Program,
        rs: &mut RunState,
        bundle: &FetchBundle,
        f: &FetchIssue,
    ) {
        rs.acct.useful_fetch += 1;
        match f.upshot {
            FetchUpshot::Clean => {
                rs.cycle += 1;
                // A trap serializes: fetch stalls until it retires.
                let trap_retire = f.last_times.map_or(rs.cycle, |t| t.retire);
                if f.trap_fetched && trap_retire > rs.cycle {
                    rs.acct.traps += trap_retire - rs.cycle;
                    rs.cycle = trap_retire;
                }
            }
            FetchUpshot::Misfetch => {
                self.trace(TraceEvent::Misfetch {
                    pc: bundle.fetch_pc,
                });
                rs.acct.misfetches += MISFETCH_PENALTY;
                rs.cycle += 1 + MISFETCH_PENALTY;
            }
            FetchUpshot::Mispredict { done } => {
                let redirect = done + 1;
                rs.c.resolution_cycles += done.saturating_sub(f.cycle);
                rs.c.resolution_events += 1;
                let lost = redirect.saturating_sub(f.cycle + 1);
                rs.acct.branch_misses += lost;
                self.run_wrong_path(bundle, program, f.cycle, redirect);
                // Repair: history snapshot + replay of actual outcomes;
                // RAS from the committed mirror.
                self.front_end
                    .restore_history(bundle.pred.history.snapshot());
                for &t in &f.history_replay {
                    self.front_end.push_history(t);
                }
                self.front_end.restore_ras(&rs.ras_mirror);
                rs.cycle = redirect.max(f.cycle + 1);
                if let Some(redirect_pc) = self.correct_pc() {
                    let lost = lost as u32;
                    self.trace(TraceEvent::Repair { redirect_pc, lost });
                }
            }
        }
    }

    /// Issues the first look-ahead record, a correct-path instruction of
    /// fetch `f`, which thereby joins the in-flight records in place, and
    /// does its per-record bookkeeping: committed-RAS mirror, branch
    /// counters and the fetch's outcome lists. `promoted` says whether
    /// the fetch carried it as a promoted branch; `predicted` is the
    /// direction the front end assumed for a conditional branch. Returns
    /// the branch's completion cycle when that direction was wrong.
    #[inline(always)]
    fn issue(
        &mut self,
        rs: &mut RunState,
        f: &mut FetchIssue,
        promoted: bool,
        predicted: Option<bool>,
    ) -> Option<u64> {
        let rec = &self.oracle[self.engine.occupancy()];
        let times = self.engine.issue(rec, f.cycle, &mut self.mem);
        rs.last_retire = rs.last_retire.max(times.retire);
        rs.c.issued += 1;
        f.issued += 1;
        f.last_times = Some(times);
        f.trap_fetched |= rec.control_kind() == ControlKind::Trap;
        mirror_ras(&mut rs.ras_mirror, rec);
        if !rec.is_cond_branch() {
            return None;
        }
        f.history_replay.push(rec.taken);
        // Well-formed bundles always attach a direction to a conditional
        // branch; a missing one is possible only downstream of an escaped
        // corruption — treat it as a mispredict rather than panicking.
        let wrong = predicted != Some(rec.taken);
        rs.c.record_class(self.plan_classes.as_ref(), rec.pc, promoted, wrong);
        let event = if promoted {
            f.promoted += 1;
            if !wrong {
                rs.c.promoted_executed += 1;
                return None;
            }
            rs.c.promoted_faults += 1;
            TraceEvent::PromotedFault { pc: rec.pc }
        } else {
            rs.c.cond_branches += 1;
            f.outcomes.push(rec.taken);
            if !wrong {
                return None;
            }
            rs.c.cond_mispredicts += 1;
            TraceEvent::CondMispredict {
                pc: rec.pc,
                taken: rec.taken,
            }
        };
        self.trace(event);
        Some(times.done)
    }

    /// Retires, in program order, the in-flight records whose retire
    /// time has reached `cycle`: the engine says how many, and they are
    /// the first records of the queue.
    fn retire_to(&mut self, cycle: u64) {
        let n = self.engine.drain_retired(cycle);
        if n > 0 {
            for rec in self.oracle.range(..n) {
                self.front_end.retire(rec);
            }
            self.oracle.drain(..n);
        }
    }

    /// Retires everything in flight with the clock at `cycle`, which
    /// must bound every pending retire time. Draining to such a bound
    /// empties the window without advancing the engine clocks past it.
    fn drain_to(&mut self, cycle: u64) {
        self.front_end.set_cycle(cycle);
        self.retire_to(cycle);
        debug_assert_eq!(
            self.engine.occupancy(),
            0,
            "the drain bound left records in flight"
        );
    }

    /// The next correct-path record to issue: the first one past the
    /// in-flight records.
    #[inline(always)]
    fn lookahead(&self) -> Option<&ExecRecord> {
        self.oracle.get(self.engine.occupancy())
    }

    /// The PC of the next correct-path record, `None` once the stream
    /// has run out.
    #[inline(always)]
    fn correct_pc(&self) -> Option<Addr> {
        self.lookahead().map(|r| r.pc)
    }

    /// Reports the end of an execution-mode phase of `insts` instructions.
    fn mode_boundary(&mut self, phase: ExecPhase, insts: u64) {
        self.trace(TraceEvent::ModeBoundary { phase, insts });
    }

    /// Reports `event` to the tracer; with a disabled tracer the call
    /// and the event's construction compile away.
    #[inline(always)]
    fn trace(&mut self, event: TraceEvent) {
        if T::ENABLED {
            self.front_end.tracer_mut().emit(event);
        }
    }

    /// Tops the look-ahead (the records past the in-flight ones) up to
    /// 64 records.
    fn refill(&mut self, interp: &mut Interpreter<'_>) {
        let short = (self.engine.occupancy() + 64).saturating_sub(self.oracle.len());
        interp.for_each_record(short as u64, |rec| self.oracle.push_back(rec));
    }

    /// Advances the stream by up to `want` instructions with no timing
    /// and no warming: drains already-materialized look-ahead records
    /// first, then fast-forwards the interpreter through the predecoded
    /// block cache. Returns the instructions consumed (short only when
    /// the stream ends).
    fn skip_ahead(&mut self, interp: &mut Interpreter<'_>, blocks: &BlockCache, want: u64) -> u64 {
        debug_assert_eq!(
            self.engine.occupancy(),
            0,
            "skipping starts with an empty window"
        );
        let from_buffer = (self.oracle.len() as u64).min(want);
        self.oracle.drain(..from_buffer as usize);
        from_buffer + interp.fast_forward(blocks, want - from_buffer)
    }

    /// Simulates wrong-path fetching between a misprediction and its
    /// resolution: cache and LRU pollution only (no issue, no training).
    /// A misprediction that resolves within the cycle casts no shadow.
    fn run_wrong_path(
        &mut self,
        bundle: &FetchBundle,
        program: &Program,
        fetch_cycle: u64,
        redirect: u64,
    ) {
        let Some(mut wp_pc) = predicted_target(bundle.next_pc) else {
            return;
        };
        let mut wp_cycle = fetch_cycle + 1;
        let mut fetches = 0u32;
        while wp_cycle < redirect && fetches < MAX_WRONG_PATH_FETCHES {
            let wp = self.front_end.fetch_next(wp_pc, program, &mut self.mem);
            fetches += 1;
            wp_cycle += 1 + u64::from(wp.icache_latency);
            match predicted_target(wp.next_pc) {
                Some(a) => wp_pc = a,
                None => break,
            }
        }
    }

    /// Applies one scheduled fault to the live front end. Faults that
    /// find nothing to perturb (empty RAS, cold trace cache) are
    /// dropped without counting. Self-healing loci — silent eviction,
    /// bias/predictor counter flips, RAS clobbers, dropped fills — are
    /// counted recovered immediately: their effect is confined to
    /// prediction quality and is repaired by ordinary training and
    /// misprediction recovery. Segment corruption is accounted by the
    /// front end's quarantine counters (or `escaped` at dispatch).
    fn apply_fault(&mut self, draw: FaultDraw) {
        let landed = self.front_end.inject(draw.locus, draw.entropy);
        let self_healing = draw.locus != FaultLocus::TcSegment;
        if landed {
            self.fault.injected += 1;
            if self_healing {
                self.fault.recovered += 1;
            }
        }
    }

    fn report(
        &self,
        workload: &Workload,
        c: &Counters,
        acct: CycleAccounting,
        cycles: u64,
        sampling: Option<SamplingStats>,
    ) -> SimReport {
        SimReport {
            benchmark: workload.name().to_owned(),
            config: self.config.label(),
            instructions: c.issued,
            cycles,
            accounting: acct,
            fetch: self.front_end.stats().clone(),
            cond_branches: c.cond_branches,
            cond_mispredicts: c.cond_mispredicts,
            promoted_faults: c.promoted_faults,
            promoted_executed: c.promoted_executed,
            indirect_mispredicts: c.indirect_mispredicts,
            indirect_executed: c.indirect_executed,
            return_mispredicts: c.return_mispredicts,
            resolution_cycles: c.resolution_cycles,
            resolution_events: c.resolution_events,
            trace_cache: self.front_end.trace_cache().map(|tc| *tc.stats()),
            promotions: self
                .front_end
                .fill_unit()
                .and_then(|f| f.bias_table())
                .map(|b| (b.promotions(), b.demotions())),
            icache: *self.mem.icache_stats(),
            dcache: *self.mem.dcache_stats(),
            l2: *self.mem.l2_stats(),
            engine: *self.engine.stats(),
            salvaged: c.salvaged,
            sanitizer: self.front_end.sanitizer().stats(),
            fault: self.injector.as_ref().map(|_| {
                let q = self.front_end.quarantine_stats();
                FaultStats {
                    injected: self.fault.injected,
                    detected: self.fault.detected + q.detected,
                    recovered: self.fault.recovered + q.recovered,
                    escaped: self.fault.escaped,
                    recovery_cycles: q.recovery_cycles,
                }
            }),
            trace: self.front_end.tracer().summary(),
            sampling,
            plan: self.config.promotion_plan.as_ref().map(|p| PlanStats {
                workload: p.workload.clone(),
                profiled_insts: p.profiled_insts,
                entries: p.len() as u64,
                never_promote: p.never_promote(),
                class_branches: p.class_counts(),
                class_execs: c.class_execs,
                class_promoted: c.class_promoted,
                class_faults: c.class_faults,
                class_promotions: self
                    .front_end
                    .fill_unit()
                    .and_then(|f| f.bias_table())
                    .map_or([0; 4], tc_predict::BiasTable::class_promotions),
            }),
        }
    }
}

/// Mirrors `rec`'s effect on the return stack into the committed RAS.
#[inline]
fn mirror_ras(ras: &mut ReturnStack, rec: &ExecRecord) {
    match rec.control_kind() {
        ControlKind::Call | ControlKind::IndirectCall => ras.push(u64::from(rec.pc.next())),
        ControlKind::Return => {
            let _ = ras.pop();
        }
        _ => {}
    }
}

/// Where fetch goes after a bundle when it follows the prediction: the
/// known or predicted target (`None` when there is no prediction).
fn predicted_target(next: NextPc) -> Option<Addr> {
    match next {
        NextPc::Known(a) => Some(a),
        NextPc::Return { predicted } | NextPc::Indirect { predicted, .. } => predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_workloads::Benchmark;

    fn quick(config: SimConfig, bench: Benchmark) -> SimReport {
        let workload = bench.build_scaled(2);
        Processor::new(config.with_max_insts(60_000)).run(&workload)
    }

    #[test]
    #[should_panic(expected = "a Processor runs once")]
    fn a_second_run_panics() {
        let workload = Benchmark::Compress.build_scaled(2);
        let mut processor = Processor::new(SimConfig::baseline().with_max_insts(1_000));
        let _ = processor.run(&workload);
        let _ = processor.run(&workload);
    }

    #[test]
    fn baseline_simulation_is_sane() {
        let r = quick(SimConfig::baseline(), Benchmark::Compress);
        assert!(
            r.instructions >= 50_000,
            "ran {} instructions",
            r.instructions
        );
        assert!(r.cycles > 0);
        let ipc = r.ipc();
        assert!(ipc > 0.3 && ipc < 16.0, "IPC {ipc} out of range");
        let effr = r.effective_fetch_rate();
        assert!(effr > 2.0 && effr <= 16.0, "effective fetch rate {effr}");
        assert!(r.fetch.tc_fetches > 0, "trace cache never hit");
    }

    #[test]
    fn icache_frontend_fetches_single_blocks() {
        let r = quick(SimConfig::icache(), Benchmark::Compress);
        let effr = r.effective_fetch_rate();
        assert!(effr > 1.0 && effr < 12.0, "icache fetch rate {effr}");
        assert_eq!(r.fetch.tc_fetches, 0);
        assert!(r.trace_cache.is_none());
    }

    #[test]
    fn trace_cache_beats_icache_on_fetch_rate() {
        let tc = quick(SimConfig::baseline(), Benchmark::Ijpeg);
        let ic = quick(SimConfig::icache(), Benchmark::Ijpeg);
        assert!(
            tc.effective_fetch_rate() > ic.effective_fetch_rate(),
            "tc {} <= icache {}",
            tc.effective_fetch_rate(),
            ic.effective_fetch_rate()
        );
    }

    #[test]
    fn promotion_reduces_prediction_demand() {
        let base = quick(SimConfig::baseline(), Benchmark::Ijpeg);
        let promo = quick(SimConfig::promotion(16), Benchmark::Ijpeg);
        let (b01, _, _) = base.fetch.prediction_demand();
        let (p01, _, _) = promo.fetch.prediction_demand();
        assert!(
            p01 > b01,
            "promotion should raise the 0-or-1-prediction fraction: {b01} -> {p01}"
        );
        assert!(promo.fetch.promoted_fetched > 0);
        let (promotions, _) = promo.promotions.unwrap();
        assert!(promotions > 0, "no branches were promoted");
    }

    #[test]
    fn accounting_covers_most_cycles() {
        let r = quick(SimConfig::baseline(), Benchmark::Go);
        let covered = r.accounting.total();
        assert!(
            covered <= r.cycles + 1,
            "accounting {covered} exceeds cycles {}",
            r.cycles
        );
        assert!(
            covered * 100 >= r.cycles * 99,
            "accounting {covered} covers too little of {}",
            r.cycles
        );
    }

    #[test]
    fn mispredictions_are_detected_and_resolved() {
        let r = quick(SimConfig::baseline(), Benchmark::Go);
        assert!(r.cond_mispredicts > 0, "go must mispredict sometimes");
        assert!(r.resolution_events >= r.cond_mispredicts);
        assert!(
            r.avg_resolution_time() >= 3.0,
            "resolution {}",
            r.avg_resolution_time()
        );
    }

    #[test]
    fn perfect_disambiguation_does_not_hurt() {
        let real = quick(SimConfig::baseline(), Benchmark::Vortex);
        let perfect = quick(
            SimConfig::baseline().with_perfect_disambiguation(),
            Benchmark::Vortex,
        );
        assert!(
            perfect.ipc() >= real.ipc() * 0.98,
            "perfect {} << realistic {}",
            perfect.ipc(),
            real.ipc()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(SimConfig::baseline(), Benchmark::Perl);
        let b = quick(SimConfig::baseline(), Benchmark::Perl);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.cond_mispredicts, b.cond_mispredicts);
    }
}
