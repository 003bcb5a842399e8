//! The front end: trace-cache fetch with partial matching, inactive
//! issue, promotion-aware prediction, and the supporting i-cache path.

use tc_cache::MemoryHierarchy;
use tc_isa::{Addr, ControlKind, ExecRecord, Instr, Program};
use tc_predict::{
    BiasTable, GlobalHistory, HybridPrediction, HybridPredictor, IndirectPredictor, MultiPredictor,
    ReturnStack, SplitMultiPredictor,
};
use tc_trace::{FaultLocus, FetchOrigin, NoopTracer, TraceEvent, Tracer};

use crate::config::{FrontEndConfig, PredictorChoice};
use crate::fill::FillUnit;
use crate::inline_vec::InlineVec;
use crate::sanitize::{CheckSite, Sanitizer};
use crate::segment::{prefix_mask, TraceSegment, MAX_SEGMENT_BRANCHES};
use crate::stats::{FetchStats, TerminationReason, MAX_FETCH};
use crate::trace_cache::TraceCache;

/// One instruction delivered by a fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInst {
    /// Instruction address.
    pub pc: Addr,
    /// The instruction.
    pub instr: Instr,
    /// For conditional branches, the direction the front end assumes:
    /// the dynamic prediction or promoted static direction for active
    /// instructions, the segment's embedded direction for inactive ones.
    pub pred_taken: Option<bool>,
    /// Whether this is a promoted branch (static prediction, no
    /// predictor bandwidth).
    pub promoted: bool,
    /// Whether the instruction issued actively (on the predicted path).
    /// Inactive instructions issue anyway (inactive issue, §3) and are
    /// salvaged if the prediction proves wrong.
    pub active: bool,
}

impl Default for FetchedInst {
    /// A placeholder `Nop`, used only to initialize [`InlineVec`]
    /// backing storage; never observed through the slice API.
    fn default() -> FetchedInst {
        FetchedInst {
            pc: Addr::new(0),
            instr: Instr::Nop,
            pred_taken: None,
            promoted: false,
            active: true,
        }
    }
}

/// The predicted address of the fetch after this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextPc {
    /// A concrete predicted address.
    Known(Addr),
    /// The fetch ended with a return. With the paper's ideal RAS (no
    /// `ras_depth`) the driver substitutes the architectural target;
    /// with a finite one it checks this prediction.
    Return {
        /// The RAS's prediction, if the stack was non-empty.
        predicted: Option<Addr>,
    },
    /// The fetch ended with an indirect jump/call.
    Indirect {
        /// Address of the indirect branch (for predictor training).
        pc: Addr,
        /// The last-target prediction, `None` on a first encounter.
        predicted: Option<Addr>,
    },
}

/// Prediction context captured at fetch, needed to train the predictor
/// when the branch outcomes are known.
#[derive(Debug, Clone, Copy)]
pub struct PredContext {
    /// Global history at prediction time.
    pub history: GlobalHistory,
    /// The fetch address.
    pub fetch_pc: Addr,
    /// The tree predictor's entry index.
    pub mbp_entry: usize,
    /// For the hybrid predictor: the branch address and component
    /// breakdown of its single prediction.
    pub hybrid: Option<(Addr, HybridPrediction)>,
}

/// The result of one fetch cycle.
#[derive(Debug, Clone)]
pub struct FetchBundle {
    /// The fetch address.
    pub fetch_pc: Addr,
    /// Delivered instructions: the active prefix followed by inactive
    /// issue of the rest of the trace-cache line. Stored inline — a
    /// fetch delivers at most [`MAX_FETCH`] instructions, so bundles
    /// never heap-allocate.
    pub insts: InlineVec<FetchedInst, MAX_FETCH>,
    /// Length of the active prefix.
    pub active_len: usize,
    /// Where the fetch was serviced.
    pub source: FetchOrigin,
    /// Termination category before misprediction overrides.
    pub base_reason: TerminationReason,
    /// Dynamic predictions consumed.
    pub predictions_used: usize,
    /// Extra stall cycles from instruction-cache misses (0 on a hit or a
    /// trace-cache fetch).
    pub icache_latency: u32,
    /// Predicted next fetch address.
    pub next_pc: NextPc,
    /// Prediction context for later training.
    pub pred: PredContext,
}

impl Default for FetchBundle {
    /// An empty bundle at address zero, to be written by
    /// [`FrontEnd::fetch_to`].
    fn default() -> FetchBundle {
        FetchBundle {
            fetch_pc: Addr::new(0),
            insts: InlineVec::new(),
            active_len: 0,
            source: FetchOrigin::ICache,
            base_reason: TerminationReason::ICache,
            predictions_used: 0,
            icache_latency: 0,
            next_pc: NextPc::Known(Addr::new(0)),
            pred: PredContext {
                history: GlobalHistory::new(),
                fetch_pc: Addr::new(0),
                mbp_entry: 0,
                hybrid: None,
            },
        }
    }
}

impl FetchBundle {
    /// The active (predicted-path) instructions.
    #[must_use]
    pub fn active(&self) -> &[FetchedInst] {
        &self.insts[..self.active_len]
    }

    /// The inactive-issue suffix.
    #[must_use]
    pub fn inactive(&self) -> &[FetchedInst] {
        &self.insts[self.active_len..]
    }
}

/// What a fetch decides besides its instruction list: all of a
/// [`FetchBundle`] but the fetch address and the instructions.
struct FetchHead {
    active_len: usize,
    source: FetchOrigin,
    base_reason: TerminationReason,
    predictions_used: usize,
    icache_latency: u32,
    next_pc: NextPc,
    pred: PredContext,
}

/// Where a fetch steered the front end — all a wrong-path walk keeps of
/// it (see [`FrontEnd::fetch_next`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchStep {
    /// Predicted next fetch address.
    pub next_pc: NextPc,
    /// Extra stall cycles from instruction-cache misses.
    pub icache_latency: u32,
}

/// Where the fetch body puts the instructions it delivers. The body is
/// monomorphized per sink, as it is per [`Tracer`]: [`FrontEnd::fetch_to`]
/// collects them into the bundle, [`FrontEnd::fetch_next`] drops them,
/// so a wrong-path fetch builds no instruction list at all.
trait FetchSink {
    /// Whether the sink keeps what it is given; a trace-cache fetch
    /// into a sink that does not skips its per-instruction loop.
    const DELIVERS: bool;
    fn push(&mut self, inst: FetchedInst);
}

impl FetchSink for InlineVec<FetchedInst, MAX_FETCH> {
    const DELIVERS: bool = true;
    #[inline(always)]
    fn push(&mut self, inst: FetchedInst) {
        InlineVec::push(self, inst);
    }
}

/// The sink of a fetch whose instructions nobody reads.
struct Discard;

impl FetchSink for Discard {
    const DELIVERS: bool = false;
    #[inline(always)]
    fn push(&mut self, _: FetchedInst) {}
}

#[derive(Debug, Clone)]
enum Predictor {
    Multi(MultiPredictor),
    Split(SplitMultiPredictor),
    Hybrid(HybridPredictor),
}

impl Predictor {
    fn new(choice: PredictorChoice) -> Predictor {
        match choice {
            PredictorChoice::PaperMulti => Predictor::Multi(MultiPredictor::paper()),
            PredictorChoice::SplitMulti => Predictor::Split(SplitMultiPredictor::paper()),
            PredictorChoice::Hybrid => Predictor::Hybrid(HybridPredictor::paper()),
        }
    }
}

/// Counters for the detect → quarantine → recover pipeline that guards
/// the trace cache against corrupted segments (injected faults or
/// genuine fill bugs). A corrupted line found by the sanitizer at hit
/// time is *quarantined* (invalidated) and the fetch *recovers* by
/// falling back to the instruction cache; a corrupted segment caught at
/// fill time is dropped before it reaches the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Sanitizer error-severity detections attributed to corruption
    /// (hit-time, fill-time, and end-of-run audit).
    pub detected: u64,
    /// Corrupted lines invalidated (hit time) or dropped (fill time).
    pub quarantined: u64,
    /// Fetches that completed from the instruction cache after a
    /// quarantine, plus fill-time drops (recovery is immediate there).
    pub recovered: u64,
    /// Extra stall cycles paid by recovery fetches (i-cache miss
    /// latency on the fallback path).
    pub recovery_cycles: u64,
}

/// The complete fetch mechanism.
///
/// Owns the trace cache, fill unit (with optional branch promotion),
/// branch predictors, return stack, and indirect-target predictor. The
/// whole-processor driver in `tc-sim` calls:
///
/// * [`FrontEnd::fetch`] each fetch cycle (including wrong-path cycles —
///   cache pollution is modeled),
/// * [`FrontEnd::train`] when a fetch's branch outcomes are known,
/// * [`FrontEnd::retire`] for every retired instruction (fill path),
/// * history / RAS snapshot-and-restore around misprediction recovery.
#[derive(Debug, Clone)]
pub struct FrontEnd<T: Tracer = NoopTracer> {
    config: FrontEndConfig,
    /// Boxed, so the fetch can move it out of `self` and back (see
    /// [`FrontEnd::fetch_to`]) by moving a pointer.
    trace_cache: Option<Box<TraceCache>>,
    fill: Option<FillUnit>,
    predictor: Predictor,
    history: GlobalHistory,
    ras: ReturnStack,
    indirect: IndirectPredictor,
    stats: FetchStats,
    sanitizer: Sanitizer,
    quarantine: QuarantineStats,
    tracer: T,
}

impl FrontEnd {
    /// Builds a front end from a configuration.
    #[must_use]
    pub fn new(config: FrontEndConfig) -> FrontEnd {
        FrontEnd::with_tracer(config, NoopTracer)
    }
}

impl<T: Tracer> FrontEnd<T> {
    /// Builds a front end that reports events to `tracer`.
    #[must_use]
    pub fn with_tracer(config: FrontEndConfig, tracer: T) -> FrontEnd<T> {
        let fill = config.trace_cache.map(|_| {
            let bias = config.promotion.map(BiasTable::new);
            FillUnit::new(config.packing, bias)
        });
        FrontEnd::with_fill(config, fill, tracer)
    }

    /// Builds a front end whose fill unit promotes branches *statically*
    /// from a profile (§4's alternative to the bias table), reporting
    /// events to `tracer`. The configuration's dynamic `promotion` field
    /// is ignored.
    #[must_use]
    pub fn with_static_promotion_and_tracer(
        config: FrontEndConfig,
        table: crate::promote::StaticPromotionTable,
        tracer: T,
    ) -> FrontEnd<T> {
        let fill = config
            .trace_cache
            .map(|_| FillUnit::new_static(config.packing, table.clone()));
        FrontEnd::with_fill(config, fill, tracer)
    }

    fn with_fill(config: FrontEndConfig, fill: Option<FillUnit>, tracer: T) -> FrontEnd<T> {
        FrontEnd {
            config,
            trace_cache: config.trace_cache.map(|c| Box::new(TraceCache::new(c))),
            fill,
            predictor: Predictor::new(config.predictor),
            history: GlobalHistory::new(),
            ras: ReturnStack::for_depth(config.ras_depth),
            indirect: IndirectPredictor::default_size(),
            stats: FetchStats::new(),
            sanitizer: Sanitizer::new(config.sanitize),
            quarantine: QuarantineStats::default(),
            tracer,
        }
    }

    /// The attached tracer.
    #[must_use]
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the attached tracer.
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &FrontEndConfig {
        &self.config
    }

    /// Fetch statistics (recorded by the driver).
    #[must_use]
    pub fn stats(&self) -> &FetchStats {
        &self.stats
    }

    /// Mutable fetch statistics for driver-side recording.
    pub fn stats_mut(&mut self) -> &mut FetchStats {
        &mut self.stats
    }

    /// The trace cache, when configured.
    #[must_use]
    pub fn trace_cache(&self) -> Option<&TraceCache> {
        self.trace_cache.as_deref()
    }

    /// The fill unit, when configured.
    #[must_use]
    pub fn fill_unit(&self) -> Option<&FillUnit> {
        self.fill.as_ref()
    }

    /// Installs per-branch promotion overrides (a `tw-plan/v1` promotion
    /// plan) into the bias table. Returns `false` — and installs
    /// nothing — when the front end has no dynamic promotion configured
    /// (no fill unit, or a fill unit without a bias table).
    pub fn set_bias_overrides(
        &mut self,
        overrides: std::collections::HashMap<u64, tc_predict::BiasOverride>,
    ) -> bool {
        match self.fill.as_mut().and_then(FillUnit::bias_table_mut) {
            Some(bias) => {
                bias.set_overrides(overrides);
                true
            }
            None => false,
        }
    }

    /// The invariant sanitizer (inert unless
    /// [`FrontEndConfig::sanitize`] is set).
    #[must_use]
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Quarantine/recovery counters (all zero unless the sanitizer
    /// detected corrupted segments).
    #[must_use]
    pub fn quarantine_stats(&self) -> QuarantineStats {
        self.quarantine
    }

    /// Advances the sanitizer's and tracer's cycle clocks so violations
    /// and events carry the cycle they were observed at.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.sanitizer.set_now(cycle);
        if T::ENABLED {
            self.tracer.set_cycle(cycle);
        }
    }

    /// Audits every segment resident in the trace cache against the
    /// structural invariants (typically once, at the end of a run).
    pub fn audit(&mut self) {
        if let Some(tc) = self.trace_cache.as_deref() {
            let errors_before = self.sanitizer.stats().errors;
            tc.audit(&mut self.sanitizer);
            // Corrupted lines that were never fetched again surface
            // here; count them detected so no fault disappears from the
            // books.
            self.quarantine.detected += self.sanitizer.stats().errors - errors_before;
        }
    }

    /// Snapshot of the global history (for misprediction repair).
    #[must_use]
    pub fn history_snapshot(&self) -> u64 {
        self.history.snapshot()
    }

    /// Restores a history snapshot.
    pub fn restore_history(&mut self, snapshot: u64) {
        self.history.restore(snapshot);
    }

    /// Pushes one branch outcome into the global history (used by the
    /// driver to replay actual outcomes during repair).
    pub fn push_history(&mut self, taken: bool) {
        self.history.push(taken);
    }

    /// Snapshot of the return stack (cloned; restored on recovery).
    #[must_use]
    pub fn ras_snapshot(&self) -> ReturnStack {
        self.ras.clone()
    }

    /// Restores a return-stack snapshot by copying its contents into
    /// the live stack's existing buffer — no allocation once the buffer
    /// has grown to the program's call depth, so per-misprediction
    /// recovery stays off the heap.
    pub fn restore_ras(&mut self, snapshot: &ReturnStack) {
        self.ras.copy_from(snapshot);
    }

    /// Trains the indirect-target predictor with a resolved target.
    pub fn train_indirect(&mut self, pc: Addr, target: Addr) {
        self.indirect.update(pc.byte_addr(), u64::from(target));
    }

    /// Feeds a retired (correct-path) instruction to the fill unit and
    /// writes the segments it finalizes into the trace cache, straight
    /// from the fill unit's buffer.
    pub fn retire(&mut self, rec: &ExecRecord) {
        if T::ENABLED {
            self.tracer.emit(TraceEvent::Retire { pc: rec.pc });
        }
        if let (Some(fill), Some(tc)) = (self.fill.as_mut(), self.trace_cache.as_deref_mut()) {
            fill.retire_traced(rec, &mut self.tracer);
            for kind in fill.drain_violations() {
                self.sanitizer.record(CheckSite::Fill, None, kind);
            }
            for (insts, reason) in fill.finalized() {
                let errors_before = self.sanitizer.stats().errors;
                self.sanitizer.check_fill(insts, fill.bias_table());
                let start = insts[0].pc;
                if self.sanitizer.stats().errors > errors_before {
                    // The segment is structurally invalid: drop it
                    // instead of caching it. Recovery is immediate —
                    // the next fetch at its start simply misses.
                    self.quarantine.detected += 1;
                    self.quarantine.quarantined += 1;
                    self.quarantine.recovered += 1;
                    if T::ENABLED {
                        self.tracer.emit(TraceEvent::FaultDetected { pc: start });
                        self.tracer.emit(TraceEvent::FaultQuarantined { pc: start });
                        self.tracer.emit(TraceEvent::FaultRecovered { pc: start });
                    }
                    continue;
                }
                let outcome = tc.fill(insts, reason);
                if T::ENABLED {
                    self.tracer.emit(TraceEvent::TcFill {
                        start,
                        len: insts.len() as u8,
                        evicted: outcome.evicted,
                        duplicate: outcome.duplicate,
                    });
                }
            }
        }
    }

    /// Trains the direction predictor with the actual outcomes of the
    /// fetch's validated *non-promoted* conditional branches, in fetch
    /// order. Promoted-branch outcomes must be excluded (they bypass the
    /// pattern history table — that is the point of promotion).
    pub fn train(&mut self, pred: &PredContext, outcomes: &[bool]) {
        if outcomes.is_empty() {
            return;
        }
        match &mut self.predictor {
            Predictor::Multi(p) => p.update(pred.mbp_entry, outcomes),
            Predictor::Split(p) => p.update(pred.fetch_pc.byte_addr(), pred.history, outcomes),
            Predictor::Hybrid(p) => {
                if let Some((pc, hp)) = pred.hybrid {
                    p.update(pc.byte_addr(), pred.history, hp, outcomes[0]);
                }
            }
        }
    }

    /// Functionally warms the front end from one retired instruction of
    /// a sampled-simulation warm-up window (no fetch, no timing).
    ///
    /// Warming rules (see DESIGN.md §13):
    ///
    /// * conditional branches train the direction predictor at the
    ///   branch's own PC under the current global history, then push the
    ///   outcome into the history — a single-branch approximation of the
    ///   fetch-indexed multiple-branch training the timing path performs;
    /// * indirect jumps and calls train the indirect-target predictor
    ///   with their architectural target (returns are excluded — they
    ///   resolve through the RAS, which the driver re-seeds from its
    ///   committed mirror at the measure boundary);
    /// * every instruction feeds the fill path via [`FrontEnd::retire`],
    ///   which warms the bias table (promotion state), trace packing,
    ///   and the trace cache itself.
    pub fn warm(&mut self, rec: &ExecRecord) {
        if rec.is_cond_branch() {
            match &mut self.predictor {
                Predictor::Multi(p) => {
                    let mp = p.predict(rec.pc.byte_addr(), self.history);
                    p.update(mp.entry, &[rec.taken]);
                }
                Predictor::Split(p) => p.update(rec.pc.byte_addr(), self.history, &[rec.taken]),
                Predictor::Hybrid(p) => {
                    let hp = p.predict(rec.pc.byte_addr(), self.history);
                    p.update(rec.pc.byte_addr(), self.history, hp, rec.taken);
                }
            }
            self.history.push(rec.taken);
        }
        if matches!(
            rec.control_kind(),
            ControlKind::IndirectJump | ControlKind::IndirectCall
        ) {
            self.train_indirect(rec.pc, rec.next_pc);
        }
        self.retire(rec);
    }

    /// Performs one fetch at `pc` and returns what it delivered.
    ///
    /// Touches the trace cache and instruction cache (so wrong-path
    /// fetches pollute them, as in the paper's execution-driven model)
    /// and speculatively updates the global history and return stack for
    /// the *active* instructions. A loop that fetches repeatedly should
    /// call [`FrontEnd::fetch_to`] with one reused bundle instead.
    pub fn fetch(&mut self, pc: Addr, program: &Program, mem: &mut MemoryHierarchy) -> FetchBundle {
        let mut bundle = FetchBundle::default();
        self.fetch_to(pc, program, mem, &mut bundle);
        bundle
    }

    /// Performs the same fetch as [`FrontEnd::fetch`], writing the
    /// result over `bundle` instead of returning a new one.
    pub fn fetch_to(
        &mut self,
        pc: Addr,
        program: &Program,
        mem: &mut MemoryHierarchy,
        bundle: &mut FetchBundle,
    ) {
        bundle.insts.clear();
        let head = self.fetch_into(pc, program, mem, &mut bundle.insts);
        bundle.fetch_pc = pc;
        bundle.active_len = head.active_len;
        bundle.source = head.source;
        bundle.base_reason = head.base_reason;
        bundle.predictions_used = head.predictions_used;
        bundle.icache_latency = head.icache_latency;
        bundle.next_pc = head.next_pc;
        bundle.pred = head.pred;
    }

    /// Performs the same fetch as [`FrontEnd::fetch`] — every effect on
    /// the caches, predictors, history, RAS, sanitizer, quarantine and
    /// tracer is identical — but delivers no instructions, only where
    /// the fetch went. Wrong-path walks use it: they model cache
    /// pollution and steer by the predicted next address, and nothing
    /// reads the instructions they fetch.
    pub fn fetch_next(
        &mut self,
        pc: Addr,
        program: &Program,
        mem: &mut MemoryHierarchy,
    ) -> FetchStep {
        let head = self.fetch_into(pc, program, mem, &mut Discard);
        FetchStep {
            next_pc: head.next_pc,
            icache_latency: head.icache_latency,
        }
    }

    /// The one fetch body behind [`FrontEnd::fetch_to`] and
    /// [`FrontEnd::fetch_next`]; the delivered instructions go to `out`.
    ///
    /// Always inlined: returned through memory, the [`FetchHead`] is
    /// stored field by field and reloaded whole by `fetch_to`, a
    /// store-forwarding stall on every fetch.
    #[inline(always)]
    fn fetch_into<S: FetchSink>(
        &mut self,
        pc: Addr,
        program: &Program,
        mem: &mut MemoryHierarchy,
        out: &mut S,
    ) -> FetchHead {
        // Predict up to three directions from the fetch address.
        let history = self.history;
        let (dirs, mbp_entry) = match &self.predictor {
            Predictor::Multi(p) => {
                let preds = p.predict(pc.byte_addr(), history);
                (preds.dirs, preds.entry)
            }
            Predictor::Split(p) => {
                let preds = p.predict(pc.byte_addr(), history);
                (preds.dirs, preds.entry)
            }
            // The hybrid predicts per-branch during the walk.
            Predictor::Hybrid(_) => ([false; 3], 0),
        };
        let mut pred_ctx = PredContext {
            history,
            fetch_pc: pc,
            mbp_entry,
            hybrid: None,
        };

        // The trace cache is moved out of `self` for the duration of the
        // lookup so the fetch can read the resident segment's slice (no
        // per-hit copy of the line) while `self` updates history and RAS.
        let mut recovering = false;
        if let Some(mut tc) = self.trace_cache.take() {
            let path_assoc = tc.config().path_assoc;
            let hit = if !path_assoc {
                tc.lookup(pc)
            } else if let Predictor::Hybrid(h) = &self.predictor {
                // Path selection must rate each candidate with the
                // hybrid's per-branch predictions; the placeholder
                // `dirs` would pin every score to not-taken×3.
                tc.lookup_best_by(pc, |seg| {
                    let mut preds: InlineVec<bool, MAX_SEGMENT_BRANCHES> = InlineVec::new();
                    // The hybrid supplies one prediction per cycle.
                    let dynamic = seg.masks().dynamic;
                    if dynamic != 0 {
                        let si = &seg.insts()[dynamic.trailing_zeros() as usize];
                        preds.push(h.predict(si.pc.byte_addr(), history).dir);
                    }
                    let (active, _, full) = seg.match_predictions(&preds);
                    (full, active)
                })
            } else {
                tc.lookup_best(pc, &dirs)
            };
            // A hit whose segment fails the sanitizer's structural
            // checks is quarantined: nothing is delivered from it, the
            // line is invalidated, and the fetch recovers through the
            // i-cache.
            let mut quarantined: Option<Addr> = None;
            let head = hit.and_then(|seg| {
                let errors_before = self.sanitizer.stats().errors;
                self.sanitizer.check_hit(seg.insts());
                if self.sanitizer.stats().errors > errors_before {
                    quarantined = Some(seg.start());
                    return None;
                }
                let total = seg.len();
                let head = self.fetch_from_segment(seg, &dirs, pred_ctx, out);
                if T::ENABLED {
                    self.tracer.emit(TraceEvent::TcHit {
                        pc,
                        active: head.active_len as u8,
                        total: total as u8,
                        full: !matches!(
                            head.base_reason,
                            TerminationReason::PartialMatch | TerminationReason::MaximumBrs
                        ),
                    });
                }
                Some(head)
            });
            if let Some(bad) = quarantined {
                tc.invalidate(bad);
                self.quarantine.detected += 1;
                self.quarantine.quarantined += 1;
                if T::ENABLED {
                    self.tracer.emit(TraceEvent::FaultDetected { pc: bad });
                    self.tracer.emit(TraceEvent::FaultQuarantined { pc: bad });
                }
            }
            self.trace_cache = Some(tc);
            if let Some(head) = head {
                return head;
            }
            if T::ENABLED {
                self.tracer.emit(TraceEvent::TcMiss { pc });
            }
            recovering = quarantined.is_some();
        }
        let head = self.fetch_from_icache(pc, program, mem, &dirs, &mut pred_ctx, out);
        if recovering {
            self.quarantine.recovered += 1;
            self.quarantine.recovery_cycles += u64::from(head.icache_latency);
            if T::ENABLED {
                self.tracer.emit(TraceEvent::FaultRecovered { pc });
            }
        }
        head
    }

    /// How many individual branch predictions the configured predictor
    /// supplies per cycle: three for the multiple-branch predictors, one
    /// for the hybrid (§4's "aggressive hybrid single branch prediction
    /// with the trace cache" scenario).
    fn predictor_bandwidth(&self) -> usize {
        match self.predictor {
            Predictor::Hybrid(_) => 1,
            _ => 3,
        }
    }

    /// Fetches from the trace-cache line `seg`. The line's predecoded
    /// masks give the predictions' slots, the active length, the
    /// history pushes and the return-stack pushes, so only a sink that
    /// keeps the instructions walks them.
    #[inline(always)]
    fn fetch_from_segment<S: FetchSink>(
        &mut self,
        seg: &TraceSegment,
        dirs: &[bool; 3],
        mut pred_ctx: PredContext,
        out: &mut S,
    ) -> FetchHead {
        let insts = seg.insts();
        let m = seg.masks();
        let len = insts.len();

        // Resolve the predictions available to this fetch: up to
        // `bandwidth` directions for the line's non-promoted branches,
        // the k-th at the slot of the k-th such branch. `unpredicted`
        // keeps the non-promoted branches left without one.
        let bandwidth = self.predictor_bandwidth();
        let mut pred = 0u16;
        let mut covered = 0u16;
        let mut unpredicted = m.dynamic;
        for &dir in &dirs[..bandwidth] {
            if unpredicted == 0 {
                break;
            }
            let i = unpredicted.trailing_zeros() as usize;
            let p = match &self.predictor {
                Predictor::Hybrid(h) => {
                    let pc = insts[i].pc;
                    let hp = h.predict(pc.byte_addr(), pred_ctx.history);
                    pred_ctx.hybrid = Some((pc, hp));
                    hp.dir
                }
                _ => dir,
            };
            pred |= u16::from(p) << i;
            covered |= 1 << i;
            unpredicted &= unpredicted - 1;
        }

        // Match the embedded path against the predictions. The active
        // portion ends at the first divergence (partial matching) or
        // just before a branch with no prediction left (predictor
        // bandwidth — the paper's "Maximum BRs" limit).
        let diverged = (pred ^ m.taken) & covered;
        let (mut active_len, mut used, full, bandwidth_cut) = if diverged != 0 {
            let i = diverged.trailing_zeros() as usize;
            let used = (m.dynamic & prefix_mask(i + 1)).count_ones();
            (i + 1, used as usize, false, false)
        } else if unpredicted != 0 {
            let used = covered.count_ones() as usize;
            (unpredicted.trailing_zeros() as usize, used, false, true)
        } else {
            (len, m.dynamic.count_ones() as usize, true, false)
        };
        // Without partial matching, a diverging line supplies only its
        // first fetch block.
        if !full && !bandwidth_cut && !self.config.partial_matching {
            let first_block = if m.dynamic == 0 {
                len
            } else {
                m.dynamic.trailing_zeros() as usize + 1
            };
            if active_len > first_block {
                active_len = first_block;
                used = 1;
            }
        }
        let active = prefix_mask(active_len);
        // The direction assumed for each conditional branch: a promoted
        // one's static direction, or its prediction.
        let assumed = (m.promoted_taken | pred) & m.cond;

        // Speculative history: active conditional branches, promoted
        // included (§4 keeps their outcomes in the history).
        let mut conds = m.cond & active;
        while conds != 0 {
            self.history
                .push(assumed >> conds.trailing_zeros() & 1 != 0);
            conds &= conds - 1;
        }
        // RAS maintenance for active calls (returns pop below, when
        // computing the next fetch address).
        let mut calls = m.call & active;
        while calls != 0 {
            let si = &insts[calls.trailing_zeros() as usize];
            self.ras.push(u64::from(si.pc.next()));
            calls &= calls - 1;
        }
        // The active prefix, then the inactive suffix (only with inactive
        // issue), whose assumed direction is the segment's embedded path.
        if S::DELIVERS {
            let delivered = if self.config.inactive_issue {
                len
            } else {
                active_len
            };
            for (i, si) in insts[..delivered].iter().enumerate() {
                let is_active = i < active_len;
                let dirs = if is_active { assumed } else { m.taken };
                out.push(FetchedInst {
                    pc: si.pc,
                    instr: si.instr,
                    pred_taken: (m.cond >> i & 1 != 0).then_some(dirs >> i & 1 != 0),
                    promoted: m.promoted >> i & 1 != 0,
                    active: is_active,
                });
            }
        }

        let last_active = &insts[active_len - 1];
        let next_pc = if bandwidth_cut {
            // Out of predictions: the fetch ends just before the
            // unpredictable branch; the next fetch starts there.
            NextPc::Known(last_active.embedded_next())
        } else if !full {
            // The active portion ends at a conditional branch (the
            // divergent one, or the first block's under no partial
            // matching): follow the *predicted* direction.
            // A non-full match always ends at a conditional branch for
            // well-formed segments; a corrupted segment that escaped
            // the sanitizer can break that, so degrade to sequential
            // fetch instead of panicking (the driver's dispatch check
            // catches the divergence).
            let pred = assumed >> (active_len - 1) & 1 != 0;
            match last_active.instr {
                Instr::Branch { target, .. } => {
                    if pred {
                        NextPc::Known(target)
                    } else {
                        NextPc::Known(last_active.pc.next())
                    }
                }
                _ => NextPc::Known(last_active.pc.next()),
            }
        } else {
            match last_active.instr.control_kind() {
                ControlKind::Return => {
                    let predicted = self.ras.pop().map(|a| Addr::new(a as u32));
                    NextPc::Return { predicted }
                }
                ControlKind::IndirectJump | ControlKind::IndirectCall => NextPc::Indirect {
                    pc: last_active.pc,
                    predicted: self
                        .indirect
                        .predict(last_active.pc.byte_addr())
                        .map(|t| Addr::new(t as u32)),
                },
                _ => NextPc::Known(last_active.embedded_next()),
            }
        };

        let base_reason = if bandwidth_cut {
            TerminationReason::MaximumBrs
        } else if full {
            TerminationReason::from(seg.end_reason())
        } else {
            TerminationReason::PartialMatch
        };
        FetchHead {
            active_len,
            source: FetchOrigin::TraceCache,
            base_reason,
            predictions_used: used,
            icache_latency: 0,
            next_pc,
            pred: pred_ctx,
        }
    }

    /// The i-cache walk, for a trace-cache miss or a machine without a
    /// trace cache. Always inlined into its one caller, `fetch_into`,
    /// for the same reason as that body.
    #[inline(always)]
    fn fetch_from_icache<S: FetchSink>(
        &mut self,
        pc: Addr,
        program: &Program,
        mem: &mut MemoryHierarchy,
        dirs: &[bool; 3],
        pred_ctx: &mut PredContext,
        out: &mut S,
    ) -> FetchHead {
        // Line sizes are powers of two (`CacheConfig::new` checks).
        let line_mask = mem.config().icache.line_bytes - 1;
        let first = mem.instruction_fetch(pc.byte_addr());
        let latency = first.cycles.saturating_sub(mem.config().l1_latency);
        if T::ENABLED && !first.l1_hit {
            self.tracer.emit(TraceEvent::IcacheMiss { pc, latency });
            if !first.l2_hit {
                self.tracer.emit(TraceEvent::L2Miss { pc });
            }
        }

        // Every instruction the walk delivers is active.
        let mut delivered = 0usize;
        let mut cur = pc;
        let mut used = 0usize;
        let mut reason = TerminationReason::ICache;
        let next_pc;

        loop {
            if delivered == MAX_FETCH {
                reason = TerminationReason::MaxSize;
                next_pc = NextPc::Known(cur);
                break;
            }
            // Split-line fetching: crossing into a new line requires it
            // to be resident, otherwise the fetch ends at the boundary.
            if cur != pc && cur.byte_addr() & line_mask == 0 {
                if mem.instruction_resident(cur.byte_addr()) {
                    mem.instruction_fetch(cur.byte_addr());
                } else {
                    next_pc = NextPc::Known(cur);
                    break;
                }
            }
            let Some(instr) = program.fetch(cur) else {
                // Off the end of the program (wrong-path overrun).
                next_pc = NextPc::Known(cur);
                break;
            };
            if matches!(instr, Instr::Halt) {
                next_pc = NextPc::Known(cur);
                break;
            }
            let kind = instr.control_kind();
            let pred_taken = (kind == ControlKind::CondBranch).then(|| {
                let pred = match &self.predictor {
                    Predictor::Hybrid(h) => {
                        let hp = h.predict(cur.byte_addr(), pred_ctx.history);
                        pred_ctx.hybrid = Some((cur, hp));
                        hp.dir
                    }
                    _ => dirs[0],
                };
                used = 1;
                self.history.push(pred);
                pred
            });
            delivered += 1;
            out.push(FetchedInst {
                pc: cur,
                instr,
                pred_taken,
                promoted: false,
                active: true,
            });
            next_pc = match kind {
                ControlKind::None => {
                    cur = cur.next();
                    continue;
                }
                ControlKind::CondBranch => {
                    let target = instr.direct_target().expect("branches have targets");
                    NextPc::Known(if pred_taken == Some(true) {
                        target
                    } else {
                        cur.next()
                    })
                }
                ControlKind::Jump | ControlKind::Call => {
                    if kind == ControlKind::Call {
                        self.ras.push(u64::from(cur.next()));
                    }
                    NextPc::Known(instr.direct_target().expect("jumps and calls have targets"))
                }
                ControlKind::Return => NextPc::Return {
                    predicted: self.ras.pop().map(|a| Addr::new(a as u32)),
                },
                ControlKind::IndirectJump | ControlKind::IndirectCall => {
                    if kind == ControlKind::IndirectCall {
                        self.ras.push(u64::from(cur.next()));
                    }
                    NextPc::Indirect {
                        pc: cur,
                        predicted: self
                            .indirect
                            .predict(cur.byte_addr())
                            .map(|t| Addr::new(t as u32)),
                    }
                }
                ControlKind::Trap => NextPc::Known(cur.next()),
            };
            break;
        }

        FetchHead {
            active_len: delivered,
            source: FetchOrigin::ICache,
            base_reason: reason,
            predictions_used: used,
            icache_latency: latency,
            next_pc,
            pred: *pred_ctx,
        }
    }

    /// Applies one fault at `locus` to the live front end — the hook
    /// the tc-sim fault injector drives — and reports whether it landed
    /// (a target can be empty or unconfigured). A landed fault emits
    /// one `FaultInjected` event, carrying the start address of the
    /// trace-cache line it corrupted or evicted (zero elsewhere). The
    /// front end holds no injection policy, only these entropy-driven
    /// mutations:
    ///
    /// * `TcSegment` corrupts one resident segment in place;
    /// * `TcEvict` silently drops one resident line;
    /// * `Bias` flips one bias-table entry's direction (or promoted
    ///   direction);
    /// * `Predictor` flips one direction-predictor counter (always
    ///   lands);
    /// * `Ras` clobbers one stacked return address;
    /// * `FillStall` drops the fill unit's pending segment and open
    ///   block (`entropy` unused).
    pub fn inject(&mut self, locus: FaultLocus, entropy: u64) -> bool {
        let pc = match locus {
            FaultLocus::TcSegment => self
                .trace_cache
                .as_mut()
                .and_then(|tc| tc.fault_corrupt(entropy)),
            FaultLocus::TcEvict => self
                .trace_cache
                .as_mut()
                .and_then(|tc| tc.fault_evict(entropy)),
            FaultLocus::Bias => self
                .fill
                .as_mut()
                .and_then(FillUnit::bias_table_mut)
                .is_some_and(|b| b.fault_flip(entropy))
                .then_some(Addr::new(0)),
            FaultLocus::Predictor => {
                match &mut self.predictor {
                    Predictor::Multi(p) => p.fault_flip(entropy),
                    Predictor::Split(p) => p.fault_flip(entropy),
                    Predictor::Hybrid(p) => p.fault_flip(entropy),
                }
                Some(Addr::new(0))
            }
            FaultLocus::Ras => self.ras.fault_clobber(entropy).then_some(Addr::new(0)),
            FaultLocus::FillStall => self
                .fill
                .as_mut()
                .is_some_and(FillUnit::fault_drop_pending)
                .then_some(Addr::new(0)),
        };
        let Some(pc) = pc else {
            return false;
        };
        if T::ENABLED {
            self.tracer.emit(TraceEvent::FaultInjected { locus, pc });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_cache::HierarchyConfig;
    use tc_isa::{Cond, ProgramBuilder, Reg};

    fn straight_line_program(n: u32) -> Program {
        let mut b = ProgramBuilder::new();
        for _ in 0..n {
            b.nop();
        }
        b.halt();
        b.build().unwrap()
    }

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_trace_cache())
    }

    #[test]
    fn icache_fetch_stops_at_width() {
        let program = straight_line_program(64);
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        let bundle = fe.fetch(Addr::new(0), &program, &mut m);
        assert_eq!(bundle.source, FetchOrigin::ICache);
        assert_eq!(bundle.insts.len(), 16);
        assert_eq!(bundle.base_reason, TerminationReason::MaxSize);
        assert!(matches!(bundle.next_pc, NextPc::Known(a) if a == Addr::new(16)));
        assert!(bundle.icache_latency > 0, "cold fetch misses");
    }

    #[test]
    fn icache_fetch_ends_at_branch_with_prediction() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.nop().nop();
        b.branch(Cond::Eq, Reg::T0, Reg::T1, t);
        b.nop();
        b.bind(t).unwrap();
        b.halt();
        let program = b.build().unwrap();
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        let bundle = fe.fetch(Addr::new(0), &program, &mut m);
        assert_eq!(bundle.insts.len(), 3);
        assert_eq!(bundle.predictions_used, 1);
        assert!(bundle.insts[2].pred_taken.is_some());
        assert_eq!(bundle.base_reason, TerminationReason::ICache);
    }

    #[test]
    fn split_line_miss_terminates_fetch() {
        let program = straight_line_program(64);
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        // Fetch at 8: line 0 (insts 0..16) is fetched; the fetch would
        // cross into line 1 (inst 16) after 8 instructions, but that
        // line is cold -> terminate at the boundary.
        let bundle = fe.fetch(Addr::new(8), &program, &mut m);
        assert_eq!(bundle.insts.len(), 8);
        assert!(matches!(bundle.next_pc, NextPc::Known(a) if a == Addr::new(16)));
        // Next fetch at 16 misses and proceeds.
        let bundle2 = fe.fetch(Addr::new(16), &program, &mut m);
        assert!(bundle2.icache_latency > 0);
        assert_eq!(bundle2.insts.len(), 16);
    }

    #[test]
    fn trace_cache_hit_after_retire() {
        // Retire a block, then fetch it from the trace cache.
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.nop().nop().nop();
        b.branch(Cond::Eq, Reg::T0, Reg::T1, t);
        b.nop().nop();
        b.bind(t).unwrap();
        b.halt();
        let program = b.build().unwrap();
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        // Retire the not-taken path: 0,1,2,branch(nt),4,5 then a fake
        // return to finalize the segment.
        for pc in 0..4u32 {
            fe.retire(&ExecRecord {
                pc: Addr::new(pc),
                instr: program.fetch(Addr::new(pc)).unwrap(),
                next_pc: Addr::new(pc + 1),
                taken: false,
                mem_addr: None,
            });
        }
        fe.retire(&ExecRecord {
            pc: Addr::new(4),
            instr: Instr::Ret,
            next_pc: Addr::new(0),
            taken: false,
            mem_addr: None,
        });
        let bundle = fe.fetch(Addr::new(0), &program, &mut m);
        assert_eq!(bundle.source, FetchOrigin::TraceCache);
        assert_eq!(bundle.insts.len(), 5);
        assert_eq!(bundle.base_reason, TerminationReason::RetIndTrap);
        assert!(matches!(bundle.next_pc, NextPc::Return { .. }));
    }

    #[test]
    fn partial_match_issues_inactive_suffix() {
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        // Build a program with a branch whose trace embeds taken.
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.nop();
        b.branch(Cond::Eq, Reg::T0, Reg::T1, t);
        b.nop().nop();
        b.bind(t).unwrap(); // addr 4
        b.nop().nop().nop();
        b.halt();
        let program = b.build().unwrap();
        // Retire the taken path 0,1(T),4,5,6 + ret to finalize.
        let recs = [
            (0u32, false, 1u32),
            (1, true, 4),
            (4, false, 5),
            (5, false, 6),
            (6, false, 7),
        ];
        for (pc, taken, next) in recs {
            fe.retire(&ExecRecord {
                pc: Addr::new(pc),
                instr: program.fetch(Addr::new(pc)).unwrap(),
                next_pc: Addr::new(next),
                taken,
                mem_addr: None,
            });
        }
        fe.retire(&ExecRecord {
            pc: Addr::new(7),
            instr: Instr::Ret,
            next_pc: Addr::new(0),
            taken: false,
            mem_addr: None,
        });
        // Fresh predictor predicts not-taken; the segment embeds taken.
        let bundle = fe.fetch(Addr::new(0), &program, &mut m);
        assert_eq!(bundle.source, FetchOrigin::TraceCache);
        assert_eq!(bundle.base_reason, TerminationReason::PartialMatch);
        assert_eq!(bundle.active_len, 2, "nop + divergent branch stay active");
        assert!(
            !bundle.inactive().is_empty(),
            "rest of line issues inactively"
        );
        // Predicted next follows the *prediction* (not taken -> pc 2).
        assert!(matches!(bundle.next_pc, NextPc::Known(a) if a == Addr::new(2)));
    }

    #[test]
    fn icache_only_frontend_never_uses_trace_cache() {
        let program = straight_line_program(40);
        let mut fe = FrontEnd::new(FrontEndConfig::icache_only());
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_icache_only());
        // Even after retiring, fetches come from the icache.
        for pc in 0..8u32 {
            fe.retire(&ExecRecord {
                pc: Addr::new(pc),
                instr: Instr::Nop,
                next_pc: Addr::new(pc + 1),
                taken: false,
                mem_addr: None,
            });
        }
        let bundle = fe.fetch(Addr::new(0), &program, &mut m);
        assert_eq!(bundle.source, FetchOrigin::ICache);
        assert!(fe.trace_cache().is_none());
    }

    #[test]
    fn history_advances_on_predicted_branches() {
        let mut b = ProgramBuilder::new();
        let t = b.new_label("t");
        b.branch(Cond::Eq, Reg::T0, Reg::T1, t);
        b.nop();
        b.bind(t).unwrap();
        b.halt();
        let program = b.build().unwrap();
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        let h0 = fe.history_snapshot();
        let _ = fe.fetch(Addr::new(0), &program, &mut m);
        assert_ne!(fe.history_snapshot(), h0 << 1 | 1, "not necessarily taken");
        // Exactly one outcome was shifted in.
        assert!(fe.history_snapshot() >> 1 == h0);
        fe.restore_history(h0);
        assert_eq!(fe.history_snapshot(), h0);
    }

    #[test]
    fn returns_pop_the_ras_after_calls_push_it() {
        let mut b = ProgramBuilder::new();
        let f = b.new_label("f");
        let main = b.new_label("main");
        b.entry(main);
        b.bind(f).unwrap();
        b.ret(); // addr 0
        b.bind(main).unwrap();
        b.call(f); // addr 1
        b.halt();
        let program = b.build().unwrap();
        let mut fe = FrontEnd::new(FrontEndConfig::baseline());
        let mut m = mem();
        let call_bundle = fe.fetch(Addr::new(1), &program, &mut m);
        assert!(matches!(call_bundle.next_pc, NextPc::Known(a) if a == Addr::new(0)));
        let ret_bundle = fe.fetch(Addr::new(0), &program, &mut m);
        match ret_bundle.next_pc {
            NextPc::Return { predicted } => assert_eq!(predicted, Some(Addr::new(2))),
            other => panic!("expected return, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod path_assoc_hybrid_tests {
    use super::*;
    use crate::trace_cache::TraceCacheConfig;
    use tc_cache::HierarchyConfig;
    use tc_isa::{Cond, ProgramBuilder, Reg};

    /// Program with both paths of one branch finalizable as segments:
    /// `0 nop, 1 br->4, 2 nop, 3 ret` (not-taken) and `4 nop, 5 ret`
    /// (taken target).
    fn diamond_program() -> Program {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("l");
        b.nop(); // 0
        b.branch(Cond::Eq, Reg::T0, Reg::T0, l); // 1
        b.nop(); // 2
        b.ret(); // 3
        b.bind(l).unwrap();
        b.nop(); // 4
        b.ret(); // 5
        b.halt();
        b.build().unwrap()
    }

    fn retire_path(fe: &mut FrontEnd, program: &Program, path: &[(u32, bool, u32)]) {
        for &(pc, taken, next) in path {
            fe.retire(&ExecRecord {
                pc: Addr::new(pc),
                instr: program.fetch(Addr::new(pc)).unwrap(),
                next_pc: Addr::new(next),
                taken,
                mem_addr: None,
            });
        }
    }

    /// Regression test for path selection under path associativity with
    /// the hybrid (single-branch) predictor. Selection must rate each
    /// candidate segment against the hybrid's *per-branch* prediction;
    /// the old code passed a placeholder not-taken×3 vector, so a
    /// resident not-taken path always out-scored the predicted path.
    #[test]
    fn hybrid_path_selection_follows_the_hybrid_prediction() {
        let program = diamond_program();
        let config = FrontEndConfig {
            trace_cache: Some(TraceCacheConfig::paper().with_path_assoc()),
            predictor: PredictorChoice::Hybrid,
            ..FrontEndConfig::baseline()
        };
        let mut fe = FrontEnd::new(config);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());

        // Train the hybrid to predict *taken* at the branch (pc 1): the
        // i-cache fetch walks nop + branch and captures the hybrid's
        // prediction context; history is restored so every training
        // iteration predicts in the same context as the final fetch.
        let h0 = fe.history_snapshot();
        for _ in 0..32 {
            let bundle = fe.fetch(Addr::new(0), &program, &mut mem);
            fe.train(&bundle.pred, &[true]);
            fe.restore_history(h0);
        }

        // Fill both paths; the not-taken path last, so it is both the
        // MRU way and the full match for a not-taken placeholder.
        retire_path(
            &mut fe,
            &program,
            &[(0, false, 1), (1, true, 4), (4, false, 5), (5, false, 0)],
        );
        retire_path(
            &mut fe,
            &program,
            &[(0, false, 1), (1, false, 2), (2, false, 3), (3, false, 0)],
        );

        let bundle = fe.fetch(Addr::new(0), &program, &mut mem);
        assert_eq!(bundle.source, FetchOrigin::TraceCache);
        assert_eq!(
            bundle.insts[1].pred_taken,
            Some(true),
            "the hybrid predicts taken"
        );
        assert_eq!(
            bundle.active_len, 4,
            "the predicted (taken) path matches in full"
        );
        assert_eq!(
            bundle.insts[2].pc,
            Addr::new(4),
            "fetch continues at the taken target, not the not-taken path"
        );
        assert!(matches!(bundle.next_pc, NextPc::Return { .. }));
    }
}

#[cfg(test)]
mod issue_mode_tests {
    use super::*;
    use tc_cache::HierarchyConfig;
    use tc_isa::{Cond, ProgramBuilder, Reg};

    /// Builds a front end holding one trace segment: blk1 (2 insts, br
    /// taken) -> blk2 (2 insts, br taken) -> 1 inst.
    fn two_block_frontend(config: FrontEndConfig) -> (FrontEnd, Program, MemoryHierarchy) {
        let mut b = ProgramBuilder::new();
        let l1 = b.new_label("l1");
        let l2 = b.new_label("l2");
        b.nop(); // 0
        b.branch(Cond::Eq, Reg::T0, Reg::T0, l1); // 1 (taken)
        b.nop(); // 2 (fallthrough, off trace)
        b.bind(l1).unwrap();
        b.nop(); // 3
        b.branch(Cond::Eq, Reg::T0, Reg::T0, l2); // 4 (taken)
        b.nop(); // 5
        b.bind(l2).unwrap();
        b.nop(); // 6
        b.halt();
        let program = b.build().unwrap();
        let mut fe = FrontEnd::new(config);
        // Retire the taken path + a return to finalize.
        for (pc, taken, next) in [
            (0u32, false, 1u32),
            (1, true, 3),
            (3, false, 4),
            (4, true, 6),
            (6, false, 7),
        ] {
            fe.retire(&ExecRecord {
                pc: Addr::new(pc),
                instr: program.fetch(Addr::new(pc)).unwrap(),
                next_pc: Addr::new(next),
                taken,
                mem_addr: None,
            });
        }
        fe.retire(&ExecRecord {
            pc: Addr::new(7),
            instr: Instr::Ret,
            next_pc: Addr::new(0),
            taken: false,
            mem_addr: None,
        });
        let mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        (fe, program, mem)
    }

    #[test]
    fn no_partial_matching_supplies_first_block_only() {
        // The fresh predictor predicts not-taken; the segment embeds
        // taken at both branches, so the line diverges at branch 1.
        let config = FrontEndConfig {
            partial_matching: false,
            ..FrontEndConfig::baseline()
        };
        let (mut fe, program, mut mem) = two_block_frontend(config);
        let bundle = fe.fetch(Addr::new(0), &program, &mut mem);
        assert_eq!(bundle.source, FetchOrigin::TraceCache);
        assert_eq!(bundle.active_len, 2, "first block only: nop + branch");
        // Next follows the branch's *prediction* (not taken -> pc 2).
        assert!(matches!(bundle.next_pc, NextPc::Known(a) if a == Addr::new(2)));
    }

    #[test]
    fn partial_matching_supplies_matching_prefix() {
        let (mut fe, program, mut mem) = two_block_frontend(FrontEndConfig::baseline());
        let bundle = fe.fetch(Addr::new(0), &program, &mut mem);
        // Divergence is still at the first branch here (predictor cold),
        // so the prefix equals the first block; inactive issue supplies
        // the rest of the line.
        assert_eq!(bundle.active_len, 2);
        assert!(!bundle.inactive().is_empty());
    }

    #[test]
    fn no_inactive_issue_discards_off_path_suffix() {
        let config = FrontEndConfig {
            inactive_issue: false,
            ..FrontEndConfig::baseline()
        };
        let (mut fe, program, mut mem) = two_block_frontend(config);
        let bundle = fe.fetch(Addr::new(0), &program, &mut mem);
        assert_eq!(
            bundle.active_len,
            bundle.insts.len(),
            "no inactive instructions issued"
        );
    }

    #[test]
    fn finite_ras_drops_deep_returns() {
        let config = FrontEndConfig {
            ras_depth: Some(1),
            ..FrontEndConfig::baseline()
        };
        let mut b = ProgramBuilder::new();
        let f1 = b.new_label("f1");
        b.call(f1); // 0
        b.halt();
        b.bind(f1).unwrap();
        b.ret();
        let program = b.build().unwrap();
        let mut fe = FrontEnd::new(config);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        // Two calls overflow the 1-deep stack.
        let _ = fe.fetch(Addr::new(0), &program, &mut mem);
        let _ = fe.fetch(Addr::new(0), &program, &mut mem);
        let ret_bundle = fe.fetch(Addr::new(2), &program, &mut mem);
        match ret_bundle.next_pc {
            NextPc::Return { predicted } => assert_eq!(predicted, Some(Addr::new(1))),
            other => panic!("expected return, got {other:?}"),
        }
        // The second pop hits an empty (overflowed) stack.
        let ret_bundle = fe.fetch(Addr::new(2), &program, &mut mem);
        match ret_bundle.next_pc {
            NextPc::Return { predicted } => assert_eq!(predicted, None),
            other => panic!("expected return, got {other:?}"),
        }
    }
}
