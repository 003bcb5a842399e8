//! The event model: everything the front end and simulator can report.

use tc_isa::Addr;

/// Why the fill unit finalized a segment.
///
/// Mirrors `tc_core::SegEndReason` (this crate sits *below* `tc-core` in
/// the dependency graph, so the core converts when emitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillEnd {
    /// Reached 16 instructions exactly.
    MaxSize,
    /// Reached the three-branch limit.
    MaxBranches,
    /// The next retired block did not fit and stayed atomic.
    AtomicBlock,
    /// A performed packing split closed a non-full line.
    Packed,
    /// A return, indirect jump/call, or trap ended the segment.
    RetIndTrap,
}

impl FillEnd {
    /// Short lower-case label (used by the Chrome export).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FillEnd::MaxSize => "max_size",
            FillEnd::MaxBranches => "max_branches",
            FillEnd::AtomicBlock => "atomic_block",
            FillEnd::Packed => "packed",
            FillEnd::RetIndTrap => "ret_ind_trap",
        }
    }
}

/// The packing policy's verdict on an overflowing retired block — *why*
/// a split was performed or refused (§5's cost regulation made visible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackVerdict {
    /// Unregulated packing always splits.
    Unregulated,
    /// Chunked packing split at a multiple of its granule.
    ChunkFit,
    /// Chunked packing refused: the free space is under one granule.
    ChunkTooSmall,
    /// Cost regulation packed: at least half the pending segment's
    /// length was still free.
    SpareCapacity,
    /// Cost regulation packed: the pending segment holds a short
    /// backward branch (tight loop).
    TightLoop,
    /// Cost regulation refused the split as not worthwhile.
    CostRefused,
    /// The atomic baseline policy never splits.
    AtomicPolicy,
}

impl PackVerdict {
    /// Short lower-case label (used by the Chrome export).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PackVerdict::Unregulated => "unregulated",
            PackVerdict::ChunkFit => "chunk_fit",
            PackVerdict::ChunkTooSmall => "chunk_too_small",
            PackVerdict::SpareCapacity => "spare_capacity",
            PackVerdict::TightLoop => "tight_loop",
            PackVerdict::CostRefused => "cost_refused",
            PackVerdict::AtomicPolicy => "atomic_policy",
        }
    }
}

/// Why a promoted branch lost its promoted status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionCause {
    /// Two or more consecutive outcomes against the promoted direction
    /// (counted by `BiasTable::demotions`).
    ConsecutiveOpposite,
    /// The bias-table entry was displaced by a conflicting branch; the
    /// promoted status is lost with the entry (a miss demotes, §4) but
    /// the demotion counter is *not* incremented.
    Evicted,
}

impl DemotionCause {
    /// Short lower-case label (used by the Chrome export).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DemotionCause::ConsecutiveOpposite => "consecutive_opposite",
            DemotionCause::Evicted => "evicted",
        }
    }
}

/// Where a fetch was serviced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOrigin {
    /// The trace cache supplied a segment.
    TraceCache,
    /// The instruction cache supplied one fetch block.
    ICache,
}

/// The front-end structure an injected fault perturbed.
///
/// Defined here (the bottom of the dependency graph) so `tc-fault`,
/// `tc-core`, and `tc-sim` all speak the same vocabulary without a
/// layering cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLocus {
    /// A resident trace-cache segment was corrupted in place (flag,
    /// target, or length bit flip).
    TcSegment,
    /// A resident trace-cache line was silently evicted.
    TcEvict,
    /// A bias-table entry's direction / promoted state was flipped.
    Bias,
    /// A branch-predictor pattern-history counter was flipped.
    Predictor,
    /// A return-address-stack entry was clobbered.
    Ras,
    /// The fill unit's pending block was dropped (stalled fill).
    FillStall,
}

impl FaultLocus {
    /// Every locus, in a stable order (CLI `--targets` order).
    pub const ALL: [FaultLocus; 6] = [
        FaultLocus::TcSegment,
        FaultLocus::TcEvict,
        FaultLocus::Bias,
        FaultLocus::Predictor,
        FaultLocus::Ras,
        FaultLocus::FillStall,
    ];

    /// Stable kebab-case name (CLI `--targets` token, Chrome export).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultLocus::TcSegment => "tc-segment",
            FaultLocus::TcEvict => "tc-evict",
            FaultLocus::Bias => "bias",
            FaultLocus::Predictor => "predictor",
            FaultLocus::Ras => "ras",
            FaultLocus::FillStall => "fill-stall",
        }
    }

    /// Parses one CLI token.
    ///
    /// # Errors
    ///
    /// Returns the offending token if it names no locus.
    pub fn parse(token: &str) -> Result<FaultLocus, String> {
        FaultLocus::ALL
            .into_iter()
            .find(|l| l.name() == token)
            .ok_or_else(|| format!("unknown fault target `{token}`"))
    }
}

/// Which execution phase a mode boundary opens (decoupled
/// functional/timing execution: fast-forward, sampled warm-up, timed
/// measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPhase {
    /// Functional fast-forward: no timing, no warming.
    FastForward,
    /// Functional warming: predictors, bias table, and trace cache are
    /// trained architecturally without timing.
    Warmup,
    /// Timed measurement window.
    Measure,
}

impl ExecPhase {
    /// Short lower-case label (used by the Chrome export).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExecPhase::FastForward => "fast_forward",
            ExecPhase::Warmup => "warmup",
            ExecPhase::Measure => "measure",
        }
    }
}

/// One structured event. Every variant is `Copy` and pointer-sized-ish,
/// so constructing one costs a handful of register moves — and with the
/// [`crate::NoopTracer`] it is never constructed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The trace cache supplied a segment at `pc`.
    TcHit {
        /// Fetch address.
        pc: Addr,
        /// Instructions issued actively (the predicted-path prefix).
        active: u8,
        /// Total instructions in the resident segment.
        total: u8,
        /// Whether the whole segment lay on the predicted path; `false`
        /// is a partial match.
        full: bool,
    },
    /// A trace-cache lookup found nothing at `pc`.
    TcMiss {
        /// Fetch address.
        pc: Addr,
    },
    /// The fill unit wrote a segment into the trace cache.
    TcFill {
        /// Segment start address.
        start: Addr,
        /// Segment length in instructions.
        len: u8,
        /// Whether the write displaced a valid segment.
        evicted: bool,
        /// Whether an identical resident segment absorbed the write.
        duplicate: bool,
    },
    /// The fill unit finalized a pending segment.
    FillFinalize {
        /// Segment start address.
        start: Addr,
        /// Segment length in instructions.
        len: u8,
        /// Non-promoted conditional branches embedded.
        dynamic_branches: u8,
        /// Promoted branches embedded.
        promoted: u8,
        /// Why the segment ended.
        reason: FillEnd,
    },
    /// A packing split was performed on an overflowing block.
    PackPerformed {
        /// Instructions packed into the pending segment (the head).
        head: u8,
        /// Instructions deferred to the next segment (the tail).
        tail: u8,
        /// Why the policy allowed the split.
        verdict: PackVerdict,
    },
    /// A packing split was refused; the block stays atomic.
    PackRefused {
        /// Pending-segment occupancy at the decision.
        pending: u8,
        /// Size of the block that did not fit.
        block: u8,
        /// Why the policy refused the split.
        verdict: PackVerdict,
    },
    /// The bias table promoted the branch at `pc`.
    Promotion {
        /// Branch address.
        pc: Addr,
        /// The promoted static direction (`true` = taken).
        dir: bool,
    },
    /// The branch at `pc` lost its promoted status.
    Demotion {
        /// Branch address.
        pc: Addr,
        /// Why it was demoted.
        cause: DemotionCause,
    },
    /// A fetched promoted branch went against its embedded direction
    /// (handled like a misprediction, §4).
    PromotedFault {
        /// Branch address.
        pc: Addr,
    },
    /// A non-promoted conditional branch was mispredicted.
    CondMispredict {
        /// Branch address.
        pc: Addr,
        /// The actual outcome.
        taken: bool,
    },
    /// An indirect jump/call's predicted target was wrong.
    IndirectMispredict {
        /// Branch address.
        pc: Addr,
    },
    /// A return's RAS prediction was wrong.
    ReturnMispredict {
        /// Fetch address of the bundle ending in the return.
        pc: Addr,
    },
    /// An indirect branch had no predicted target (short bubble).
    Misfetch {
        /// Fetch address of the misfetching bundle.
        pc: Addr,
    },
    /// Front-end state was repaired after a misprediction resolved.
    Repair {
        /// The corrected fetch address.
        redirect_pc: Addr,
        /// Fetch cycles lost in the misprediction shadow.
        lost: u32,
    },
    /// An instruction fetch missed the L1 i-cache.
    IcacheMiss {
        /// Fetch address.
        pc: Addr,
        /// Extra stall cycles charged to the fetch.
        latency: u32,
    },
    /// An instruction fetch missed the unified L2 (serviced by memory).
    L2Miss {
        /// Fetch address.
        pc: Addr,
    },
    /// One validated fetch cycle completed (drives the interval
    /// timeline).
    Fetch {
        /// Fetch address.
        pc: Addr,
        /// Correct-path instructions delivered (validated + salvaged).
        size: u8,
        /// Where the fetch was serviced.
        source: FetchOrigin,
        /// Non-promoted conditional branches executed.
        cond_branches: u8,
        /// Promoted branches executed.
        promoted: u8,
        /// Whether the fetch ended in a misprediction (conditional,
        /// promoted fault, indirect, or return).
        mispredicted: bool,
    },
    /// Fetch stalled because the instruction window was full.
    WindowStall {
        /// Cycles waited for a retirement slot.
        wait: u32,
        /// Instructions in flight at the stall.
        occupancy: u32,
    },
    /// An instruction retired through the fill unit.
    Retire {
        /// Instruction address.
        pc: Addr,
    },
    /// The fault injector perturbed a live front-end structure.
    FaultInjected {
        /// Which structure was perturbed.
        locus: FaultLocus,
        /// The affected address (segment start, branch PC, or 0 when
        /// the locus has no natural address).
        pc: Addr,
    },
    /// The sanitizer caught a corrupted segment at fill or hit time.
    FaultDetected {
        /// Start address of the corrupted segment.
        pc: Addr,
    },
    /// A corrupted trace-cache line was invalidated (quarantined).
    FaultQuarantined {
        /// Start address of the quarantined line.
        pc: Addr,
    },
    /// A quarantined fetch was re-serviced from the instruction cache —
    /// the recovery path completed.
    FaultRecovered {
        /// The refetched address.
        pc: Addr,
    },
    /// Execution crossed a mode boundary: a fast-forward, warm-up, or
    /// measurement phase completed (decoupled functional/timing
    /// execution).
    ModeBoundary {
        /// The phase that just completed.
        phase: ExecPhase,
        /// Instructions the phase consumed from the dynamic stream.
        insts: u64,
    },
}

/// Number of [`EventKind`] variants (sizes the per-kind count arrays).
pub const EVENT_KIND_COUNT: usize = 24;

/// The discriminant of a [`TraceEvent`], used for filtering and
/// per-kind counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// [`TraceEvent::TcHit`].
    TcHit = 0,
    /// [`TraceEvent::TcMiss`].
    TcMiss = 1,
    /// [`TraceEvent::TcFill`].
    TcFill = 2,
    /// [`TraceEvent::FillFinalize`].
    FillFinalize = 3,
    /// [`TraceEvent::PackPerformed`].
    PackPerformed = 4,
    /// [`TraceEvent::PackRefused`].
    PackRefused = 5,
    /// [`TraceEvent::Promotion`].
    Promotion = 6,
    /// [`TraceEvent::Demotion`].
    Demotion = 7,
    /// [`TraceEvent::PromotedFault`].
    PromotedFault = 8,
    /// [`TraceEvent::CondMispredict`].
    CondMispredict = 9,
    /// [`TraceEvent::IndirectMispredict`].
    IndirectMispredict = 10,
    /// [`TraceEvent::ReturnMispredict`].
    ReturnMispredict = 11,
    /// [`TraceEvent::Misfetch`].
    Misfetch = 12,
    /// [`TraceEvent::Repair`].
    Repair = 13,
    /// [`TraceEvent::IcacheMiss`].
    IcacheMiss = 14,
    /// [`TraceEvent::L2Miss`].
    L2Miss = 15,
    /// [`TraceEvent::Fetch`].
    Fetch = 16,
    /// [`TraceEvent::WindowStall`].
    WindowStall = 17,
    /// [`TraceEvent::Retire`].
    Retire = 18,
    /// [`TraceEvent::FaultInjected`].
    FaultInjected = 19,
    /// [`TraceEvent::FaultDetected`].
    FaultDetected = 20,
    /// [`TraceEvent::FaultQuarantined`].
    FaultQuarantined = 21,
    /// [`TraceEvent::FaultRecovered`].
    FaultRecovered = 22,
    /// [`TraceEvent::ModeBoundary`].
    ModeBoundary = 23,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EVENT_KIND_COUNT] = [
        EventKind::TcHit,
        EventKind::TcMiss,
        EventKind::TcFill,
        EventKind::FillFinalize,
        EventKind::PackPerformed,
        EventKind::PackRefused,
        EventKind::Promotion,
        EventKind::Demotion,
        EventKind::PromotedFault,
        EventKind::CondMispredict,
        EventKind::IndirectMispredict,
        EventKind::ReturnMispredict,
        EventKind::Misfetch,
        EventKind::Repair,
        EventKind::IcacheMiss,
        EventKind::L2Miss,
        EventKind::Fetch,
        EventKind::WindowStall,
        EventKind::Retire,
        EventKind::FaultInjected,
        EventKind::FaultDetected,
        EventKind::FaultQuarantined,
        EventKind::FaultRecovered,
        EventKind::ModeBoundary,
    ];

    /// Stable snake-case name (CLI filter token, Chrome event name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TcHit => "tc_hit",
            EventKind::TcMiss => "tc_miss",
            EventKind::TcFill => "tc_fill",
            EventKind::FillFinalize => "fill_finalize",
            EventKind::PackPerformed => "pack_performed",
            EventKind::PackRefused => "pack_refused",
            EventKind::Promotion => "promotion",
            EventKind::Demotion => "demotion",
            EventKind::PromotedFault => "promoted_fault",
            EventKind::CondMispredict => "cond_mispredict",
            EventKind::IndirectMispredict => "indirect_mispredict",
            EventKind::ReturnMispredict => "return_mispredict",
            EventKind::Misfetch => "misfetch",
            EventKind::Repair => "repair",
            EventKind::IcacheMiss => "icache_miss",
            EventKind::L2Miss => "l2_miss",
            EventKind::Fetch => "fetch",
            EventKind::WindowStall => "window_stall",
            EventKind::Retire => "retire",
            EventKind::FaultInjected => "fault_injected",
            EventKind::FaultDetected => "fault_detected",
            EventKind::FaultQuarantined => "fault_quarantined",
            EventKind::FaultRecovered => "fault_recovered",
            EventKind::ModeBoundary => "mode_boundary",
        }
    }

    /// Category token (coarser CLI filter granularity; Chrome `cat`).
    #[must_use]
    pub fn category(self) -> &'static str {
        match self {
            EventKind::TcHit | EventKind::TcMiss | EventKind::TcFill => "tc",
            EventKind::FillFinalize | EventKind::PackPerformed | EventKind::PackRefused => "fill",
            EventKind::Promotion | EventKind::Demotion | EventKind::PromotedFault => "promote",
            EventKind::CondMispredict
            | EventKind::IndirectMispredict
            | EventKind::ReturnMispredict
            | EventKind::Misfetch
            | EventKind::Repair => "mispredict",
            EventKind::IcacheMiss | EventKind::L2Miss => "cache",
            EventKind::Fetch | EventKind::WindowStall => "machine",
            EventKind::Retire => "retire",
            EventKind::FaultInjected
            | EventKind::FaultDetected
            | EventKind::FaultQuarantined
            | EventKind::FaultRecovered => "fault",
            EventKind::ModeBoundary => "mode",
        }
    }

    /// The kind's index into per-kind count arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl TraceEvent {
    /// The event's kind.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::TcHit { .. } => EventKind::TcHit,
            TraceEvent::TcMiss { .. } => EventKind::TcMiss,
            TraceEvent::TcFill { .. } => EventKind::TcFill,
            TraceEvent::FillFinalize { .. } => EventKind::FillFinalize,
            TraceEvent::PackPerformed { .. } => EventKind::PackPerformed,
            TraceEvent::PackRefused { .. } => EventKind::PackRefused,
            TraceEvent::Promotion { .. } => EventKind::Promotion,
            TraceEvent::Demotion { .. } => EventKind::Demotion,
            TraceEvent::PromotedFault { .. } => EventKind::PromotedFault,
            TraceEvent::CondMispredict { .. } => EventKind::CondMispredict,
            TraceEvent::IndirectMispredict { .. } => EventKind::IndirectMispredict,
            TraceEvent::ReturnMispredict { .. } => EventKind::ReturnMispredict,
            TraceEvent::Misfetch { .. } => EventKind::Misfetch,
            TraceEvent::Repair { .. } => EventKind::Repair,
            TraceEvent::IcacheMiss { .. } => EventKind::IcacheMiss,
            TraceEvent::L2Miss { .. } => EventKind::L2Miss,
            TraceEvent::Fetch { .. } => EventKind::Fetch,
            TraceEvent::WindowStall { .. } => EventKind::WindowStall,
            TraceEvent::Retire { .. } => EventKind::Retire,
            TraceEvent::FaultInjected { .. } => EventKind::FaultInjected,
            TraceEvent::FaultDetected { .. } => EventKind::FaultDetected,
            TraceEvent::FaultQuarantined { .. } => EventKind::FaultQuarantined,
            TraceEvent::FaultRecovered { .. } => EventKind::FaultRecovered,
            TraceEvent::ModeBoundary { .. } => EventKind::ModeBoundary,
        }
    }
}
