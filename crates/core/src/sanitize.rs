//! Runtime invariant sanitizer for the trace-cache pipeline.
//!
//! The fill unit and trace cache maintain structural invariants that the
//! rest of the front end relies on: segments hold at most
//! [`MAX_SEGMENT_INSTS`] instructions and [`MAX_SEGMENT_BRANCHES`]
//! non-promoted conditional branches, the embedded path is contiguous,
//! segment-ending instructions appear only in the last slot, chunked
//! packing splits only at chunk multiples, and (without path
//! associativity) at most one segment per start address is resident.
//!
//! Instead of scattering `debug_assert!`s through the hot paths, the
//! [`Sanitizer`] validates these invariants at well-defined points —
//! segment finalization ([`Sanitizer::check_fill`]), trace-cache hits
//! ([`Sanitizer::check_hit`]), and whole-cache audits
//! ([`crate::TraceCache::audit`]) — and emits structured [`Violation`]
//! records carrying the offending address, the cycle, and the check
//! site. It is enabled by [`crate::FrontEndConfig::sanitize`], which
//! defaults to on in debug/test builds and off in release builds.

use tc_isa::Addr;
use tc_predict::{BiasDecision, BiasTable};

use crate::segment::{SegmentInst, TraceSegment, MAX_SEGMENT_BRANCHES, MAX_SEGMENT_INSTS};

/// Upper bound on retained [`Violation`] records; counters keep
/// incrementing past it so a violation storm cannot balloon memory.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// How severe a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationSeverity {
    /// A broken invariant: the structure is invalid and downstream
    /// behavior is undefined.
    Error,
    /// Suspicious but survivable (e.g. a promoted branch whose bias
    /// entry was since demoted or evicted — legal, just stale).
    Warning,
}

/// Which check site observed the violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckSite {
    /// Segment finalization, before the trace-cache write.
    Fill,
    /// A trace-cache hit, before the segment is issued.
    Hit,
    /// A whole-cache audit of resident segments.
    Audit,
}

impl CheckSite {
    fn name(self) -> &'static str {
        match self {
            CheckSite::Fill => "fill",
            CheckSite::Hit => "hit",
            CheckSite::Audit => "audit",
        }
    }
}

/// The specific invariant that was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A segment holds more than [`MAX_SEGMENT_INSTS`] instructions.
    SegmentTooLong {
        /// The offending length.
        len: usize,
    },
    /// A segment holds more than [`MAX_SEGMENT_BRANCHES`] non-promoted
    /// conditional branches.
    TooManyDynamicBranches {
        /// The offending branch count.
        count: usize,
    },
    /// A segment holds no instructions at all.
    EmptySegment,
    /// The embedded path is discontinuous: an interior instruction's
    /// successor is not the next instruction in the segment.
    PathDiscontinuity {
        /// Address of the instruction whose successor is wrong.
        at: Addr,
        /// The successor the embedded path implies.
        expected: Addr,
        /// The successor actually stored.
        found: Addr,
    },
    /// A segment-ending instruction (return, indirect jump/call, trap)
    /// appears before the last slot.
    InteriorSegmentEnd {
        /// Address of the interior segment-ender.
        at: Addr,
    },
    /// A non-branch instruction carries a promotion flag.
    PromotedNotBranch {
        /// Address of the mis-flagged instruction.
        at: Addr,
    },
    /// A promoted branch whose bias-table entry no longer promotes it
    /// (demoted or evicted between the decision and the check).
    StaleBiasEntry {
        /// Address of the promoted branch.
        at: Addr,
    },
    /// Chunked packing split a block at a non-multiple of the chunk
    /// size.
    SplitGranularity {
        /// The configured chunk size.
        chunk: usize,
        /// The head length actually split off.
        head: usize,
    },
    /// The fill unit was asked to append a block that cannot fit the
    /// pending segment.
    PendingOverflow {
        /// Instructions already pending.
        pending: usize,
        /// Instructions in the offending block.
        block: usize,
    },
    /// Two resident segments in one set share a start address although
    /// path associativity is disabled.
    DuplicateStartAddress {
        /// The shared start address.
        start: Addr,
    },
}

impl ViolationKind {
    /// The severity class of this violation kind.
    #[must_use]
    pub fn severity(self) -> ViolationSeverity {
        match self {
            ViolationKind::StaleBiasEntry { .. } => ViolationSeverity::Warning,
            _ => ViolationSeverity::Error,
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::SegmentTooLong { len } => {
                write!(f, "segment holds {len} instructions (max {MAX_SEGMENT_INSTS})")
            }
            ViolationKind::TooManyDynamicBranches { count } => write!(
                f,
                "segment holds {count} non-promoted branches (max {MAX_SEGMENT_BRANCHES})"
            ),
            ViolationKind::EmptySegment => write!(f, "segment holds no instructions"),
            ViolationKind::PathDiscontinuity {
                at,
                expected,
                found,
            } => write!(
                f,
                "embedded path breaks at {at}: expected successor {expected}, found {found}"
            ),
            ViolationKind::InteriorSegmentEnd { at } => {
                write!(f, "segment-ending instruction at {at} is not in the last slot")
            }
            ViolationKind::PromotedNotBranch { at } => {
                write!(f, "non-branch at {at} carries a promotion flag")
            }
            ViolationKind::StaleBiasEntry { at } => {
                write!(f, "promoted branch at {at} has no live bias-table entry")
            }
            ViolationKind::SplitGranularity { chunk, head } => {
                write!(f, "chunk-{chunk} packing split a block at {head} instructions")
            }
            ViolationKind::PendingOverflow { pending, block } => write!(
                f,
                "block of {block} appended onto {pending} pending instructions overflows the segment"
            ),
            ViolationKind::DuplicateStartAddress { start } => {
                write!(f, "two resident segments start at {start} without path associativity")
            }
        }
    }
}

/// One observed invariant violation, with context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The broken invariant.
    pub kind: ViolationKind,
    /// Which check site observed it.
    pub site: CheckSite,
    /// The simulation cycle at the check (0 outside a timed run).
    pub cycle: u64,
    /// The start address of the segment under check, when applicable.
    pub segment_start: Option<Addr>,
}

impl Violation {
    /// The severity class, from the kind.
    #[must_use]
    pub fn severity(&self) -> ViolationSeverity {
        self.kind.severity()
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity() {
            ViolationSeverity::Error => "error",
            ViolationSeverity::Warning => "warning",
        };
        write!(f, "{sev}[{}] cycle {}", self.site.name(), self.cycle)?;
        if let Some(start) = self.segment_start {
            write!(f, " segment {start}")?;
        }
        write!(f, ": {}", self.kind)
    }
}

/// Counters summarizing sanitizer activity, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerStats {
    /// Whether the sanitizer was enabled at all.
    pub enabled: bool,
    /// Segments validated at fill time.
    pub checked_fills: u64,
    /// Segments validated on trace-cache hits.
    pub checked_hits: u64,
    /// Error-severity violations observed.
    pub errors: u64,
    /// Warning-severity violations observed.
    pub warnings: u64,
}

/// The invariant sanitizer.
///
/// Owned by the front end; disabled it is inert (checks return
/// immediately and record nothing). The driver advances its clock with
/// [`Sanitizer::set_now`] so violations carry the cycle they were
/// observed at.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    enabled: bool,
    now: u64,
    violations: Vec<Violation>,
    stats: SanitizerStats,
}

impl Sanitizer {
    /// Creates a sanitizer; `enabled = false` makes every check a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Sanitizer {
        Sanitizer {
            enabled,
            now: 0,
            violations: Vec::new(),
            stats: SanitizerStats {
                enabled,
                ..SanitizerStats::default()
            },
        }
    }

    /// Whether checks are active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Advances the sanitizer's notion of the current cycle.
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> SanitizerStats {
        self.stats
    }

    /// The retained violation records (capped at
    /// [`MAX_RECORDED_VIOLATIONS`]; the counters in
    /// [`Sanitizer::stats`] are exact).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Records one violation observed at `site`.
    pub fn record(&mut self, site: CheckSite, segment_start: Option<Addr>, kind: ViolationKind) {
        if !self.enabled {
            return;
        }
        match kind.severity() {
            ViolationSeverity::Error => self.stats.errors += 1,
            ViolationSeverity::Warning => self.stats.warnings += 1,
        }
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(Violation {
                kind,
                site,
                cycle: self.now,
                segment_start,
            });
        }
    }

    /// Validates a freshly finalized segment before the trace-cache
    /// write. With a bias table, also checks that every promoted branch
    /// still has a live promoting entry.
    #[inline]
    pub fn check_fill(&mut self, insts: &[SegmentInst], bias: Option<&BiasTable>) {
        if self.enabled {
            self.check_fill_enabled(insts, bias);
        }
    }

    fn check_fill_enabled(&mut self, insts: &[SegmentInst], bias: Option<&BiasTable>) {
        self.stats.checked_fills += 1;
        self.check_insts(CheckSite::Fill, insts);
        if let Some(bias) = bias {
            let start = insts.first().map(|si| si.pc);
            for si in insts {
                if si.promoted.is_some()
                    && !matches!(bias.decision(si.pc.byte_addr()), BiasDecision::Promote(_))
                {
                    self.record(
                        CheckSite::Fill,
                        start,
                        ViolationKind::StaleBiasEntry { at: si.pc },
                    );
                }
            }
        }
    }

    /// Validates a segment delivered by a trace-cache hit.
    #[inline]
    pub fn check_hit(&mut self, insts: &[SegmentInst]) {
        if self.enabled {
            self.stats.checked_hits += 1;
            self.check_insts(CheckSite::Hit, insts);
        }
    }

    /// Validates one resident segment during a whole-cache audit.
    pub fn check_resident(&mut self, segment: &TraceSegment) {
        if !self.enabled {
            return;
        }
        self.check_insts(CheckSite::Audit, segment.insts());
    }

    /// The structural checks shared by every site: size and branch
    /// limits, interior segment-enders, embedded-path continuity, and
    /// promotion flags confined to conditional branches.
    fn check_insts(&mut self, site: CheckSite, insts: &[SegmentInst]) {
        let start = insts.first().map(|si| si.pc);
        if insts.is_empty() {
            self.record(site, start, ViolationKind::EmptySegment);
            return;
        }
        if insts.len() > MAX_SEGMENT_INSTS {
            self.record(
                site,
                start,
                ViolationKind::SegmentTooLong { len: insts.len() },
            );
        }
        let branches = insts.iter().filter(|si| si.needs_prediction()).count();
        if branches > MAX_SEGMENT_BRANCHES {
            self.record(
                site,
                start,
                ViolationKind::TooManyDynamicBranches { count: branches },
            );
        }
        for (si, next) in insts.iter().zip(insts.iter().skip(1)) {
            if si.instr.control_kind().ends_segment() {
                self.record(site, start, ViolationKind::InteriorSegmentEnd { at: si.pc });
                continue;
            }
            let expected = si.embedded_next();
            if expected != next.pc {
                self.record(
                    site,
                    start,
                    ViolationKind::PathDiscontinuity {
                        at: si.pc,
                        expected,
                        found: next.pc,
                    },
                );
            }
        }
        for si in insts {
            if si.promoted.is_some() && !si.instr.is_cond_branch() {
                self.record(site, start, ViolationKind::PromotedNotBranch { at: si.pc });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegEndReason;
    use tc_isa::{Cond, Instr, Reg};

    fn nop(pc: u32) -> SegmentInst {
        SegmentInst {
            pc: Addr::new(pc),
            instr: Instr::Nop,
            taken: false,
            promoted: None,
        }
    }

    #[test]
    fn disabled_sanitizer_records_nothing() {
        let mut s = Sanitizer::new(false);
        s.check_hit(&[]);
        assert!(s.violations().is_empty());
        assert_eq!(s.stats().checked_hits, 0);
        assert!(!s.stats().enabled);
    }

    #[test]
    fn clean_segment_passes_every_check() {
        let mut s = Sanitizer::new(true);
        let seg = TraceSegment::new(&[nop(0), nop(1), nop(2)], SegEndReason::AtomicBlock);
        s.check_fill(seg.insts(), None);
        s.check_hit(seg.insts());
        s.check_resident(&seg);
        assert!(s.violations().is_empty());
        assert_eq!(s.stats().checked_fills, 1);
        assert_eq!(s.stats().checked_hits, 1);
        assert_eq!(s.stats().errors, 0);
    }

    #[test]
    fn discontinuous_path_is_flagged() {
        let mut s = Sanitizer::new(true);
        s.set_now(42);
        // @0 falls through to @1 but the stored successor is @5.
        s.check_hit(&[nop(0), nop(5)]);
        let v = s.violations()[0];
        assert_eq!(
            v.kind,
            ViolationKind::PathDiscontinuity {
                at: Addr::new(0),
                expected: Addr::new(1),
                found: Addr::new(5),
            }
        );
        assert_eq!(v.site, CheckSite::Hit);
        assert_eq!(v.cycle, 42);
        assert_eq!(v.segment_start, Some(Addr::new(0)));
        assert_eq!(v.severity(), ViolationSeverity::Error);
        assert_eq!(s.stats().errors, 1);
    }

    #[test]
    fn branch_successor_follows_embedded_direction() {
        let mut s = Sanitizer::new(true);
        let br = SegmentInst {
            pc: Addr::new(1),
            instr: Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(9),
            },
            taken: true,
            promoted: None,
        };
        s.check_hit(&[nop(0), br, nop(9)]);
        assert!(
            s.violations().is_empty(),
            "taken branch continues at target"
        );
        s.check_hit(&[nop(0), br, nop(2)]);
        assert_eq!(
            s.violations().len(),
            1,
            "taken branch must not fall through"
        );
    }

    #[test]
    fn interior_return_is_flagged() {
        let mut s = Sanitizer::new(true);
        let ret = SegmentInst {
            pc: Addr::new(1),
            instr: Instr::Ret,
            taken: false,
            promoted: None,
        };
        s.check_hit(&[nop(0), ret, nop(2)]);
        assert_eq!(
            s.violations()[0].kind,
            ViolationKind::InteriorSegmentEnd { at: Addr::new(1) }
        );
        // In the final slot a return is fine.
        let mut s = Sanitizer::new(true);
        s.check_hit(&[nop(0), ret]);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn promoted_non_branch_is_flagged() {
        let mut s = Sanitizer::new(true);
        let bad = SegmentInst {
            promoted: Some(true),
            ..nop(0)
        };
        s.check_hit(&[bad]);
        assert_eq!(
            s.violations()[0].kind,
            ViolationKind::PromotedNotBranch { at: Addr::new(0) }
        );
    }

    #[test]
    fn violation_storm_is_capped() {
        let mut s = Sanitizer::new(true);
        for _ in 0..(MAX_RECORDED_VIOLATIONS + 10) {
            s.check_hit(&[nop(0), nop(7)]);
        }
        assert_eq!(s.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(s.stats().errors, (MAX_RECORDED_VIOLATIONS + 10) as u64);
    }

    #[test]
    fn violations_render_with_context() {
        let mut s = Sanitizer::new(true);
        s.set_now(7);
        s.check_hit(&[nop(4), nop(9)]);
        let text = s.violations()[0].to_string();
        assert!(
            text.starts_with("error[hit] cycle 7 segment @0x10:"),
            "{text}"
        );
    }
}
