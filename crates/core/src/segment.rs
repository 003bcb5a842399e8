//! Trace segments: the lines of the trace cache.

use tc_isa::{Addr, ControlKind, Instr};

use crate::inline_vec::InlineVec;

/// Maximum instructions in one trace segment (one trace-cache line).
pub const MAX_SEGMENT_INSTS: usize = 16;
/// Maximum *non-promoted* conditional branches per segment.
pub const MAX_SEGMENT_BRANCHES: usize = 3;

pub use tc_trace::SegEndReason;

/// One instruction within a trace segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInst {
    /// The instruction's address.
    pub pc: Addr,
    /// The instruction.
    pub instr: Instr,
    /// For conditional branches: the direction the trace followed when it
    /// was built (the embedded path).
    pub taken: bool,
    /// `Some(direction)` if this conditional branch was *promoted* by the
    /// fill unit: it carries a built-in static prediction and consumes no
    /// dynamic-predictor bandwidth.
    pub promoted: Option<bool>,
}

impl Default for SegmentInst {
    /// A placeholder `Nop` at address zero, used only to initialize
    /// [`InlineVec`] backing storage; never observed through the slice
    /// API.
    fn default() -> SegmentInst {
        SegmentInst {
            pc: Addr::new(0),
            instr: Instr::Nop,
            taken: false,
            promoted: None,
        }
    }
}

impl SegmentInst {
    /// Whether this is a conditional branch that still needs a dynamic
    /// prediction.
    #[must_use]
    pub fn needs_prediction(&self) -> bool {
        self.instr.is_cond_branch() && self.promoted.is_none()
    }

    /// The address of the next instruction along the embedded path.
    #[must_use]
    pub fn embedded_next(&self) -> Addr {
        match self.instr {
            Instr::Branch { target, .. } => {
                if self.taken {
                    target
                } else {
                    self.pc.next()
                }
            }
            Instr::Jump { target } | Instr::Call { target } => target,
            // Returns/indirects end segments; callers handle their
            // successors via predictors.
            _ => self.pc.next(),
        }
    }
}

/// A finalized trace segment: logically contiguous instructions placed in
/// physically contiguous storage.
///
/// The instructions live **inline** in the segment (a line is at most
/// [`MAX_SEGMENT_INSTS`] instructions), so constructing, copying into the
/// trace cache, and dropping a segment never touches the heap.
///
/// # Example
///
/// ```
/// use tc_core::{TraceSegment, SegmentInst, SegEndReason};
/// use tc_isa::{Addr, Instr, Reg};
///
/// let insts = [
///     SegmentInst { pc: Addr::new(0), instr: Instr::Nop, taken: false, promoted: None },
///     SegmentInst { pc: Addr::new(1), instr: Instr::Nop, taken: false, promoted: None },
/// ];
/// let seg = TraceSegment::new(&insts, SegEndReason::AtomicBlock);
/// assert_eq!(seg.start(), Addr::new(0));
/// assert_eq!(seg.len(), 2);
/// assert_eq!(seg.dynamic_branch_count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSegment {
    insts: InlineVec<SegmentInst, MAX_SEGMENT_INSTS>,
    end_reason: SegEndReason,
}

impl TraceSegment {
    /// Creates a segment by copying its instructions into inline storage.
    ///
    /// # Panics
    ///
    /// Panics if empty, longer than 16 instructions, or carrying more
    /// than three non-promoted conditional branches.
    #[must_use]
    pub fn new(insts: &[SegmentInst], end_reason: SegEndReason) -> TraceSegment {
        check_shape(insts);
        TraceSegment {
            insts: InlineVec::from_slice(insts),
            end_reason,
        }
    }

    /// Overwrites this segment in place with `insts`, under the same
    /// checks as [`TraceSegment::new`] — how a trace-cache fill reuses
    /// a line's storage.
    pub(crate) fn assign(&mut self, insts: &[SegmentInst], end_reason: SegEndReason) {
        check_shape(insts);
        self.insts.clear();
        self.insts.extend_from_slice(insts);
        self.end_reason = end_reason;
    }

    /// The segment's start address (its trace-cache tag).
    #[must_use]
    pub fn start(&self) -> Addr {
        self.insts[0].pc
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the segment is empty (never true for a valid segment).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions in order.
    #[must_use]
    pub fn insts(&self) -> &[SegmentInst] {
        self.insts.as_slice()
    }

    /// Mutable access to the stored instructions, for the in-crate
    /// fault-injection hooks only: mutations may break the structural
    /// invariants [`TraceSegment::new`] enforces — that is the point —
    /// and the sanitizer is the detector.
    pub(crate) fn insts_mut(&mut self) -> &mut [SegmentInst] {
        self.insts.as_mut_slice()
    }

    /// Why the fill unit finalized this segment.
    #[must_use]
    pub fn end_reason(&self) -> SegEndReason {
        self.end_reason
    }

    /// Number of non-promoted conditional branches (each consumes one
    /// predictor slot when fetched).
    #[must_use]
    pub fn dynamic_branch_count(&self) -> usize {
        self.insts.iter().filter(|i| i.needs_prediction()).count()
    }

    /// Number of promoted branches embedded in the segment.
    #[must_use]
    pub fn promoted_count(&self) -> usize {
        self.insts.iter().filter(|i| i.promoted.is_some()).count()
    }

    /// Matches the segment against up to three dynamic predictions.
    ///
    /// Walks the embedded path; each non-promoted conditional branch
    /// consumes the next prediction. Returns `(active_len,
    /// predictions_used, full_match)`:
    ///
    /// * `active_len` — instructions issued *actively* (matching the
    ///   predicted path). On a divergence the branch itself is still
    ///   active (it lies on the predicted path; only its successors
    ///   differ).
    /// * `predictions_used` — dynamic predictions consumed.
    /// * `full_match` — whether the whole segment lies on the predicted
    ///   path.
    ///
    /// With inactive issue, the remaining `len() - active_len`
    /// instructions are issued inactively by the caller.
    #[must_use]
    pub fn match_predictions(&self, preds: &[bool]) -> (usize, usize, bool) {
        let mut used = 0;
        for (i, inst) in self.insts.iter().enumerate() {
            if inst.needs_prediction() {
                let pred = preds.get(used).copied().unwrap_or(false);
                used += 1;
                if pred != inst.taken {
                    // Partial match: everything after this branch is off
                    // the predicted path.
                    return (i + 1, used, false);
                }
            }
        }
        (self.insts.len(), used, true)
    }

    /// Whether the segment contains a backward conditional branch with a
    /// displacement of `max_disp` instructions or fewer — the "tight
    /// loop" trigger of cost-regulated packing (§5).
    #[must_use]
    pub fn has_short_backward_branch(&self, max_disp: i64) -> bool {
        has_short_backward_branch(self.insts(), max_disp)
    }

    /// The last instruction of the segment.
    #[must_use]
    pub fn last(&self) -> &SegmentInst {
        self.insts.last().expect("segments are non-empty")
    }

    /// Whether the segment's final instruction redirects through a
    /// register (return / indirect), so the next fetch address must come
    /// from the RAS or indirect predictor.
    #[must_use]
    pub fn ends_indirect(&self) -> bool {
        self.last().instr.control_kind().is_indirect()
    }

    /// Whether the segment ends with a serializing trap.
    #[must_use]
    pub fn ends_trap(&self) -> bool {
        self.last().instr.control_kind() == ControlKind::Trap
    }
}

/// The panics of [`TraceSegment::new`], for a segment of `len`
/// instructions with `dynamic_branches` non-promoted conditional
/// branches: the limits every finalized segment and every stored line
/// meets.
pub(crate) fn assert_well_formed(len: usize, dynamic_branches: usize) {
    assert!(len > 0, "trace segment cannot be empty");
    assert!(
        len <= MAX_SEGMENT_INSTS,
        "trace segment over 16 instructions"
    );
    assert!(
        dynamic_branches <= MAX_SEGMENT_BRANCHES,
        "trace segment has {dynamic_branches} non-promoted branches"
    );
}

fn check_shape(insts: &[SegmentInst]) {
    let branches = insts.iter().filter(|i| i.needs_prediction()).count();
    assert_well_formed(insts.len(), branches);
}

/// Slice-level form of [`TraceSegment::has_short_backward_branch`], so
/// the fill unit's cost-regulation probe can test its pending
/// instructions directly instead of constructing a throwaway segment.
#[must_use]
pub fn has_short_backward_branch(insts: &[SegmentInst], max_disp: i64) -> bool {
    insts.iter().any(|si| {
        if let Instr::Branch { target, .. } = si.instr {
            let disp = si.pc.distance_from(target);
            disp > 0 && disp <= max_disp
        } else {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_isa::{Cond, Reg};

    fn nop(pc: u32) -> SegmentInst {
        SegmentInst {
            pc: Addr::new(pc),
            instr: Instr::Nop,
            taken: false,
            promoted: None,
        }
    }

    fn branch(pc: u32, target: u32, taken: bool, promoted: Option<bool>) -> SegmentInst {
        SegmentInst {
            pc: Addr::new(pc),
            instr: Instr::Branch {
                cond: Cond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(target),
            },
            taken,
            promoted,
        }
    }

    #[test]
    fn full_match_consumes_predictions() {
        let seg = TraceSegment::new(
            &[
                nop(0),
                branch(1, 10, true, None),
                nop(10),
                branch(11, 0, false, None),
                nop(12),
            ],
            SegEndReason::AtomicBlock,
        );
        let (active, used, full) = seg.match_predictions(&[true, false, true]);
        assert_eq!(active, 5);
        assert_eq!(used, 2);
        assert!(full);
    }

    #[test]
    fn partial_match_stops_after_divergent_branch() {
        let seg = TraceSegment::new(
            &[nop(0), branch(1, 10, true, None), nop(10), nop(11)],
            SegEndReason::MaxSize,
        );
        let (active, used, full) = seg.match_predictions(&[false]);
        assert_eq!(active, 2, "the divergent branch itself stays active");
        assert_eq!(used, 1);
        assert!(!full);
    }

    #[test]
    fn promoted_branches_consume_no_predictions() {
        let seg = TraceSegment::new(
            &[
                nop(0),
                branch(1, 10, true, Some(true)),
                nop(10),
                branch(11, 0, false, Some(false)),
                nop(12),
            ],
            SegEndReason::AtomicBlock,
        );
        assert_eq!(seg.dynamic_branch_count(), 0);
        assert_eq!(seg.promoted_count(), 2);
        let (active, used, full) = seg.match_predictions(&[]);
        assert_eq!(active, 5);
        assert_eq!(used, 0);
        assert!(full);
    }

    #[test]
    fn embedded_next_follows_the_trace_path() {
        let taken = branch(5, 20, true, None);
        assert_eq!(taken.embedded_next(), Addr::new(20));
        let not_taken = branch(5, 20, false, None);
        assert_eq!(not_taken.embedded_next(), Addr::new(6));
        assert_eq!(nop(7).embedded_next(), Addr::new(8));
    }

    #[test]
    fn short_backward_branch_detection() {
        let loop_seg = TraceSegment::new(
            &[nop(100), branch(101, 96, true, None)],
            SegEndReason::MaxBranches,
        );
        assert!(loop_seg.has_short_backward_branch(32));
        assert!(!loop_seg.has_short_backward_branch(4));
        let fwd = TraceSegment::new(
            &[branch(0, 50, true, None), nop(50)],
            SegEndReason::AtomicBlock,
        );
        assert!(!fwd.has_short_backward_branch(32));
    }

    #[test]
    #[should_panic(expected = "non-promoted branches")]
    fn too_many_branches_rejected() {
        let _ = TraceSegment::new(
            &[
                branch(0, 8, false, None),
                branch(1, 8, false, None),
                branch(2, 8, false, None),
                branch(3, 8, false, None),
            ],
            SegEndReason::MaxBranches,
        );
    }

    #[test]
    fn ends_indirect_and_trap() {
        let ret = TraceSegment::new(
            &[
                nop(0),
                SegmentInst {
                    pc: Addr::new(1),
                    instr: Instr::Ret,
                    taken: false,
                    promoted: None,
                },
            ],
            SegEndReason::RetIndTrap,
        );
        assert!(ret.ends_indirect());
        assert!(!ret.ends_trap());
        let trap = TraceSegment::new(
            &[SegmentInst {
                pc: Addr::new(0),
                instr: Instr::Trap { code: 1 },
                taken: false,
                promoted: None,
            }],
            SegEndReason::RetIndTrap,
        );
        assert!(trap.ends_trap());
    }
}
