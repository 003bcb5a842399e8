//! The fill unit: builds trace segments from the retired instruction
//! stream.

use tc_isa::{Addr, ControlKind, ExecRecord};
use tc_predict::{BiasDecision, BiasTable, BiasUpdate};
use tc_trace::{DemotionCause, NoopTracer, PackVerdict, TraceEvent, Tracer};

use crate::promote::StaticPromotionTable;
use crate::sanitize::ViolationKind;
use crate::segment::{
    assert_well_formed, has_short_backward_branch, SegEndReason, SegmentInst, MAX_SEGMENT_BRANCHES,
    MAX_SEGMENT_INSTS,
};

/// Slots in the fill buffer. Between retires the pending segment holds
/// at most 15 instructions (a 16th finalizes it) and the open block at
/// most 15 (a 16th closes it), so one retire writes at most slot 30.
const FILL_BUF: usize = 2 * MAX_SEGMENT_INSTS;

/// How the fill unit treats a retired block that does not fit in the
/// pending segment (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingPolicy {
    /// Fetch blocks are atomic: the pending segment is finalized and the
    /// block starts the next segment (the paper's baseline).
    Atomic,
    /// Unregulated trace packing: the block is split greedily so every
    /// segment is packed to 16 instructions.
    Unregulated,
    /// Packing in chunks of `n`: blocks only fragment at multiples of
    /// `n` instructions (the paper evaluates n = 2 and n = 4).
    Chunk(usize),
    /// Cost-regulated packing: pack only when the pending segment has at
    /// least half its length free, or contains a backward branch with
    /// displacement ≤ 32 instructions (tight loop).
    CostRegulated,
}

impl PackingPolicy {
    fn label(self) -> &'static str {
        match self {
            PackingPolicy::Atomic => "atomic",
            PackingPolicy::Unregulated => "unreg",
            PackingPolicy::Chunk(2) => "n=2",
            PackingPolicy::Chunk(4) => "n=4",
            PackingPolicy::Chunk(_) => "n=k",
            PackingPolicy::CostRegulated => "cost-reg",
        }
    }
}

impl std::fmt::Display for PackingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fill-unit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillStats {
    /// Segments finalized.
    pub segments: u64,
    /// Total instructions across finalized segments.
    pub segment_insts: u64,
    /// Promoted branches embedded into segments.
    pub promoted_embedded: u64,
    /// Non-promoted conditional branches embedded.
    pub dynamic_embedded: u64,
    /// Blocks split across segments by packing.
    pub blocks_split: u64,
    /// Blocks kept atomic because regulation refused the split.
    pub splits_refused: u64,
}

impl FillStats {
    /// Average finalized segment length.
    #[must_use]
    pub fn avg_segment_len(&self) -> f64 {
        if self.segments == 0 {
            0.0
        } else {
            self.segment_insts as f64 / self.segments as f64
        }
    }
}

/// How the fill unit decides to promote branches.
#[derive(Debug, Clone)]
enum Promoter {
    /// No promotion (the baseline).
    None,
    /// Dynamic promotion via the branch bias table (paper §4).
    Dynamic(BiasTable),
    /// Static, profile-guided promotion (the alternative §4 sketches).
    Static(StaticPromotionTable),
}

/// Conditional branches in a run of fill-buffer slots: the
/// non-promoted (dynamic) ones and the promoted ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BranchCounts {
    dynamic: usize,
    promoted: usize,
}

impl BranchCounts {
    /// Counts `insts` from scratch.
    fn of(insts: &[SegmentInst]) -> BranchCounts {
        BranchCounts {
            dynamic: insts.iter().filter(|i| i.needs_prediction()).count(),
            promoted: insts.iter().filter(|i| i.promoted.is_some()).count(),
        }
    }

    fn add(&mut self, other: BranchCounts) {
        self.dynamic += other.dynamic;
        self.promoted += other.promoted;
    }
}

/// A segment finalized by the latest retire: `buf[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Finalized {
    start: usize,
    end: usize,
    reason: SegEndReason,
}

/// The fill unit.
///
/// Collects retired instructions into fetch blocks, merges blocks into a
/// pending segment under the configured [`PackingPolicy`], and performs
/// **branch promotion** when built with a bias table (or a static
/// profile). The segments one retire finalizes — at most two — are read
/// through [`FillUnit::finalized`] until the next retire.
///
/// Per the paper: conditional branches terminate fetch blocks (promoted
/// ones do not); unconditional jumps and calls never terminate blocks;
/// returns, indirect jumps/calls and traps finalize the pending segment
/// outright.
///
/// Segments are built in place. One buffer holds, in order, the
/// segments the latest retire finalized, the pending segment, and the
/// open block, which is written directly after the pending
/// instructions: a block that fits joins the segment without moving,
/// and a packing split only moves the boundary between them. The next
/// retire moves the pending remainder (at most 15 instructions) back to
/// the front of the buffer.
#[derive(Debug, Clone)]
pub struct FillUnit {
    policy: PackingPolicy,
    promoter: Promoter,
    buf: [SegmentInst; FILL_BUF],
    /// Start of the pending segment in `buf`; everything before it
    /// belongs to `finalized`.
    seg: usize,
    /// End of the pending segment, which is where the open block starts.
    block: usize,
    /// End of the open block.
    end: usize,
    /// Branches in the pending segment, `buf[seg..block]`, kept as
    /// instructions join it so finalizing does not recount them.
    seg_branches: BranchCounts,
    /// Branches in the open block, `buf[block..end]`.
    block_branches: BranchCounts,
    finalized: [Finalized; 2],
    finalized_len: usize,
    stats: FillStats,
    violations: Vec<ViolationKind>,
}

impl FillUnit {
    /// Creates a fill unit. Pass a [`BiasTable`] to enable dynamic
    /// branch promotion.
    #[must_use]
    pub fn new(policy: PackingPolicy, bias: Option<BiasTable>) -> FillUnit {
        let none = Finalized {
            start: 0,
            end: 0,
            reason: SegEndReason::MaxSize,
        };
        FillUnit {
            policy,
            promoter: match bias {
                Some(b) => Promoter::Dynamic(b),
                None => Promoter::None,
            },
            buf: [SegmentInst::default(); FILL_BUF],
            seg: 0,
            block: 0,
            end: 0,
            seg_branches: BranchCounts::default(),
            block_branches: BranchCounts::default(),
            finalized: [none; 2],
            finalized_len: 0,
            stats: FillStats::default(),
            violations: Vec::new(),
        }
    }

    /// Creates a fill unit with static (profile-guided) promotion.
    #[must_use]
    pub fn new_static(policy: PackingPolicy, table: StaticPromotionTable) -> FillUnit {
        FillUnit {
            promoter: Promoter::Static(table),
            ..FillUnit::new(policy, None)
        }
    }

    /// The packing policy in force.
    #[must_use]
    pub fn policy(&self) -> PackingPolicy {
        self.policy
    }

    /// Whether branch promotion (dynamic or static) is enabled.
    #[must_use]
    pub fn promotes(&self) -> bool {
        !matches!(self.promoter, Promoter::None)
    }

    /// The bias table, when dynamic promotion is enabled.
    #[must_use]
    pub fn bias_table(&self) -> Option<&BiasTable> {
        match &self.promoter {
            Promoter::Dynamic(b) => Some(b),
            _ => None,
        }
    }

    /// Mutable bias-table access (fault-injection hook).
    pub fn bias_table_mut(&mut self) -> Option<&mut BiasTable> {
        match &mut self.promoter {
            Promoter::Dynamic(b) => Some(b),
            _ => None,
        }
    }

    /// Drops the in-flight (pending) segment state — the stalled-fill
    /// fault: retired instructions accumulated toward the next trace
    /// segment are lost, as if the fill pipeline was flushed. Segments
    /// already finalized are untouched. Returns `false` when nothing was
    /// pending. Architecturally invisible; only fill-rate statistics
    /// feel it.
    pub fn fault_drop_pending(&mut self) -> bool {
        let had = self.end > self.seg;
        self.block = self.seg;
        self.end = self.seg;
        self.seg_branches = BranchCounts::default();
        self.block_branches = BranchCounts::default();
        had
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &FillStats {
        &self.stats
    }

    /// The segments the latest retire finalized, in retirement order,
    /// as their instructions and end reason (at most two; none when it
    /// finalized nothing). Valid until the next retire.
    #[inline]
    pub fn finalized(&self) -> impl Iterator<Item = (&[SegmentInst], SegEndReason)> + '_ {
        self.finalized[..self.finalized_len]
            .iter()
            .map(|f| (&self.buf[f.start..f.end], f.reason))
    }

    /// Drains invariant violations observed while merging blocks, for
    /// the front end's [`crate::Sanitizer`] to record with cycle
    /// context. Violations accumulate whether or not a sanitizer is
    /// attached; in a healthy fill unit the list is always empty.
    #[inline]
    pub fn drain_violations(&mut self) -> std::vec::Drain<'_, ViolationKind> {
        self.violations.drain(..)
    }

    /// Feeds one retired instruction (correct path, program order).
    pub fn retire(&mut self, rec: &ExecRecord) {
        self.retire_traced(rec, &mut NoopTracer);
    }

    /// [`FillUnit::retire`] with an attached [`Tracer`]. With the
    /// [`NoopTracer`] this monomorphizes to exactly the untraced path.
    pub fn retire_traced<T: Tracer>(&mut self, rec: &ExecRecord, tracer: &mut T) {
        self.compact();
        let kind = rec.control_kind();
        let mut promoted = None;
        if kind == ControlKind::CondBranch {
            let decision = match &mut self.promoter {
                Promoter::None => None,
                Promoter::Dynamic(bias) => {
                    // Bias table updates at retire; the promotion query
                    // for this instance sees the update (Figure 5).
                    let (transition, decision) = bias.update(rec.pc.byte_addr(), rec.taken);
                    if T::ENABLED {
                        emit_bias_transition(tracer, rec.pc, transition);
                    }
                    match decision {
                        BiasDecision::Promote(dir) => Some(dir),
                        BiasDecision::Normal => None,
                    }
                }
                Promoter::Static(table) => table.decision(rec.pc),
            };
            // Promote only when this instance followed the promoted
            // direction — a contradicting instance is built as a normal
            // branch.
            if decision == Some(rec.taken) {
                promoted = decision;
            }
        }

        self.buf[self.end] = SegmentInst {
            pc: rec.pc,
            instr: rec.instr,
            taken: rec.taken,
            promoted,
        };
        self.end += 1;
        if promoted.is_some() {
            self.block_branches.promoted += 1;
        } else if kind == ControlKind::CondBranch {
            self.block_branches.dynamic += 1;
        }

        let ends_segment = kind.ends_segment();
        let ends_block = (kind == ControlKind::CondBranch && promoted.is_none()) || ends_segment;
        let forced = self.end - self.block == MAX_SEGMENT_INSTS;

        if ends_block || forced {
            self.merge_block(ends_segment, tracer);
        }
    }

    /// Number of instructions currently pending (un-finalized).
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.end - self.seg
    }

    /// Moves the pending segment and open block to the front of the
    /// buffer once the segments before them have been read.
    fn compact(&mut self) {
        self.finalized_len = 0;
        if self.seg > 0 {
            self.buf.copy_within(self.seg..self.end, 0);
            self.block -= self.seg;
            self.end -= self.seg;
            self.seg = 0;
        }
    }

    fn pending(&self) -> &[SegmentInst] {
        &self.buf[self.seg..self.block]
    }

    fn finalize<T: Tracer>(&mut self, reason: SegEndReason, tracer: &mut T) {
        if self.block == self.seg {
            return;
        }
        let insts = &self.buf[self.seg..self.block];
        debug_assert_eq!(self.seg_branches, BranchCounts::of(insts));
        let BranchCounts { dynamic, promoted } = self.seg_branches;
        self.stats.segments += 1;
        self.stats.segment_insts += insts.len() as u64;
        self.stats.promoted_embedded += promoted as u64;
        self.stats.dynamic_embedded += dynamic as u64;
        if T::ENABLED {
            tracer.emit(TraceEvent::FillFinalize {
                start: insts[0].pc,
                len: insts.len() as u8,
                dynamic_branches: dynamic as u8,
                promoted: promoted as u8,
                reason,
            });
        }
        assert_well_formed(insts.len(), dynamic);
        self.finalized[self.finalized_len] = Finalized {
            start: self.seg,
            end: self.block,
            reason,
        };
        self.finalized_len += 1;
        self.seg = self.block;
        self.seg_branches = BranchCounts::default();
    }

    /// Appends the open block, which fits, to the pending segment and
    /// applies the finalize rules.
    fn append_fitting<T: Tracer>(&mut self, ends_segment: bool, tracer: &mut T) {
        let pending = self.block - self.seg;
        let mut len = self.end - self.block;
        if pending + len > MAX_SEGMENT_INSTS {
            // A broken merge decision. Record the violation for the
            // sanitizer and clamp so the segment stays well-formed.
            self.violations.push(ViolationKind::PendingOverflow {
                pending,
                block: len,
            });
            len = MAX_SEGMENT_INSTS - pending;
            self.block_branches = BranchCounts::of(&self.buf[self.block..self.block + len]);
        }
        self.block += len;
        self.end = self.block;
        self.seg_branches.add(self.block_branches);
        self.block_branches = BranchCounts::default();
        if ends_segment {
            self.finalize(SegEndReason::RetIndTrap, tracer);
        } else if self.block - self.seg == MAX_SEGMENT_INSTS {
            self.finalize(SegEndReason::MaxSize, tracer);
        } else if self.seg_branches.dynamic == MAX_SEGMENT_BRANCHES {
            self.finalize(SegEndReason::MaxBranches, tracer);
        }
    }

    /// Merges the open block (`buf[block..end]`) into the pending
    /// segment under the packing policy.
    fn merge_block<T: Tracer>(&mut self, ends_segment: bool, tracer: &mut T) {
        let pending = self.block - self.seg;
        let len = self.end - self.block;
        let space = MAX_SEGMENT_INSTS - pending;
        if len <= space {
            self.append_fitting(ends_segment, tracer);
            return;
        }
        // The block does not fit: the policy decides (the verdict names
        // the rule that fired, for the event stream).
        let (take, verdict) = match self.policy {
            PackingPolicy::Atomic => (0, PackVerdict::AtomicPolicy),
            PackingPolicy::Unregulated => (space, PackVerdict::Unregulated),
            PackingPolicy::Chunk(n) => {
                let take = (space / n) * n;
                if take == 0 {
                    (0, PackVerdict::ChunkTooSmall)
                } else {
                    (take, PackVerdict::ChunkFit)
                }
            }
            PackingPolicy::CostRegulated => {
                if 2 * space >= pending {
                    (space, PackVerdict::SpareCapacity)
                } else if has_short_backward_branch(self.pending(), 32) {
                    (space, PackVerdict::TightLoop)
                } else {
                    (0, PackVerdict::CostRefused)
                }
            }
        };
        if let PackingPolicy::Chunk(n) = self.policy {
            if take % n != 0 {
                self.violations.push(ViolationKind::SplitGranularity {
                    chunk: n,
                    head: take,
                });
            }
        }
        if take == 0 {
            // Atomic treatment: finalize pending; the block starts fresh.
            self.stats.splits_refused += 1;
            if T::ENABLED {
                tracer.emit(TraceEvent::PackRefused {
                    pending: pending as u8,
                    block: len as u8,
                    verdict,
                });
            }
            self.finalize(SegEndReason::AtomicBlock, tracer);
            self.append_fitting(ends_segment, tracer);
            return;
        }
        // Packing: the block's head finishes the pending segment where
        // it stands, and its tail starts the next one.
        self.stats.blocks_split += 1;
        if T::ENABLED {
            tracer.emit(TraceEvent::PackPerformed {
                head: take as u8,
                tail: (len - take) as u8,
                verdict,
            });
        }
        let head = BranchCounts::of(&self.buf[self.block..self.block + take]);
        self.seg_branches.add(head);
        self.block_branches.dynamic -= head.dynamic;
        self.block_branches.promoted -= head.promoted;
        self.block += take;
        // A performed split that still leaves the line non-full (chunk
        // granularity) is `Packed`, not `AtomicBlock`: the histograms
        // must keep performed and refused splits apart.
        let reason = if self.block - self.seg == MAX_SEGMENT_INSTS {
            SegEndReason::MaxSize
        } else {
            SegEndReason::Packed
        };
        self.finalize(reason, tracer);
        self.append_fitting(ends_segment, tracer);
    }
}

/// Maps a [`BiasUpdate`] transition onto Promotion/Demotion events.
fn emit_bias_transition<T: Tracer>(tracer: &mut T, pc: Addr, transition: BiasUpdate) {
    match transition {
        BiasUpdate::None => {}
        BiasUpdate::Promoted(dir) => tracer.emit(TraceEvent::Promotion { pc, dir }),
        BiasUpdate::Demoted => tracer.emit(TraceEvent::Demotion {
            pc,
            cause: DemotionCause::ConsecutiveOpposite,
        }),
        BiasUpdate::EvictedPromoted(victim) => {
            // The bias table is indexed by byte address; recover the
            // victim's instruction address.
            let victim = Addr::new((victim / Addr::INSTR_BYTES) as u32);
            tracer.emit(TraceEvent::Demotion {
                pc: victim,
                cause: DemotionCause::Evicted,
            });
        }
        BiasUpdate::DemotedThenPromoted(dir) => {
            tracer.emit(TraceEvent::Demotion {
                pc,
                cause: DemotionCause::ConsecutiveOpposite,
            });
            tracer.emit(TraceEvent::Promotion { pc, dir });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::TraceSegment;
    use std::collections::VecDeque;
    use tc_isa::{Addr, Cond, Instr, Reg};
    use tc_predict::BiasConfig;

    /// A fill unit whose finalized segments are read after every retire
    /// and queued, as the front end reads them, so a test can retire
    /// several blocks before looking.
    pub(super) struct Collector {
        pub(super) unit: FillUnit,
        segments: VecDeque<TraceSegment>,
    }

    impl Collector {
        pub(super) fn new(unit: FillUnit) -> Collector {
            Collector {
                unit,
                segments: VecDeque::new(),
            }
        }

        pub(super) fn retire(&mut self, rec: &ExecRecord) {
            self.unit.retire(rec);
            for (insts, reason) in self.unit.finalized() {
                self.segments.push_back(TraceSegment::new(insts, reason));
            }
        }

        pub(super) fn pop_segment(&mut self) -> Option<TraceSegment> {
            self.segments.pop_front()
        }

        fn stats(&self) -> &FillStats {
            self.unit.stats()
        }
    }

    /// Feeds `n` straight-line instructions ending with a conditional
    /// branch at sequential addresses starting at `pc`.
    fn feed_block(fill: &mut Collector, pc: &mut u32, n: usize, taken: bool) {
        for i in 0..n {
            let is_last = i == n - 1;
            let instr = if is_last {
                Instr::Branch {
                    cond: Cond::Eq,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(*pc + 100),
                }
            } else {
                Instr::Nop
            };
            let next = if is_last && taken { *pc + 100 } else { *pc + 1 };
            fill.retire(&ExecRecord {
                pc: Addr::new(*pc),
                instr,
                next_pc: Addr::new(next),
                taken: is_last && taken,
                mem_addr: None,
            });
            *pc += 1;
        }
        if taken {
            *pc += 99; // follow the branch target
        }
    }

    fn feed_ret(fill: &mut Collector, pc: &mut u32) {
        fill.retire(&ExecRecord {
            pc: Addr::new(*pc),
            instr: Instr::Ret,
            next_pc: Addr::new(0),
            taken: false,
            mem_addr: None,
        });
        *pc = 0;
    }

    #[test]
    fn three_branches_finalize_a_segment() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 4, false);
        feed_block(&mut f, &mut pc, 4, false);
        assert!(f.pop_segment().is_none());
        feed_block(&mut f, &mut pc, 4, false);
        let seg = f.pop_segment().expect("3rd branch finalizes");
        assert_eq!(seg.len(), 12);
        assert_eq!(seg.end_reason(), SegEndReason::MaxBranches);
        assert_eq!(seg.dynamic_branch_count(), 3);
    }

    #[test]
    fn atomic_policy_never_splits_blocks() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 13, false);
        feed_block(&mut f, &mut pc, 9, false); // doesn't fit in 3 slots
        let seg = f.pop_segment().expect("atomic finalize");
        assert_eq!(seg.len(), 13);
        assert_eq!(seg.end_reason(), SegEndReason::AtomicBlock);
        assert_eq!(f.stats().splits_refused, 1);
    }

    #[test]
    fn unregulated_packing_fills_to_sixteen() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Unregulated, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 13, false);
        feed_block(&mut f, &mut pc, 9, false);
        let seg = f.pop_segment().expect("packed finalize");
        assert_eq!(seg.len(), 16, "packing fills the line");
        assert_eq!(seg.end_reason(), SegEndReason::MaxSize);
        assert_eq!(f.stats().blocks_split, 1);
        // The tail (6 insts incl. the branch) starts the next segment.
        feed_ret(&mut f, &mut pc);
        let next = f.pop_segment().unwrap();
        assert_eq!(next.len(), 7);
    }

    #[test]
    fn chunked_packing_splits_at_multiples() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Chunk(4), None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 10, false); // 6 slots left
        feed_block(&mut f, &mut pc, 9, false); // take (6/4)*4 = 4
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 14);
        assert_eq!(f.stats().blocks_split, 1);
    }

    /// A *performed* split that leaves the line non-full reports
    /// `Packed`, not `AtomicBlock` — the latter is reserved for refused
    /// splits, so the two stay distinct in the termination histograms.
    #[test]
    fn performed_nonfull_split_finalizes_as_packed() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Chunk(4), None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 10, false); // 6 slots left
        feed_block(&mut f, &mut pc, 9, false); // take 4: line closes at 14
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 14, "split performed at chunk granularity");
        assert_eq!(seg.end_reason(), SegEndReason::Packed);
        assert_eq!(f.stats().blocks_split, 1);
        assert_eq!(f.stats().splits_refused, 0);
    }

    #[test]
    fn chunked_packing_refuses_tiny_splits() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Chunk(4), None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 14, false); // 2 slots < n
        feed_block(&mut f, &mut pc, 9, false);
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 14, "no split when space < n");
        assert_eq!(
            seg.end_reason(),
            SegEndReason::AtomicBlock,
            "a refused split keeps the atomic-block reason"
        );
        assert_eq!(f.stats().splits_refused, 1);
    }

    #[test]
    fn cost_regulation_packs_only_when_worthwhile() {
        // Pending of 13: unused (3) < 13/2 — refuse.
        let mut f = Collector::new(FillUnit::new(PackingPolicy::CostRegulated, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 13, false);
        feed_block(&mut f, &mut pc, 9, false);
        assert_eq!(f.pop_segment().unwrap().len(), 13);
        // Pending of 8: unused (8) >= 8/2 — pack.
        let mut f = Collector::new(FillUnit::new(PackingPolicy::CostRegulated, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 8, false);
        feed_block(&mut f, &mut pc, 12, false);
        assert_eq!(f.pop_segment().unwrap().len(), 16);
    }

    #[test]
    fn cost_regulation_packs_tight_loops() {
        // A pending segment with a short backward branch packs even when
        // the unused-space test fails.
        let mut f = Collector::new(FillUnit::new(PackingPolicy::CostRegulated, None));
        // Build a 12-inst pending block ending with a backward branch.
        for i in 0..12u32 {
            let is_last = i == 11;
            let instr = if is_last {
                Instr::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(0),
                }
            } else {
                Instr::Nop
            };
            f.retire(&ExecRecord {
                pc: Addr::new(i),
                instr,
                next_pc: Addr::new(if is_last { 0 } else { i + 1 }),
                taken: is_last,
                mem_addr: None,
            });
        }
        // 4 slots left; next block of 12 : unused (4) < 12/2 = 6, but the
        // backward branch (disp 11) triggers packing.
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 12, false);
        assert_eq!(f.pop_segment().unwrap().len(), 16);
        assert_eq!(f.stats().blocks_split, 1);
    }

    /// The tight-loop trigger's bound is inclusive: a backward branch 32
    /// instructions from its target packs, one 33 away does not.
    #[test]
    fn cost_regulation_tight_loop_bound_is_32() {
        for (disp, packed) in [(32, 16), (33, 12)] {
            let mut f = Collector::new(FillUnit::new(PackingPolicy::CostRegulated, None));
            let mut pc = 100;
            for i in 0..12u32 {
                let branch = Instr::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(pc - disp),
                };
                f.retire(&ExecRecord {
                    pc: Addr::new(pc),
                    instr: if i == 11 { branch } else { Instr::Nop },
                    next_pc: Addr::new(pc + 1),
                    taken: false,
                    mem_addr: None,
                });
                pc += 1;
            }
            // 4 slots left for a 12-instruction block: only the tight
            // loop can justify the split.
            feed_block(&mut f, &mut pc, 12, false);
            assert_eq!(
                f.pop_segment().unwrap().len(),
                packed,
                "displacement {disp}"
            );
        }
    }

    #[test]
    fn returns_finalize_segments() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 3, false);
        feed_ret(&mut f, &mut pc);
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.len(), 4);
        assert_eq!(seg.end_reason(), SegEndReason::RetIndTrap);
        assert!(seg.ends_indirect());
    }

    /// Retires one iteration of a 2-instruction loop: `nop @0; br @1
    /// taken -> 0` — a contiguous retire stream when repeated.
    fn feed_loop_iteration(fill: &mut Collector) {
        fill.retire(&ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Nop,
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: None,
        });
        fill.retire(&ExecRecord {
            pc: Addr::new(1),
            instr: Instr::Branch {
                cond: Cond::Ne,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(0),
            },
            next_pc: Addr::new(0),
            taken: true,
            mem_addr: None,
        });
    }

    #[test]
    fn promotion_embeds_static_branches_and_lifts_branch_limit() {
        let bias = BiasTable::new(BiasConfig {
            entries: 64,
            threshold: 4,
            counter_bits: 8,
            tagged: true,
        });
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, Some(bias)));
        // Warm the bias table on the loop's back-edge branch.
        for _ in 0..8 {
            feed_loop_iteration(&mut f);
        }
        while f.pop_segment().is_some() {}
        // The branch is now promoted: iterations merge into one
        // execution atomic unit — the loop unrolls into the segment.
        for _ in 0..8 {
            feed_loop_iteration(&mut f);
        }
        let seg = f
            .pop_segment()
            .expect("promoted loop packs into one segment");
        assert_eq!(seg.len(), 16);
        assert_eq!(seg.dynamic_branch_count(), 0);
        assert_eq!(seg.promoted_count(), 8);
        assert_eq!(seg.end_reason(), SegEndReason::MaxSize);
        // The embedded path alternates 0, 1, 0, 1, ...
        assert_eq!(seg.insts()[1].embedded_next(), Addr::new(0));
    }

    #[test]
    fn blocks_over_sixteen_are_force_split() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 20, false);
        let seg = f.pop_segment().expect("forced split at 16");
        assert_eq!(seg.len(), 16);
        assert_eq!(seg.end_reason(), SegEndReason::MaxSize);
    }

    /// `finalized` holds what the latest retire finalized and nothing
    /// else: empty after a retire that closed no segment, and both
    /// segments, in order, when one retire closes two.
    #[test]
    fn finalized_lists_the_latest_retires_segments() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 12, false);
        assert_eq!(f.unit.finalized().count(), 0);
        assert_eq!(f.unit.pending_len(), 12);
        let mut f = f.unit;
        // A 6-instruction block ending in a return does not fit beside
        // the 12 pending: the pending segment closes as an atomic block,
        // then the block closes on its return — two segments, one retire.
        for i in 0..6 {
            let last = i == 5;
            f.retire(&ExecRecord {
                pc: Addr::new(pc),
                instr: if last { Instr::Ret } else { Instr::Nop },
                next_pc: Addr::new(pc + 1),
                taken: false,
                mem_addr: None,
            });
            pc += 1;
            if !last {
                // The open block grows after the pending instructions.
                assert_eq!(f.finalized().count(), 0);
                assert_eq!(f.pending_len(), 13 + i);
            }
        }
        let segs: Vec<_> = f.finalized().map(|(i, r)| (i.len(), i[0].pc, r)).collect();
        assert_eq!(
            segs,
            [
                (12, Addr::new(0), SegEndReason::AtomicBlock),
                (6, Addr::new(12), SegEndReason::RetIndTrap)
            ]
        );
        assert_eq!(f.pending_len(), 0);
        // The next retire starts over at the front of the buffer.
        f.retire(&ExecRecord {
            pc: Addr::new(pc),
            instr: Instr::Nop,
            next_pc: Addr::new(pc + 1),
            taken: false,
            mem_addr: None,
        });
        assert_eq!(f.finalized().count(), 0);
        assert_eq!(f.pending_len(), 1);
    }

    #[test]
    fn stats_track_averages() {
        let mut f = Collector::new(FillUnit::new(PackingPolicy::Atomic, None));
        let mut pc = 0;
        feed_block(&mut f, &mut pc, 8, false);
        feed_block(&mut f, &mut pc, 8, false);
        feed_ret(&mut f, &mut pc);
        assert!(f.stats().segments >= 1);
        assert!(f.stats().avg_segment_len() > 0.0);
    }
}

#[cfg(test)]
mod static_promotion_tests {
    use super::tests::Collector;
    use super::*;
    use crate::promote::StaticPromotionTable;
    use tc_isa::{Addr, Cond, Instr, Reg};

    #[test]
    fn static_table_promotes_without_warmup() {
        let mut table = StaticPromotionTable::new();
        table.insert(Addr::new(1), true);
        let mut f = Collector::new(FillUnit::new_static(PackingPolicy::Atomic, table));
        assert!(f.unit.promotes());
        assert!(f.unit.bias_table().is_none());
        // First-ever retirement of the loop: already promoted.
        for _ in 0..8 {
            f.retire(&ExecRecord {
                pc: Addr::new(0),
                instr: Instr::Nop,
                next_pc: Addr::new(1),
                taken: false,
                mem_addr: None,
            });
            f.retire(&ExecRecord {
                pc: Addr::new(1),
                instr: Instr::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::T0,
                    rs2: Reg::T1,
                    target: Addr::new(0),
                },
                next_pc: Addr::new(0),
                taken: true,
                mem_addr: None,
            });
        }
        let seg = f.pop_segment().expect("packed without any warm-up");
        assert_eq!(seg.len(), 16);
        assert_eq!(seg.promoted_count(), 8);
    }

    #[test]
    fn contradicting_instance_is_not_promoted() {
        let mut table = StaticPromotionTable::new();
        table.insert(Addr::new(0), true);
        let mut f = Collector::new(FillUnit::new_static(PackingPolicy::Atomic, table));
        // The instance goes the other way: built as a normal branch.
        f.retire(&ExecRecord {
            pc: Addr::new(0),
            instr: Instr::Branch {
                cond: Cond::Ne,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: Addr::new(5),
            },
            next_pc: Addr::new(1),
            taken: false,
            mem_addr: None,
        });
        f.retire(&ExecRecord {
            pc: Addr::new(1),
            instr: Instr::Ret,
            next_pc: Addr::new(9),
            taken: false,
            mem_addr: None,
        });
        let seg = f.pop_segment().unwrap();
        assert_eq!(seg.promoted_count(), 0);
        assert_eq!(seg.dynamic_branch_count(), 1);
    }
}
