//! Differential test of the fill unit: the in-place fill buffer against
//! a reference copy of the queue-based fill unit it replaced (a pending
//! segment, a separate current block, and a queue of finalized
//! segments popped one at a time).
//!
//! Both are driven by the same seeded retire streams from the workload
//! suite, under every packing policy, with no promotion, dynamic
//! (bias-table) promotion and static (profiled) promotion, and with
//! stalled-fill faults (`fault_drop_pending`) at seeded points. After
//! every retire the finalized segments, the fill statistics, the
//! recorded violations and the trace events must agree. At front-end
//! level the reference replays the old `FrontEnd::retire` (sanitizer
//! check, then a trace-cache fill, per popped segment) and the recorded
//! event streams, trace-cache and sanitizer state must agree as well.
//! A mismatch names the case's seed and the step.

use std::collections::VecDeque;

use tc_core::{
    CheckSite, FillStats, FillUnit, FrontEnd, FrontEndConfig, PackingPolicy, PromotionConfig,
    Sanitizer, SegEndReason, SegmentInst, StaticPromotionTable, TraceCache, TraceCacheConfig,
    TraceSegment, ViolationKind,
};
use tc_isa::{ExecRecord, Instr};
use tc_predict::{BiasConfig, BiasTable};
use tc_trace::{FaultLocus, RingTracer, TraceEvent, Tracer};
use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
use tc_workloads::{Benchmark, RvBench, Workload};

/// The queue-based fill unit, kept as it was before segments were built
/// in place. Only the stream it observes changed: the bias table's
/// `update` now also returns the post-update decision, which this copy
/// ignores in favour of the second lookup it always made.
mod reference {
    use super::*;
    use tc_core::InlineVec;
    use tc_isa::{Addr, ControlKind};
    use tc_predict::{BiasDecision, BiasUpdate};
    use tc_trace::{DemotionCause, PackVerdict};

    const MAX_SEGMENT_INSTS: usize = tc_core::MAX_SEGMENT_INSTS;
    const MAX_SEGMENT_BRANCHES: usize = tc_core::MAX_SEGMENT_BRANCHES;

    type InstBuf = InlineVec<SegmentInst, MAX_SEGMENT_INSTS>;

    #[derive(Debug, Clone)]
    enum Promoter {
        None,
        Dynamic(BiasTable),
        Static(StaticPromotionTable),
    }

    #[derive(Debug, Clone)]
    pub struct FillUnit {
        policy: PackingPolicy,
        promoter: Promoter,
        pending: InstBuf,
        current_block: InstBuf,
        finalized: VecDeque<TraceSegment>,
        stats: FillStats,
        violations: Vec<ViolationKind>,
    }

    impl FillUnit {
        pub fn new(policy: PackingPolicy, bias: Option<BiasTable>) -> FillUnit {
            FillUnit {
                policy,
                promoter: match bias {
                    Some(b) => Promoter::Dynamic(b),
                    None => Promoter::None,
                },
                pending: InstBuf::new(),
                current_block: InstBuf::new(),
                finalized: VecDeque::new(),
                stats: FillStats::default(),
                violations: Vec::new(),
            }
        }

        pub fn new_static(policy: PackingPolicy, table: StaticPromotionTable) -> FillUnit {
            FillUnit {
                promoter: Promoter::Static(table),
                ..FillUnit::new(policy, None)
            }
        }

        pub fn bias_table(&self) -> Option<&BiasTable> {
            match &self.promoter {
                Promoter::Dynamic(b) => Some(b),
                _ => None,
            }
        }

        pub fn fault_drop_pending(&mut self) -> bool {
            let had = !self.pending.is_empty() || !self.current_block.is_empty();
            self.pending.clear();
            self.current_block.clear();
            had
        }

        pub fn stats(&self) -> &FillStats {
            &self.stats
        }

        pub fn pop_segment(&mut self) -> Option<TraceSegment> {
            self.finalized.pop_front()
        }

        pub fn take_violations(&mut self) -> Vec<ViolationKind> {
            std::mem::take(&mut self.violations)
        }

        pub fn pending_len(&self) -> usize {
            self.pending.len() + self.current_block.len()
        }

        pub fn retire_traced<T: Tracer>(&mut self, rec: &ExecRecord, tracer: &mut T) {
            let kind = rec.control_kind();
            let mut promoted = None;
            if kind == ControlKind::CondBranch {
                let decision = match &mut self.promoter {
                    Promoter::None => None,
                    Promoter::Dynamic(bias) => {
                        let (transition, _) = bias.update(rec.pc.byte_addr(), rec.taken);
                        if T::ENABLED {
                            emit_bias_transition(tracer, rec.pc, transition);
                        }
                        match bias.decision(rec.pc.byte_addr()) {
                            BiasDecision::Promote(dir) => Some(dir),
                            BiasDecision::Normal => None,
                        }
                    }
                    Promoter::Static(table) => table.decision(rec.pc),
                };
                if decision == Some(rec.taken) {
                    promoted = decision;
                }
            }

            self.current_block.push(SegmentInst {
                pc: rec.pc,
                instr: rec.instr,
                taken: rec.taken,
                promoted,
            });

            let ends_segment = kind.ends_segment();
            let ends_block =
                (kind == ControlKind::CondBranch && promoted.is_none()) || ends_segment;
            let forced = self.current_block.len() == MAX_SEGMENT_INSTS;

            if ends_block || forced {
                let block = std::mem::take(&mut self.current_block);
                self.merge_block(&block, ends_segment, tracer);
            }
        }

        fn pending_branches(&self) -> usize {
            self.pending.iter().filter(|i| i.needs_prediction()).count()
        }

        fn finalize<T: Tracer>(&mut self, reason: SegEndReason, tracer: &mut T) {
            if self.pending.is_empty() {
                return;
            }
            let insts = self.pending.as_slice();
            self.stats.segments += 1;
            self.stats.segment_insts += insts.len() as u64;
            let promoted = insts.iter().filter(|i| i.promoted.is_some()).count();
            let dynamic = insts.iter().filter(|i| i.needs_prediction()).count();
            self.stats.promoted_embedded += promoted as u64;
            self.stats.dynamic_embedded += dynamic as u64;
            if T::ENABLED {
                tracer.emit(TraceEvent::FillFinalize {
                    start: insts[0].pc,
                    len: insts.len() as u8,
                    dynamic_branches: dynamic as u8,
                    promoted: promoted as u8,
                    reason: reason.into(),
                });
            }
            let segment = TraceSegment::new(insts, reason);
            self.pending.clear();
            self.finalized.push_back(segment);
        }

        fn append_fitting<T: Tracer>(
            &mut self,
            mut block: &[SegmentInst],
            ends_segment: bool,
            tracer: &mut T,
        ) {
            if self.pending.len() + block.len() > MAX_SEGMENT_INSTS {
                self.violations.push(ViolationKind::PendingOverflow {
                    pending: self.pending.len(),
                    block: block.len(),
                });
                block = &block[..MAX_SEGMENT_INSTS - self.pending.len()];
            }
            self.pending.extend_from_slice(block);
            if ends_segment {
                self.finalize(SegEndReason::RetIndTrap, tracer);
            } else if self.pending.len() == MAX_SEGMENT_INSTS {
                self.finalize(SegEndReason::MaxSize, tracer);
            } else if self.pending_branches() == MAX_SEGMENT_BRANCHES {
                self.finalize(SegEndReason::MaxBranches, tracer);
            }
        }

        fn merge_block<T: Tracer>(
            &mut self,
            block: &[SegmentInst],
            ends_segment: bool,
            tracer: &mut T,
        ) {
            let space = MAX_SEGMENT_INSTS - self.pending.len();
            if block.len() <= space {
                self.append_fitting(block, ends_segment, tracer);
                return;
            }
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
                    if 2 * space >= self.pending.len() {
                        (space, PackVerdict::SpareCapacity)
                    } else if has_short_backward_branch(&self.pending, 32) {
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
                self.stats.splits_refused += 1;
                if T::ENABLED {
                    tracer.emit(TraceEvent::PackRefused {
                        pending: self.pending.len() as u8,
                        block: block.len() as u8,
                        verdict,
                    });
                }
                self.finalize(SegEndReason::AtomicBlock, tracer);
                self.append_fitting(block, ends_segment, tracer);
                return;
            }
            self.stats.blocks_split += 1;
            if T::ENABLED {
                tracer.emit(TraceEvent::PackPerformed {
                    head: take as u8,
                    tail: (block.len() - take) as u8,
                    verdict,
                });
            }
            let (head, tail) = block.split_at(take);
            self.pending.extend_from_slice(head);
            let reason = if self.pending.len() == MAX_SEGMENT_INSTS {
                SegEndReason::MaxSize
            } else {
                SegEndReason::Packed
            };
            self.finalize(reason, tracer);
            self.append_fitting(tail, ends_segment, tracer);
        }
    }

    fn has_short_backward_branch(insts: &[SegmentInst], max_disp: i64) -> bool {
        insts.iter().any(|si| {
            if let Instr::Branch { target, .. } = si.instr {
                let disp = si.pc.distance_from(target);
                disp > 0 && disp <= max_disp
            } else {
                false
            }
        })
    }

    fn emit_bias_transition<T: Tracer>(tracer: &mut T, pc: Addr, transition: BiasUpdate) {
        match transition {
            BiasUpdate::None => {}
            BiasUpdate::Promoted(dir) => tracer.emit(TraceEvent::Promotion { pc, dir }),
            BiasUpdate::Demoted => tracer.emit(TraceEvent::Demotion {
                pc,
                cause: DemotionCause::ConsecutiveOpposite,
            }),
            BiasUpdate::EvictedPromoted(victim) => {
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
}

/// Every packing policy the fill unit implements.
const POLICIES: [PackingPolicy; 5] = [
    PackingPolicy::Atomic,
    PackingPolicy::Unregulated,
    PackingPolicy::Chunk(2),
    PackingPolicy::Chunk(4),
    PackingPolicy::CostRegulated,
];

/// How a case promotes branches.
#[derive(Debug, Clone, Copy)]
enum Promotion {
    None,
    Dynamic,
    Static,
}

/// Instructions retired per case.
const STREAM: usize = 6_000;

/// A few workloads from both families, built once.
fn workloads() -> Vec<Workload> {
    vec![
        Benchmark::Gcc.build_scaled(1),
        Benchmark::Go.build_scaled(1),
        Benchmark::Perl.build_scaled(1),
        Benchmark::Li.build_scaled(1),
        RvBench::Qsort.build(),
        RvBench::Dispatch.build(),
    ]
}

/// One seeded case: a window of a workload's retire stream, a promotion
/// source, and the retire steps after which a stalled-fill fault hits.
struct Case {
    seed: u64,
    stream: Vec<ExecRecord>,
    bias: Option<BiasConfig>,
    table: Option<StaticPromotionTable>,
    drops: Vec<bool>,
}

impl Case {
    fn new(workloads: &[Workload], seed: u64, promotion: Promotion) -> Case {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(seed);
        let workload = &workloads[r.gen_range(0..workloads.len())];
        let skip = r.gen_range(0usize..20_000);
        let stream: Vec<ExecRecord> = workload.interpreter().skip(skip).take(STREAM).collect();
        // A small table with a low threshold promotes, demotes and
        // evicts promoted entries often.
        let bias = matches!(promotion, Promotion::Dynamic).then(|| BiasConfig {
            entries: [16, 64, 256][r.gen_range(0usize..3)],
            threshold: r.gen_range(2u32..9),
            counter_bits: 4,
            tagged: r.gen_bool(0.5),
        });
        let table = matches!(promotion, Promotion::Static).then(|| {
            let min_bias = [0.6, 0.8, 0.95][r.gen_range(0usize..3)];
            StaticPromotionTable::profile(stream[..STREAM / 2].iter().copied(), 4, min_bias)
        });
        let rate = [0.0, 0.002, 0.02][r.gen_range(0usize..3)];
        let drops = (0..stream.len()).map(|_| r.gen_bool(rate)).collect();
        Case {
            seed,
            stream,
            bias,
            table,
            drops,
        }
    }

    fn fill_units(&self, policy: PackingPolicy) -> (FillUnit, reference::FillUnit) {
        match (&self.bias, &self.table) {
            (_, Some(table)) => (
                FillUnit::new_static(policy, table.clone()),
                reference::FillUnit::new_static(policy, table.clone()),
            ),
            (bias, None) => (
                FillUnit::new(policy, bias.map(BiasTable::new)),
                reference::FillUnit::new(policy, bias.map(BiasTable::new)),
            ),
        }
    }
}

fn segments(unit: &FillUnit) -> Vec<(Vec<SegmentInst>, SegEndReason)> {
    unit.finalized()
        .map(|(insts, reason)| (insts.to_vec(), reason))
        .collect()
}

fn reference_segments(unit: &mut reference::FillUnit) -> Vec<(Vec<SegmentInst>, SegEndReason)> {
    std::iter::from_fn(|| unit.pop_segment())
        .map(|seg| (seg.insts().to_vec(), seg.end_reason()))
        .collect()
}

/// What a case exercised, so the test can show its streams reach
/// promotion, packing and the stalled-fill fault.
#[derive(Debug, Default)]
struct Coverage {
    segments: u64,
    promoted: u64,
    split: u64,
    refused: u64,
    drops: u64,
}

/// The fill units alone: finalized segments, statistics, violations,
/// pending length and the fill-side trace events after every retire.
fn check_fill_unit(case: &Case, policy: PackingPolicy, cov: &mut Coverage) {
    let (mut unit, mut reference) = case.fill_units(policy);
    let (mut tracer, mut ref_tracer) = (RingTracer::new(1 << 16), RingTracer::new(1 << 16));
    for (step, rec) in case.stream.iter().enumerate() {
        let at = format!("seed {:#x}, {policy}, step {step}", case.seed);
        unit.retire_traced(rec, &mut tracer);
        reference.retire_traced(rec, &mut ref_tracer);
        assert_eq!(
            segments(&unit),
            reference_segments(&mut reference),
            "{at}: finalized"
        );
        assert_eq!(unit.stats(), reference.stats(), "{at}: fill stats");
        assert_eq!(
            unit.take_violations(),
            reference.take_violations(),
            "{at}: violations"
        );
        if case.drops[step] {
            let landed = unit.fault_drop_pending();
            assert_eq!(
                landed,
                reference.fault_drop_pending(),
                "{at}: fault_drop_pending"
            );
            cov.drops += u64::from(landed);
        }
        assert_eq!(unit.pending_len(), reference.pending_len(), "{at}: pending");
    }
    assert_eq!(
        tracer.records(),
        ref_tracer.records(),
        "seed {:#x}, {policy}: fill events",
        case.seed
    );
    let stats = unit.stats();
    cov.segments += stats.segments;
    cov.promoted += stats.promoted_embedded;
    cov.split += stats.blocks_split;
    cov.refused += stats.splits_refused;
}

/// The old `FrontEnd::retire`, over the reference fill unit: violations,
/// then for each popped segment a sanitizer check and either a
/// quarantine or a trace-cache fill.
struct ReferenceFrontEnd {
    fill: reference::FillUnit,
    tc: TraceCache,
    sanitizer: Sanitizer,
    tracer: RingTracer,
    /// Quarantine counters: detected, quarantined, recovered.
    quarantine: (u64, u64, u64),
}

impl ReferenceFrontEnd {
    fn set_cycle(&mut self, cycle: u64) {
        self.sanitizer.set_now(cycle);
        self.tracer.set_cycle(cycle);
    }

    fn retire(&mut self, rec: &ExecRecord) {
        self.tracer.emit(TraceEvent::Retire { pc: rec.pc });
        self.fill.retire_traced(rec, &mut self.tracer);
        for kind in self.fill.take_violations() {
            self.sanitizer.record(CheckSite::Fill, None, kind);
        }
        while let Some(seg) = self.fill.pop_segment() {
            let errors_before = self.sanitizer.stats().errors;
            self.sanitizer
                .check_fill(seg.insts(), self.fill.bias_table());
            if self.sanitizer.stats().errors > errors_before {
                self.quarantine.0 += 1;
                self.quarantine.1 += 1;
                self.quarantine.2 += 1;
                let pc = seg.start();
                self.tracer.emit(TraceEvent::FaultDetected { pc });
                self.tracer.emit(TraceEvent::FaultQuarantined { pc });
                self.tracer.emit(TraceEvent::FaultRecovered { pc });
                continue;
            }
            let (start, len) = (seg.start(), seg.len());
            let outcome = self.tc.fill(seg.insts(), seg.end_reason());
            self.tracer.emit(TraceEvent::TcFill {
                start,
                len: len as u8,
                evicted: outcome.evicted,
                duplicate: outcome.duplicate,
            });
        }
    }

    fn fault_drop_fill(&mut self) -> bool {
        let landed = self.fill.fault_drop_pending();
        if landed {
            self.tracer.emit(TraceEvent::FaultInjected {
                locus: FaultLocus::FillStall,
                pc: tc_isa::Addr::new(0),
            });
        }
        landed
    }
}

/// The front end against the replayed old retire path: the recorded
/// event stream, trace-cache and sanitizer state after every retire.
/// The trace cache is small so fills evict and replace.
fn check_front_end(case: &Case, policy: PackingPolicy) {
    let tc_config = TraceCacheConfig::with_entries(64);
    let config = FrontEndConfig {
        trace_cache: Some(tc_config),
        packing: policy,
        promotion: case.bias.map(|bias| PromotionConfig {
            bias,
            ..PromotionConfig::paper(64)
        }),
        sanitize: true,
        ..FrontEndConfig::baseline()
    };
    let capacity = 4 * STREAM;
    let mut fe = match &case.table {
        Some(table) => FrontEnd::with_static_promotion_and_tracer(
            config,
            table.clone(),
            RingTracer::new(capacity),
        ),
        None => FrontEnd::with_tracer(config, RingTracer::new(capacity)),
    };
    let mut reference = ReferenceFrontEnd {
        fill: case.fill_units(policy).1,
        tc: TraceCache::new(tc_config),
        sanitizer: Sanitizer::new(true),
        tracer: RingTracer::new(capacity),
        quarantine: (0, 0, 0),
    };
    let mut seen = 0;
    for (step, rec) in case.stream.iter().enumerate() {
        let at = format!("seed {:#x}, {policy}, front end, step {step}", case.seed);
        fe.set_cycle(step as u64);
        reference.set_cycle(step as u64);
        fe.retire(rec);
        reference.retire(rec);
        if case.drops[step] {
            assert_eq!(
                fe.fault_drop_fill(),
                reference.fault_drop_fill(),
                "{at}: fault_drop_fill"
            );
        }
        let (got, want) = (fe.tracer().records(), reference.tracer.records());
        assert_eq!(got.len(), want.len(), "{at}: event count");
        assert_eq!(got[seen..], want[seen..], "{at}: events");
        seen = got.len();
        let tc = fe.trace_cache().expect("configured");
        assert_eq!(tc.stats(), reference.tc.stats(), "{at}: trace-cache stats");
        assert_eq!(
            fe.sanitizer().stats(),
            reference.sanitizer.stats(),
            "{at}: sanitizer"
        );
        let q = fe.quarantine_stats();
        assert_eq!(
            (q.detected, q.quarantined, q.recovered),
            reference.quarantine,
            "{at}: quarantine"
        );
    }
    let fill = fe.fill_unit().expect("configured");
    assert_eq!(
        fill.stats(),
        reference.fill.stats(),
        "seed {:#x}",
        case.seed
    );
    assert_eq!(
        fe.tracer().dropped(),
        0,
        "the event buffer held every event"
    );
    let starts = (0..8192).map(tc_isa::Addr::new);
    for start in starts {
        let got = fe.trace_cache().and_then(|tc| tc.probe(start));
        assert_eq!(
            got,
            reference.tc.probe(start),
            "seed {:#x}: line {start:?}",
            case.seed
        );
    }
}

#[test]
fn in_place_fill_unit_matches_the_queue_based_one() {
    let workloads = workloads();
    let mut cov = Coverage::default();
    for (pi, &policy) in POLICIES.iter().enumerate() {
        for (mi, promotion) in [Promotion::None, Promotion::Dynamic, Promotion::Static]
            .into_iter()
            .enumerate()
        {
            for n in 0..3u64 {
                let seed = 0xF11D_0000 + ((pi as u64) << 8) + ((mi as u64) << 4) + n;
                let case = Case::new(&workloads, seed, promotion);
                check_fill_unit(&case, policy, &mut cov);
            }
        }
    }
    // The streams exercise the fill unit, not just its empty paths.
    assert!(
        cov.segments > 10_000
            && cov.promoted > 1_000
            && cov.split > 1_000
            && cov.refused > 100
            && cov.drops > 20,
        "{cov:?}"
    );
}

#[test]
fn front_end_retire_matches_the_queue_based_fill_path() {
    let workloads = workloads();
    for (pi, &policy) in POLICIES.iter().enumerate() {
        for (mi, promotion) in [Promotion::None, Promotion::Dynamic, Promotion::Static]
            .into_iter()
            .enumerate()
        {
            for n in 0..2u64 {
                let seed = 0xFE0D_0000 + ((pi as u64) << 8) + ((mi as u64) << 4) + n;
                check_front_end(&Case::new(&workloads, seed, promotion), policy);
            }
        }
    }
}
