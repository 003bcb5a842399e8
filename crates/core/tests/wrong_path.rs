//! Wrong-path equivalence: [`FrontEnd::fetch_next`] — the fetch the
//! simulator's wrong-path walk performs — must have exactly the effects
//! of [`FrontEnd::fetch`], which also delivers the instruction list.
//!
//! Each case warms a front end by retiring a real workload stream, then
//! walks from many fetch addresses (segment starts, mid-segment and
//! random addresses, and addresses past the end of the program) on two
//! clones of the front end and memory hierarchy: one with `fetch`, one
//! with `fetch_next`. After every step the two must agree on the next
//! PC, the i-cache latency, the global history, the return stack, the
//! trace-cache, quarantine, sanitizer and memory statistics, and the
//! event sequence a recording tracer saw.

use std::iter;

use tc_cache::{HierarchyConfig, MemoryHierarchy};
use tc_core::{FrontEnd, FrontEndConfig, NextPc, PackingPolicy, TraceCacheConfig};
use tc_isa::{Addr, Program};
use tc_trace::RingTracer;
use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
use tc_workloads::{Benchmark, RvBench, Workload};

/// Instructions retired to warm each front end.
const WARM_INSTS: usize = 60_000;
/// Fetches per walk (the simulator's wrong-path walks are short too).
const WALK: usize = 6;
/// Event capacity of a walk's recording tracer: far more than a walk
/// emits, so nothing is dropped.
const EVENTS: usize = 1 << 14;

/// Warms a front end and memory hierarchy on `workload`: every retired
/// instruction trains the predictors and feeds the fill unit
/// ([`FrontEnd::warm`]), and every eighth one is also fetched, so the
/// trace cache's and i-cache's recency and the speculative history and
/// return stack are in a lived-in state.
fn warmed(
    config: FrontEndConfig,
    hierarchy: HierarchyConfig,
    workload: &Workload,
) -> (FrontEnd<RingTracer>, MemoryHierarchy) {
    let mut fe = FrontEnd::with_tracer(config, RingTracer::new(0));
    let mut mem = MemoryHierarchy::new(hierarchy);
    for (i, rec) in workload.interpreter().take(WARM_INSTS).enumerate() {
        fe.warm(&rec);
        if i % 8 == 0 {
            let _ = fe.fetch(rec.pc, workload.program(), &mut mem);
        }
    }
    (fe, mem)
}

/// The return stack's entries, top first.
fn ras(fe: &FrontEnd<RingTracer>) -> Vec<u64> {
    let mut stack = fe.ras_snapshot();
    iter::from_fn(|| stack.pop()).collect()
}

/// Where a walk goes after a fetch, as the simulator's wrong-path walk
/// steers: the predicted address, if any.
fn predicted(next: NextPc) -> Option<Addr> {
    match next {
        NextPc::Known(a) => Some(a),
        NextPc::Return { predicted } | NextPc::Indirect { predicted, .. } => predicted,
    }
}

/// What a walk exercised: trace-cache hits, quarantined lines and
/// recorded events.
#[derive(Default)]
struct Coverage {
    hits: u64,
    quarantined: u64,
    events: usize,
}

/// Walks from `pc` with `fetch` on one clone and `fetch_next` on the
/// other, asserting identical observable state after every step.
fn check_walk(
    fe: &FrontEnd<RingTracer>,
    mem: &MemoryHierarchy,
    program: &Program,
    start: Addr,
    case: &str,
    seen: &mut Coverage,
) {
    let (mut full, mut full_mem) = (fe.clone(), mem.clone());
    let (mut bare, mut bare_mem) = (fe.clone(), mem.clone());
    *full.tracer_mut() = RingTracer::new(EVENTS);
    *bare.tracer_mut() = RingTracer::new(EVENTS);
    let mut at = Some(start);
    for step in 0..WALK {
        let Some(pc) = at else { break };
        let bundle = full.fetch(pc, program, &mut full_mem);
        let next = bare.fetch_next(pc, program, &mut bare_mem);
        let here = format!(
            "{case}: walk from {} step {step} at {}",
            start.raw(),
            pc.raw()
        );
        assert_eq!(bundle.next_pc, next.next_pc, "{here}: next pc");
        assert_eq!(
            bundle.icache_latency, next.icache_latency,
            "{here}: i-cache latency"
        );
        assert_eq!(
            full.history_snapshot(),
            bare.history_snapshot(),
            "{here}: history"
        );
        assert_eq!(ras(&full), ras(&bare), "{here}: return stack");
        assert_eq!(
            full.trace_cache().map(|tc| *tc.stats()),
            bare.trace_cache().map(|tc| *tc.stats()),
            "{here}: trace-cache stats"
        );
        assert_eq!(
            full.quarantine_stats(),
            bare.quarantine_stats(),
            "{here}: quarantine"
        );
        assert_eq!(
            full.sanitizer().stats(),
            bare.sanitizer().stats(),
            "{here}: sanitizer"
        );
        assert_eq!(
            (
                *full_mem.icache_stats(),
                *full_mem.dcache_stats(),
                *full_mem.l2_stats()
            ),
            (
                *bare_mem.icache_stats(),
                *bare_mem.dcache_stats(),
                *bare_mem.l2_stats()
            ),
            "{here}: memory stats"
        );
        assert_eq!(
            full.tracer().records(),
            bare.tracer().records(),
            "{here}: events"
        );
        at = predicted(next.next_pc);
    }
    let hits = |f: &FrontEnd<RingTracer>| f.trace_cache().map_or(0, |tc| tc.stats().hits);
    seen.hits += hits(&full) - hits(fe);
    seen.quarantined += full.quarantine_stats().quarantined - fe.quarantine_stats().quarantined;
    seen.events += full.tracer().records().len();
}

/// Warms `config` on `workload` and checks walks from its segment starts
/// and other correct-path PCs, the PCs just after them (mid-segment),
/// random in-program PCs and PCs past the end of the program.
/// `corrupt` lines are corrupted first (fault injection), so hits on
/// them exercise quarantine and recovery.
fn check(config: FrontEndConfig, hierarchy: HierarchyConfig, workload: &Workload, corrupt: u64) {
    let case = format!("{} on {}", config.label(), workload.name());
    let (mut fe, mem) = warmed(config, hierarchy, workload);
    for k in 0..corrupt {
        let _ = fe.fault_corrupt_segment(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k + 1));
    }
    let program = workload.program();
    let len = program.len() as u32;
    let mut r = Xoshiro256PlusPlus::seed_from_u64(u64::from(len));
    let mut pcs: Vec<Addr> = workload
        .interpreter()
        .skip(WARM_INSTS - 2_000)
        .step_by(37)
        .take(40)
        .flat_map(|rec| [rec.pc, rec.pc.next()])
        .collect();
    pcs.extend((0..40).map(|_| Addr::new(r.gen_range(0..len))));
    pcs.extend([len, len + 1, len + 17, u32::MAX >> 3].map(Addr::new));
    let mut seen = Coverage::default();
    for pc in pcs {
        check_walk(&fe, &mem, program, pc, &case, &mut seen);
    }
    assert!(seen.events > 0, "{case}: the walks emitted no events");
    if fe.trace_cache().is_some() {
        assert!(seen.hits > 0, "{case}: the walks never hit the trace cache");
    }
    if corrupt > 0 {
        assert!(
            seen.quarantined > 0,
            "{case}: no corrupted line was fetched"
        );
    }
}

#[test]
fn headline_machine_on_synthetic_programs() {
    for bench in [Benchmark::Gcc, Benchmark::Go, Benchmark::Perl] {
        check(
            FrontEndConfig::promotion_packing(64, PackingPolicy::CostRegulated),
            HierarchyConfig::paper_trace_cache(),
            &bench.build(),
            0,
        );
    }
}

#[test]
fn icache_machine_on_rv_programs() {
    for bench in [RvBench::Crc, RvBench::Qsort] {
        check(
            FrontEndConfig::icache_only(),
            HierarchyConfig::paper_icache_only(),
            &bench.build(),
            0,
        );
    }
}

#[test]
fn hybrid_predictor_with_path_associativity_and_finite_ras() {
    let mut config = FrontEndConfig::promotion_hybrid(64);
    config.trace_cache = config.trace_cache.map(TraceCacheConfig::with_path_assoc);
    config.ras_depth = Some(4);
    let workload = Benchmark::Li.build();
    check(config, HierarchyConfig::paper_trace_cache(), &workload, 0);
    let mut config = FrontEndConfig::baseline();
    config.trace_cache = config.trace_cache.map(TraceCacheConfig::with_path_assoc);
    config.partial_matching = false;
    config.inactive_issue = false;
    check(config, HierarchyConfig::paper_trace_cache(), &workload, 0);
}

#[test]
fn quarantine_of_corrupted_lines() {
    let mut config = FrontEndConfig::promotion_packing(64, PackingPolicy::CostRegulated);
    config.sanitize = true;
    check(
        config,
        HierarchyConfig::paper_trace_cache(),
        &Benchmark::Compress.build(),
        200,
    );
}
