//! Allocation gate for the fetch/fill hot path.
//!
//! A counting global allocator wraps `System` and the single test in
//! this binary (one test, so no concurrent tests pollute the counter)
//! asserts that a steady-state trace-cache-hit fetch cycle — fetch,
//! predictor training, misprediction repair (history + RAS restore),
//! and retirement through the fill unit — performs **zero** heap
//! allocations. This is the contract behind the hot-path restructuring:
//! bundles and predictions live in `InlineVec`s, segments are fetched
//! by borrowed slice, and recovery copies into existing buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tc_cache::{HierarchyConfig, MemoryHierarchy};
use tc_core::{FetchOrigin, FrontEnd, FrontEndConfig};
use tc_isa::{Addr, Cond, ExecRecord, Program, ProgramBuilder, Reg};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A tight loop: three straight-line instructions and a taken backward
/// branch, so every retired iteration re-feeds the same trace and every
/// fetch at the loop head hits the trace cache.
fn loop_program() -> Program {
    let mut b = ProgramBuilder::new();
    let head = b.new_label("head");
    b.bind(head).unwrap();
    b.nop().nop().nop();
    b.branch(Cond::Eq, Reg::T0, Reg::T0, head);
    b.halt();
    b.build().unwrap()
}

/// One steady-state cycle: fetch from the trace cache, train the
/// predictor on the fetch's non-promoted branch outcomes, repair as
/// after a misprediction (history + RAS restore from snapshots), and
/// retire the loop body through the fill unit.
fn steady_cycle(
    fe: &mut FrontEnd,
    program: &Program,
    mem: &mut MemoryHierarchy,
    history_snapshot: u64,
    ras_snapshot: &tc_predict::ReturnStack,
) -> FetchOrigin {
    let bundle = fe.fetch(Addr::new(0), program, mem);
    let outcomes: [bool; 1] = [true];
    fe.train(&bundle.pred, &outcomes[..bundle.predictions_used.min(1)]);
    fe.restore_history(history_snapshot);
    fe.restore_ras(ras_snapshot);
    for pc in 0..3u32 {
        fe.retire(&ExecRecord {
            pc: Addr::new(pc),
            instr: program.fetch(Addr::new(pc)).unwrap(),
            next_pc: Addr::new(pc + 1),
            taken: false,
            mem_addr: None,
        });
    }
    fe.retire(&ExecRecord {
        pc: Addr::new(3),
        instr: program.fetch(Addr::new(3)).unwrap(),
        next_pc: Addr::new(0),
        taken: true,
        mem_addr: None,
    });
    bundle.source
}

#[test]
fn steady_state_tc_hit_fetch_cycle_is_allocation_free() {
    let program = loop_program();
    // Measure the release hot path: the sanitizer (a debug/test tool
    // with its own bookkeeping) stays off.
    let mut config = FrontEndConfig::baseline();
    config.sanitize = false;
    let mut fe = FrontEnd::new(config);
    let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
    let history_snapshot = fe.history_snapshot();
    let ras_snapshot = fe.ras_snapshot();

    // Warm up: fill the trace cache, reach predictor/cache steady state,
    // and let every amortized buffer grow to its final capacity.
    for _ in 0..64 {
        steady_cycle(&mut fe, &program, &mut mem, history_snapshot, &ras_snapshot);
    }
    assert_eq!(
        steady_cycle(&mut fe, &program, &mut mem, history_snapshot, &ras_snapshot,),
        FetchOrigin::TraceCache,
        "warm-up must reach trace-cache hits before measuring"
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..256 {
        let source = steady_cycle(&mut fe, &program, &mut mem, history_snapshot, &ras_snapshot);
        assert_eq!(source, FetchOrigin::TraceCache, "cycle must stay a TC hit");
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocations, 0,
        "steady-state TC-hit fetch cycles must not touch the heap \
         ({allocations} allocation(s) in 256 cycles)"
    );
}
