//! Allocation gate for the whole-processor run loop, including the
//! oracle refill buffer and the sampling phases.
//!
//! A counting global allocator wraps `System` and the single test in
//! this binary (one test, so no concurrent tests pollute the counter)
//! asserts that heap allocations do **not** scale with instruction
//! count: the record queue lives on the `Processor` and is refilled in
//! place, records stay in it from the oracle to retirement, and the
//! sampled warm-up path touches no per-instruction heap. Quadrupling the
//! instruction budget must leave the allocation count within a small
//! constant of the shorter run, in full-timing and sampled mode alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tc_sim::{Processor, SimConfig};
use tc_workloads::Benchmark;

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

fn allocations_for(config: &SimConfig, insts: u64) -> u64 {
    let workload = Benchmark::Compress.build();
    let mut processor = Processor::new(config.clone().with_max_insts(insts));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = processor.run(&workload);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(report.instructions > 0);
    after - before
}

#[test]
fn run_loop_allocations_do_not_scale_with_instruction_count() {
    // Measure the release hot path: the sanitizer (a debug/test tool
    // with its own bookkeeping) stays off.
    let mut config = SimConfig::baseline();
    config.front_end.sanitize = false;

    // Full timing: the 40k run issues 4x the instructions of the 10k
    // run through fetch, refill, the engine, and retirement. The only
    // extra allocations allowed are amortized buffer growth (record
    // queue capacity, trace-cache fill paths reaching their final
    // shape) — a small constant, not a per-instruction cost.
    let short = allocations_for(&config, 10_000);
    let long = allocations_for(&config, 40_000);
    let growth = long.saturating_sub(short);
    assert!(
        growth <= 64,
        "full-timing allocations scale with instructions: \
         {short} at 10k insts vs {long} at 40k insts (+{growth})"
    );

    // Sampled mode adds the fast-forward interpreter, the functional
    // warm-up loop, and inter-window drains; all of them must be
    // equally allocation-free per instruction.
    let sampled = config.with_sampling(1_000, 1_000, 4_000);
    let short = allocations_for(&sampled, 10_000);
    let long = allocations_for(&sampled, 40_000);
    let growth = long.saturating_sub(short);
    assert!(
        growth <= 64,
        "sampled-mode allocations scale with instructions: \
         {short} at 10k insts vs {long} at 40k insts (+{growth})"
    );
}
