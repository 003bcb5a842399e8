//! Microbenchmarks for the front-end structures: trace-cache
//! lookup/fill, fill-unit throughput under each packing policy, and the
//! full fetch engine. These measure *simulator* performance (host time),
//! complementing `tw paper`, which measures *simulated* metrics.

use tc_bench::micro::{black_box, Group};
use tc_cache::{HierarchyConfig, MemoryHierarchy};
use tc_core::{
    FetchBundle, FillUnit, FrontEnd, FrontEndConfig, PackingPolicy, TraceCache, TraceCacheConfig,
    TraceSegment,
};
use tc_isa::Addr;
use tc_predict::{BiasConfig, BiasTable};
use tc_workloads::Benchmark;

fn bench_trace_cache() {
    let group = Group::new("trace_cache");
    // Pre-build segments by retiring a real instruction stream.
    let workload = Benchmark::Gcc.build_scaled(1);
    let mut fill = FillUnit::new(PackingPolicy::Unregulated, None);
    let mut segments = Vec::new();
    for rec in workload.interpreter().take(200_000) {
        fill.retire(&rec);
        for (insts, reason) in fill.finalized() {
            segments.push(TraceSegment::new(insts, reason));
        }
    }
    assert!(segments.len() > 100);
    group.bench("fill", || {
        let mut tc = TraceCache::new(TraceCacheConfig::paper());
        for seg in &segments {
            tc.fill(black_box(seg.insts()), seg.end_reason());
        }
        tc.resident()
    });
    let mut tc = TraceCache::new(TraceCacheConfig::paper());
    for seg in &segments {
        tc.fill(seg.insts(), seg.end_reason());
    }
    let starts: Vec<Addr> = segments.iter().map(TraceSegment::start).collect();
    group.bench("lookup", || {
        let mut hits = 0u64;
        for &s in &starts {
            if tc.lookup(black_box(s)).is_some() {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_fill_policies() {
    let group = Group::new("fill_unit");
    let workload = Benchmark::Compress.build_scaled(1);
    let stream: Vec<_> = workload.interpreter().take(100_000).collect();
    for (name, policy) in [
        ("atomic", PackingPolicy::Atomic),
        ("unregulated", PackingPolicy::Unregulated),
        ("cost_regulated", PackingPolicy::CostRegulated),
    ] {
        group.bench(name, || {
            let bias = BiasTable::new(BiasConfig {
                entries: 8192,
                threshold: 64,
                counter_bits: 10,
                tagged: true,
            });
            let mut fill = FillUnit::new(policy, Some(bias));
            let mut segs = 0u64;
            for rec in &stream {
                fill.retire(black_box(rec));
                segs += fill.finalized().count() as u64;
            }
            segs
        });
    }
}

fn bench_fetch_engine() {
    let group = Group::new("fetch_engine");
    let workload = Benchmark::Perl.build_scaled(1);
    let program = workload.program().clone();
    // Warm a front end with the retired stream, then measure fetch loops.
    for (name, config) in [
        ("baseline", FrontEndConfig::baseline()),
        (
            "promo_pack",
            FrontEndConfig::promotion_packing(64, PackingPolicy::Unregulated),
        ),
    ] {
        let mut fe = FrontEnd::new(config);
        for rec in workload.interpreter().take(100_000) {
            fe.retire(&rec);
        }
        let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_trace_cache());
        let pcs: Vec<Addr> = workload.interpreter().take(2_000).map(|r| r.pc).collect();
        let mut bundle = FetchBundle::default();
        group.bench(name, || {
            let mut insts = 0usize;
            for &pc in &pcs {
                fe.fetch_to(black_box(pc), &program, &mut mem, &mut bundle);
                insts += bundle.insts.len();
            }
            insts
        });
    }
}

fn main() {
    bench_trace_cache();
    bench_fill_policies();
    bench_fetch_engine();
}
