//! Event-tracing integration gates.
//!
//! Three properties the tracing subsystem must keep:
//!
//! 1. **Observation does not perturb**: a traced run's simulation
//!    results are bit-identical to the untraced run's (the tracer only
//!    watches; it never feeds back).
//! 2. **Determinism**: the simulator is seed-free and deterministic, so
//!    two identical traced runs produce identical event streams.
//! 3. **Stable export**: the Chrome `trace_event` serialization of a
//!    small fixed workload matches a committed golden fixture
//!    byte-for-byte. The fixture was captured via
//!
//!    ```text
//!    tw sim --bench compress --config headline --insts 2000 \
//!       --events tc,promote --interval 500 --limit 64 \
//!       --out crates/sim/tests/golden/trace-compress-headline.chrome.json
//!    ```
//!
//!    Regenerate it with the same command only when a change *intends*
//!    to alter the event stream or the export format, and say so in the
//!    commit.

use tc_sim::harness::{
    chrome_trace_json, parse_json, report_to_json, run_traced, trace_options, TraceOptions,
};
use tc_sim::{Processor, SimConfig};
use tc_trace::EventFilter;
use tc_workloads::Benchmark;

/// Mirrors the release `tw` binary, where the invariant sanitizer
/// defaults off (tests compile with `debug_assertions`, which would
/// otherwise flip the default).
fn capture_config(base: SimConfig, insts: u64) -> SimConfig {
    let mut config = base.with_max_insts(insts);
    config.front_end.sanitize = false;
    config
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let workload = Benchmark::Gcc.build_scaled(2);
    let config = capture_config(SimConfig::headline_perf(), 30_000);
    let untraced = Processor::new(config.clone()).run(&workload);
    // The options `tw sim --out FILE` runs with: every default.
    let options = trace_options(false, true, None, None, None)
        .unwrap()
        .unwrap();
    let traced = run_traced(config, &workload, workload.machine(), &options);

    assert!(traced.report.trace.is_some());
    assert!(untraced.trace.is_none());
    let mut scrubbed = traced.report.clone();
    scrubbed.trace = None;
    assert_eq!(
        report_to_json(&untraced).pretty(),
        report_to_json(&scrubbed).pretty(),
        "attaching a tracer changed the simulation"
    );
}

#[test]
fn identical_runs_produce_identical_event_streams() {
    let workload = Benchmark::Go.build_scaled(2);
    let options = TraceOptions {
        filter: EventFilter::all(),
        interval: 1_000,
        limit: 10_000,
    };
    let config = capture_config(SimConfig::headline_perf(), 20_000);
    let a = run_traced(config.clone(), &workload, workload.machine(), &options);
    let b = run_traced(config, &workload, workload.machine(), &options);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.records, b.records);
    assert_eq!(a.timeline.windows(), b.timeline.windows());
}

#[test]
fn ring_limit_bounds_recording_with_exact_drop_accounting() {
    let workload = Benchmark::Compress.build_scaled(2);
    let options = TraceOptions {
        filter: EventFilter::all(),
        interval: 1_000,
        limit: 100,
    };
    let run = run_traced(
        capture_config(SimConfig::baseline(), 20_000),
        &workload,
        workload.machine(),
        &options,
    );
    assert_eq!(run.records.len(), 100, "ring stores exactly its capacity");
    assert!(run.summary.dropped > 0);
    assert_eq!(
        run.summary.emitted,
        run.summary.recorded + run.summary.dropped + run.summary.filtered,
        "every emitted event is recorded, dropped, or filtered"
    );
    // Per-kind counts fold before the capacity check, so they cover all
    // emitted events, not just the stored prefix.
    let counted: u64 = run.summary.counts.iter().sum();
    assert_eq!(counted, run.summary.emitted);
}

#[test]
fn chrome_export_matches_the_golden_fixture() {
    let fixture = include_str!("golden/trace-compress-headline.chrome.json");
    let workload = Benchmark::Compress.build();
    let options = TraceOptions {
        filter: EventFilter::parse("tc,promote").expect("valid filter"),
        interval: 500,
        limit: 64,
    };
    let run = run_traced(
        capture_config(SimConfig::headline_perf(), 2_000),
        &workload,
        workload.machine(),
        &options,
    );
    let rendered = format!("{}\n", chrome_trace_json(&run).pretty());
    parse_json(&rendered).expect("chrome export is well-formed");
    assert_eq!(
        rendered, fixture,
        "chrome trace export differs from the committed capture"
    );
}
