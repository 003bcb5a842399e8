//! The event-trace sink: traced runs, the Chrome/Perfetto export, and
//! the interval-timeline renderers behind `tw sim --out` / `--timeline`
//! and a traced `/v1/sim` request.
//!
//! [`trace_options`] is the one rule both front doors apply to the
//! trace fields, and [`run_traced`] runs the cell.
//!
//! A traced run attaches a [`RingTracer`] to the processor and, after
//! the simulation, carries away three things: the bounded event stream
//! (with drop accounting), the exact per-kind [`TraceSummary`], and the
//! optional interval [`Timeline`]. [`chrome_trace_json`] serializes the
//! stream into the Chrome `trace_event` JSON format — one instant event
//! (`"ph": "i"`) per record with the simulated cycle as its timestamp,
//! plus one counter track (`"ph": "C"`) per timeline metric — which
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly.

use std::fmt::Write as _;

use tc_isa::Machine;
use tc_trace::{
    EventFilter, IntervalStats, RingTracer, Timeline, TraceEvent, TraceRecord, TraceSummary, Tracer,
};
use tc_workloads::Workload;

use crate::config::SimConfig;
use crate::harness::error::TwError;
use crate::harness::json::Json;
use crate::processor::Processor;
use crate::report::SimReport;

/// Default ring-buffer capacity of a trace.
pub const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// Largest ring-buffer capacity either front door accepts. The ring is
/// allocated up front, so the cap bounds a trace's memory.
pub const MAX_TRACE_LIMIT: usize = 1_000_000;

/// Default timeline window width in cycles.
pub const DEFAULT_TRACE_INTERVAL: u64 = 10_000;

/// How a traced run is instrumented.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// Which event kinds the ring buffer stores (aggregates always see
    /// everything).
    pub filter: EventFilter,
    /// Timeline window width in cycles.
    pub interval: u64,
    /// Ring-buffer capacity in events.
    pub limit: usize,
}

/// Everything a traced simulation produced.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The ordinary simulation report (its `trace` field is populated).
    pub report: SimReport,
    /// The recorded event stream, in emit order.
    pub records: Vec<TraceRecord>,
    /// Exact aggregate accounting (drop-immune).
    pub summary: TraceSummary,
    /// The interval timeline.
    pub timeline: Timeline,
}

/// Builds the trace options that `tw sim`'s trace flags or a `/v1/sim`
/// request's trace fields describe: the one rule both front doors share.
/// `traced` says whether the events are exported (`--out`, or a request
/// with `events` or `limit`). With neither a timeline nor a trace there
/// is nothing to record, and an interval is an error. The interval is at
/// least 1 cycle. A trace keeps the first `limit` events `filter` passes
/// (default all), at most [`MAX_TRACE_LIMIT`]; a timeline alone keeps
/// none.
///
/// # Errors
///
/// A usage error naming the first rule the fields break.
pub fn trace_options(
    timeline: bool,
    traced: bool,
    filter: Option<EventFilter>,
    interval: Option<u64>,
    limit: Option<u64>,
) -> Result<Option<TraceOptions>, TwError> {
    if !timeline && !traced {
        return match interval {
            Some(_) => Err(TwError::usage(
                "a timeline interval needs a timeline or a trace",
            )),
            None => Ok(None),
        };
    }
    let interval = interval.unwrap_or(DEFAULT_TRACE_INTERVAL);
    let (filter, limit) = if traced {
        let limit = limit.unwrap_or(DEFAULT_TRACE_LIMIT as u64);
        (filter.unwrap_or_else(EventFilter::all), limit)
    } else {
        (EventFilter::none(), 0)
    };
    if interval == 0 {
        return Err(TwError::usage(
            "the timeline interval must be at least 1 cycle",
        ));
    }
    if limit > MAX_TRACE_LIMIT as u64 {
        return Err(TwError::usage(format!(
            "trace limit {limit} exceeds the cap of {MAX_TRACE_LIMIT}"
        )));
    }
    Ok(Some(TraceOptions {
        filter,
        interval,
        limit: limit as usize,
    }))
}

/// Runs `workload` under `config` from `machine` (`workload.machine()`,
/// or a restored checkpoint, as [`Processor::run_from`] runs) with a
/// recording tracer attached.
#[must_use]
pub fn run_traced(
    config: SimConfig,
    workload: &Workload,
    machine: Machine,
    options: &TraceOptions,
) -> TracedRun {
    let tracer = RingTracer::new(options.limit)
        .with_filter(options.filter)
        .with_interval(options.interval);
    let mut processor = Processor::with_tracer(config, tracer);
    let report = processor.run_from(workload, machine);
    let tracer = processor.tracer();
    TracedRun {
        // `RingTracer::summary` and, with an interval, `timeline` always
        // return `Some`; empty ones beat a panic if that ever slips.
        summary: tracer.summary().unwrap_or_default(),
        records: tracer.records().to_vec(),
        timeline: tracer
            .timeline()
            .cloned()
            .unwrap_or_else(|| Timeline::new(options.interval)),
        report,
    }
}

/// Serializes a traced run into Chrome `trace_event` JSON.
///
/// The document shape is `{"traceEvents": [...], "otherData": {...}}`:
/// process/thread-name metadata first, then the recorded instant
/// events, then the timeline counter tracks. Timestamps are simulated
/// cycles (the viewer's "µs" axis reads as cycles).
#[must_use]
pub fn chrome_trace_json(run: &TracedRun) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(run.records.len() + 8);
    events.push(metadata_event(
        "process_name",
        format!(
            "trace-weave: {} / {}",
            run.report.benchmark, run.report.config
        ),
    ));
    events.push(metadata_event("thread_name", "front end".to_string()));
    for record in &run.records {
        events.push(instant_event(record));
    }
    push_counter_tracks(&mut events, &run.timeline);
    Json::Object(vec![
        ("traceEvents", Json::Array(events)),
        (
            "otherData",
            Json::Object(vec![
                ("benchmark", Json::Str(run.report.benchmark.clone())),
                ("config", Json::Str(run.report.config.clone())),
                ("cycles", Json::UInt(run.report.cycles)),
                ("emitted", Json::UInt(run.summary.emitted)),
                ("recorded", Json::UInt(run.summary.recorded)),
                ("dropped", Json::UInt(run.summary.dropped)),
                ("filtered", Json::UInt(run.summary.filtered)),
            ]),
        ),
    ])
}

fn metadata_event(name: &'static str, value: String) -> Json {
    Json::Object(vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(0)),
        ("args", Json::Object(vec![("name", Json::Str(value))])),
    ])
}

fn instant_event(record: &TraceRecord) -> Json {
    let kind = record.event.kind();
    let mut args = event_args(&record.event);
    args.push(("seq", Json::UInt(record.seq)));
    Json::Object(vec![
        ("name", Json::Str(kind.name().to_string())),
        ("cat", Json::Str(kind.category().to_string())),
        ("ph", Json::Str("i".to_string())),
        ("ts", Json::UInt(record.cycle)),
        ("pid", Json::UInt(0)),
        ("tid", Json::UInt(0)),
        ("s", Json::Str("t".to_string())),
        ("args", Json::Object(args)),
    ])
}

fn hex(addr: tc_isa::Addr) -> Json {
    Json::Str(format!("0x{:x}", addr.byte_addr()))
}

fn event_args(event: &TraceEvent) -> Vec<(&'static str, Json)> {
    match *event {
        TraceEvent::TcHit {
            pc,
            active,
            total,
            full,
        } => vec![
            ("pc", hex(pc)),
            ("active", Json::UInt(u64::from(active))),
            ("total", Json::UInt(u64::from(total))),
            ("full", Json::Bool(full)),
        ],
        TraceEvent::TcMiss { pc }
        | TraceEvent::PromotedFault { pc }
        | TraceEvent::IndirectMispredict { pc }
        | TraceEvent::ReturnMispredict { pc }
        | TraceEvent::Misfetch { pc }
        | TraceEvent::L2Miss { pc }
        | TraceEvent::Retire { pc } => vec![("pc", hex(pc))],
        TraceEvent::TcFill {
            start,
            len,
            evicted,
            duplicate,
        } => vec![
            ("start", hex(start)),
            ("len", Json::UInt(u64::from(len))),
            ("evicted", Json::Bool(evicted)),
            ("duplicate", Json::Bool(duplicate)),
        ],
        TraceEvent::FillFinalize {
            start,
            len,
            dynamic_branches,
            promoted,
            reason,
        } => vec![
            ("start", hex(start)),
            ("len", Json::UInt(u64::from(len))),
            ("dynamic_branches", Json::UInt(u64::from(dynamic_branches))),
            ("promoted", Json::UInt(u64::from(promoted))),
            ("reason", Json::Str(reason.label().to_string())),
        ],
        TraceEvent::PackPerformed {
            head,
            tail,
            verdict,
        } => vec![
            ("head", Json::UInt(u64::from(head))),
            ("tail", Json::UInt(u64::from(tail))),
            ("verdict", Json::Str(verdict.label().to_string())),
        ],
        TraceEvent::PackRefused {
            pending,
            block,
            verdict,
        } => vec![
            ("pending", Json::UInt(u64::from(pending))),
            ("block", Json::UInt(u64::from(block))),
            ("verdict", Json::Str(verdict.label().to_string())),
        ],
        TraceEvent::Promotion { pc, dir } => vec![
            ("pc", hex(pc)),
            (
                "dir",
                Json::Str(if dir { "taken" } else { "not_taken" }.to_string()),
            ),
        ],
        TraceEvent::Demotion { pc, cause } => vec![
            ("pc", hex(pc)),
            ("cause", Json::Str(cause.label().to_string())),
        ],
        TraceEvent::CondMispredict { pc, taken } => {
            vec![("pc", hex(pc)), ("taken", Json::Bool(taken))]
        }
        TraceEvent::Repair { redirect_pc, lost } => vec![
            ("redirect_pc", hex(redirect_pc)),
            ("lost", Json::UInt(u64::from(lost))),
        ],
        TraceEvent::IcacheMiss { pc, latency } => {
            vec![("pc", hex(pc)), ("latency", Json::UInt(u64::from(latency)))]
        }
        TraceEvent::Fetch {
            pc,
            size,
            source,
            cond_branches,
            promoted,
            mispredicted,
        } => vec![
            ("pc", hex(pc)),
            ("size", Json::UInt(u64::from(size))),
            (
                "source",
                Json::Str(
                    match source {
                        tc_trace::FetchOrigin::TraceCache => "trace_cache",
                        tc_trace::FetchOrigin::ICache => "icache",
                    }
                    .to_string(),
                ),
            ),
            ("cond_branches", Json::UInt(u64::from(cond_branches))),
            ("promoted", Json::UInt(u64::from(promoted))),
            ("mispredicted", Json::Bool(mispredicted)),
        ],
        TraceEvent::WindowStall { wait, occupancy } => vec![
            ("wait", Json::UInt(u64::from(wait))),
            ("occupancy", Json::UInt(u64::from(occupancy))),
        ],
        TraceEvent::FaultInjected { locus, pc } => vec![
            ("locus", Json::Str(locus.name().to_string())),
            ("pc", hex(pc)),
        ],
        TraceEvent::FaultDetected { pc }
        | TraceEvent::FaultQuarantined { pc }
        | TraceEvent::FaultRecovered { pc } => vec![("pc", hex(pc))],
        TraceEvent::ModeBoundary { phase, insts } => vec![
            ("phase", Json::Str(phase.label().to_string())),
            ("insts", Json::UInt(insts)),
        ],
    }
}

/// Extracts one timeline metric from a window's tallies.
type MetricFn = fn(&IntervalStats) -> f64;

/// The four timeline metrics, as (track name, extractor) pairs.
const TIMELINE_TRACKS: [(&str, MetricFn); 4] = [
    ("fetch_rate", IntervalStats::fetch_rate),
    ("tc_hit_rate", IntervalStats::tc_hit_rate),
    ("mispredict_rate", IntervalStats::mispredict_rate),
    ("promotion_coverage", IntervalStats::promotion_coverage),
];

fn push_counter_tracks(events: &mut Vec<Json>, timeline: &Timeline) {
    for (name, metric) in TIMELINE_TRACKS {
        for (i, window) in timeline.windows().iter().enumerate() {
            events.push(Json::Object(vec![
                ("name", Json::Str(name.to_string())),
                ("ph", Json::Str("C".to_string())),
                ("ts", Json::UInt(i as u64 * timeline.interval())),
                ("pid", Json::UInt(0)),
                (
                    "args",
                    Json::Object(vec![("value", Json::Float(metric(window)))]),
                ),
            ]));
        }
    }
}

/// Serializes a timeline as an array of per-window objects (raw tallies
/// plus the derived rates).
#[must_use]
pub fn timeline_to_json(timeline: &Timeline) -> Json {
    Json::Object(vec![
        ("interval", Json::UInt(timeline.interval())),
        (
            "windows",
            Json::Array(
                timeline
                    .windows()
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        Json::Object(vec![
                            ("start_cycle", Json::UInt(i as u64 * timeline.interval())),
                            ("fetches", Json::UInt(w.fetches)),
                            ("insts", Json::UInt(w.insts)),
                            ("tc_lookups", Json::UInt(w.tc_lookups)),
                            ("tc_hits", Json::UInt(w.tc_hits)),
                            ("cond_branches", Json::UInt(w.cond_branches)),
                            ("promoted", Json::UInt(w.promoted)),
                            ("mispredicts", Json::UInt(w.mispredicts)),
                            ("fetch_rate", Json::Float(w.fetch_rate())),
                            ("tc_hit_rate", Json::Float(w.tc_hit_rate())),
                            ("mispredict_rate", Json::Float(w.mispredict_rate())),
                            ("promotion_coverage", Json::Float(w.promotion_coverage())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a timeline as the plain-text table `--timeline` prints.
#[must_use]
pub fn timeline_table(timeline: &Timeline) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>9} {:>9} {:>9}",
        "cycle", "fetch rate", "tc hit%", "mispred%", "promo%"
    );
    for (i, w) in timeline.windows().iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>12} {:>10.2} {:>8.1}% {:>8.2}% {:>8.1}%",
            i as u64 * timeline.interval(),
            w.fetch_rate(),
            w.tc_hit_rate() * 100.0,
            w.mispredict_rate() * 100.0,
            w.promotion_coverage() * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::parse::parse_json;
    use tc_workloads::Benchmark;

    fn small_traced() -> TracedRun {
        let workload = Benchmark::Compress.build_scaled(2);
        let config = SimConfig::headline_perf().with_max_insts(10_000);
        run_traced(
            config,
            &workload,
            workload.machine(),
            &TraceOptions {
                filter: EventFilter::all(),
                interval: 1_000,
                limit: 2_000,
            },
        )
    }

    #[test]
    fn traced_run_records_events_and_timeline() {
        let run = small_traced();
        assert!(!run.records.is_empty());
        assert!(run.summary.emitted > 0);
        assert_eq!(run.summary.recorded, run.records.len() as u64);
        assert_eq!(
            run.report.trace.as_ref().map(|t| t.emitted),
            Some(run.summary.emitted)
        );
        assert!(!run.timeline.windows().is_empty());
        // Records arrive in emit order with strictly increasing seq.
        for pair in run.records.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].cycle <= pair[1].cycle);
        }
    }

    #[test]
    fn chrome_export_is_well_formed_and_accounts_drops() {
        let run = small_traced();
        assert!(run.summary.dropped > 0, "2k ring must overflow");
        let text = chrome_trace_json(&run).pretty();
        parse_json(&text).expect("chrome export is well-formed");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"ph\": \"C\""));
        assert!(text.contains("\"dropped\""));
    }

    #[test]
    fn timeline_renderers_cover_every_window() {
        let run = small_traced();
        let timeline = &run.timeline;
        let table = timeline_table(timeline);
        assert_eq!(table.lines().count(), timeline.windows().len() + 1);
        let json = timeline_to_json(timeline).pretty();
        parse_json(&json).expect("timeline json is well-formed");
        assert_eq!(
            json.matches("\"start_cycle\"").count(),
            timeline.windows().len()
        );
    }
}
