//! In-memory spans around calls into each layer, written out at exit as
//! Chrome `trace_event` JSON.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use tc_sim::harness::Json;

/// One timed interval. `parent == 0` marks a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Disabled recorders keep nothing, so an
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    tid: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool, tid: u32) -> Spans {
        Spans {
            epoch,
            enabled,
            tid,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id before the span ends, so children recorded
    /// first can name it as their parent. Ids are unique across threads.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.tid) << 40) | self.next
    }

    /// Records a finished span under a reserved id.
    pub fn close(&mut self, id: u64, name: &'static str, start_ns: u64, parent: u64) {
        if self.enabled {
            let end_ns = self.now();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                tid: self.tid,
            });
        }
    }

    /// Records a finished span with explicit bounds; returns its id.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> u64 {
        let id = self.open();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                tid: self.tid,
            });
        }
        id
    }
}

/// Measured cost of recording one span (clock read plus push), in ns.
pub fn record_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut probe = Spans::new(Instant::now(), true, 0);
    probe.spans.reserve(N as usize);
    let start = Instant::now();
    for _ in 0..N {
        let t = probe.now();
        let id = probe.open();
        probe.close(id, "probe", t, 0);
    }
    let ns = start.elapsed().as_nanos() as f64 / N as f64;
    black_box(probe.spans.len());
    ns
}

/// Per-name totals: count, summed duration, and self time (duration
/// minus the part its child spans cover), in ns, sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let names: HashMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut acc: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    for s in spans {
        if let Some(parent) = names.get(&s.parent) {
            acc.entry(parent).or_default().2 += s.dur_ns();
        }
    }
    let mut rows: Vec<_> = acc
        .into_iter()
        .map(|(name, (count, total, children))| {
            (name, count, total, total.saturating_sub(children))
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.0);
    rows
}

/// The Chrome `trace_event` document for `spans`.
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::Object(vec![
                ("name", Json::Str(s.name.to_string())),
                ("cat", Json::Str("twbench".to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(u64::from(s.tid))),
                (
                    "args",
                    Json::Object(vec![
                        ("id", Json::UInt(s.id)),
                        ("parent", Json::UInt(s.parent)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}
