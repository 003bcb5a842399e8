//! A hand-rolled JSON emitter for simulation reports.
//!
//! The workspace builds offline with no external crates, so structured
//! output is produced by this small, dependency-free serializer. Object
//! keys keep insertion order, making the schema stable and goldenable;
//! non-finite floats are emitted as `null` (JSON has no NaN/Inf), and a
//! test asserts every numeric field of a real report is finite.

use std::fmt::Write as _;

use crate::report::SimReport;

/// A JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every counter in a report).
    UInt(u64),
    /// A floating-point number; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object whose keys keep insertion order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// Renders compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation for human consumption.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Looks up a key of an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{}` prints the shortest representation that round-trips,
        // which is always a valid JSON number for finite values.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The structured form of one [`SimReport`].
///
/// The key set is part of the tool's public interface: the `harness`
/// golden test pins it, so extend it additively.
#[must_use]
pub fn report_to_json(r: &SimReport) -> Json {
    let (p01, p2, p3) = r.fetch.prediction_demand();
    let trace_cache = match &r.trace_cache {
        None => Json::Null,
        Some(tc) => Json::Object(vec![
            ("hits", Json::UInt(tc.hits)),
            ("misses", Json::UInt(tc.misses)),
            ("fills", Json::UInt(tc.fills)),
            ("evictions", Json::UInt(tc.evictions)),
            ("duplicate_fills", Json::UInt(tc.duplicate_fills)),
            ("miss_ratio", Json::Float(tc.miss_ratio())),
        ]),
    };
    let promotions = match r.promotions {
        None => Json::Null,
        Some((promoted, demoted)) => Json::Object(vec![
            ("promotions", Json::UInt(promoted)),
            ("demotions", Json::UInt(demoted)),
        ]),
    };
    let cache = |s: &tc_cache::CacheStats| {
        Json::Object(vec![
            ("hits", Json::UInt(s.hits)),
            ("misses", Json::UInt(s.misses)),
            ("evictions", Json::UInt(s.evictions)),
            ("miss_ratio", Json::Float(s.miss_ratio())),
        ])
    };
    let mut fields = vec![
        ("benchmark", Json::Str(r.benchmark.clone())),
        ("config", Json::Str(r.config.clone())),
        ("instructions", Json::UInt(r.instructions)),
        ("cycles", Json::UInt(r.cycles)),
        ("ipc", Json::Float(r.ipc())),
        (
            "effective_fetch_rate",
            Json::Float(r.effective_fetch_rate()),
        ),
        (
            "cond_mispredict_rate",
            Json::Float(r.cond_mispredict_rate()),
        ),
        ("avg_resolution_time", Json::Float(r.avg_resolution_time())),
        ("cond_branches", Json::UInt(r.cond_branches)),
        ("cond_mispredicts", Json::UInt(r.cond_mispredicts)),
        ("promoted_executed", Json::UInt(r.promoted_executed)),
        ("promoted_faults", Json::UInt(r.promoted_faults)),
        ("indirect_executed", Json::UInt(r.indirect_executed)),
        ("indirect_mispredicts", Json::UInt(r.indirect_mispredicts)),
        ("return_mispredicts", Json::UInt(r.return_mispredicts)),
        ("salvaged", Json::UInt(r.salvaged)),
        (
            "accounting",
            Json::Object(vec![
                ("useful_fetch", Json::UInt(r.accounting.useful_fetch)),
                ("branch_misses", Json::UInt(r.accounting.branch_misses)),
                ("cache_misses", Json::UInt(r.accounting.cache_misses)),
                ("full_window", Json::UInt(r.accounting.full_window)),
                ("traps", Json::UInt(r.accounting.traps)),
                ("misfetches", Json::UInt(r.accounting.misfetches)),
                (
                    "unaccounted",
                    Json::UInt(r.cycles.saturating_sub(r.accounting.total())),
                ),
            ]),
        ),
        (
            "fetch",
            Json::Object(vec![
                ("productive_fetches", Json::UInt(r.fetch.productive_fetches)),
                (
                    "correct_instructions",
                    Json::UInt(r.fetch.correct_instructions),
                ),
                ("tc_fetches", Json::UInt(r.fetch.tc_fetches)),
                ("icache_fetches", Json::UInt(r.fetch.icache_fetches)),
                ("promoted_fetched", Json::UInt(r.fetch.promoted_fetched)),
                (
                    "prediction_demand",
                    Json::Array(vec![Json::Float(p01), Json::Float(p2), Json::Float(p3)]),
                ),
            ]),
        ),
        ("trace_cache", trace_cache),
        ("promotions", promotions),
        (
            "caches",
            Json::Object(vec![
                ("icache", cache(&r.icache)),
                ("dcache", cache(&r.dcache)),
                ("l2", cache(&r.l2)),
            ]),
        ),
        (
            "engine",
            Json::Object(vec![
                ("issued", Json::UInt(r.engine.issued)),
                ("loads", Json::UInt(r.engine.loads)),
                ("stores", Json::UInt(r.engine.stores)),
                ("wait_cycles", Json::UInt(r.engine.wait_cycles)),
            ]),
        ),
        (
            "sanitizer",
            Json::Object(vec![
                ("enabled", Json::Bool(r.sanitizer.enabled)),
                ("checked_fills", Json::UInt(r.sanitizer.checked_fills)),
                ("checked_hits", Json::UInt(r.sanitizer.checked_hits)),
                ("errors", Json::UInt(r.sanitizer.errors)),
                ("warnings", Json::UInt(r.sanitizer.warnings)),
            ]),
        ),
    ];
    // Appended only for traced runs: untraced reports — and the 30
    // golden fixtures — keep the exact pre-tracing key set.
    // Likewise for fault runs: without a fault plan the key set is
    // unchanged.
    if let Some(f) = &r.fault {
        fields.push((
            "fault",
            Json::Object(vec![
                ("injected", Json::UInt(f.injected)),
                ("detected", Json::UInt(f.detected)),
                ("recovered", Json::UInt(f.recovered)),
                ("escaped", Json::UInt(f.escaped)),
                ("recovery_cycles", Json::UInt(f.recovery_cycles)),
            ]),
        ));
    }
    if let Some(t) = &r.trace {
        fields.push(("trace", trace_summary_to_json(t)));
    }
    // Appended only for fast-forward/sampled runs: full-timing reports
    // keep the exact pre-mode key set.
    if let Some(s) = &r.sampling {
        fields.push((
            "sampling",
            Json::Object(vec![
                ("fast_forwarded", Json::UInt(s.fast_forwarded)),
                ("warmed", Json::UInt(s.warmed)),
                ("measured", Json::UInt(s.measured)),
                ("windows", Json::UInt(s.windows)),
                ("total_stream", Json::UInt(s.total_stream)),
                ("timed_fraction", Json::Float(s.timed_fraction())),
            ]),
        ));
    }
    // Appended only when a promotion plan was attached: plan-free
    // reports keep the exact pre-plan key set.
    if let Some(p) = &r.plan {
        let class = |counts: &[u64; 4]| {
            Json::Object(
                tc_predict::BranchClass::ALL
                    .into_iter()
                    .map(|c| (c.name(), Json::UInt(counts[c.index()])))
                    .collect(),
            )
        };
        fields.push((
            "plan",
            Json::Object(vec![
                ("workload", Json::Str(p.workload.clone())),
                ("profiled_instructions", Json::UInt(p.profiled_insts)),
                ("entries", Json::UInt(p.entries)),
                ("never_promote", Json::UInt(p.never_promote)),
                ("class_branches", class(&p.class_branches)),
                ("class_execs", class(&p.class_execs)),
                ("class_promoted", class(&p.class_promoted)),
                ("class_faults", class(&p.class_faults)),
                ("class_promotions", class(&p.class_promotions)),
            ]),
        ));
    }
    Json::Object(fields)
}

/// The structured form of a [`tc_trace::TraceSummary`]: overall ring
/// accounting plus non-zero per-kind event counts.
fn trace_summary_to_json(t: &tc_trace::TraceSummary) -> Json {
    let counts = tc_trace::EventKind::ALL
        .iter()
        .filter(|k| t.count(**k) > 0)
        .map(|k| (k.name(), Json::UInt(t.count(*k))))
        .collect();
    Json::Object(vec![
        ("emitted", Json::UInt(t.emitted)),
        ("recorded", Json::UInt(t.recorded)),
        ("dropped", Json::UInt(t.dropped)),
        ("filtered", Json::UInt(t.filtered)),
        ("counts", Json::Object(counts)),
    ])
}

/// A JSON array of reports, in the given order.
#[must_use]
pub fn reports_to_json(reports: &[SimReport]) -> Json {
    Json::Array(reports.iter().map(report_to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escapes() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn renders_composites_in_order() {
        let v = Json::Object(vec![
            ("b", Json::UInt(1)),
            ("a", Json::Array(vec![Json::UInt(2), Json::Null])),
        ]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":[2,null]}");
        assert!(v.pretty().contains("\"a\": [\n"));
        assert_eq!(v.get("b"), Some(&Json::UInt(1)));
        assert_eq!(v.get("missing"), None);
    }
}
