//! Wire types for the `tw serve` JSON protocol: strict request
//! parsing, canonical cache keys, and the response envelope.
//!
//! Every request body is untrusted. Parsing goes through the harness's
//! depth-limited JSON reader ([`crate::harness::parse_json`]), then a
//! strict per-kind field allowlist — an unknown field, a wrong type, or
//! an out-of-range value is a 400 with a one-line reason, never a
//! panic. The parsed [`JobSpec`] renders itself into a *canonical* key
//! string (aliases resolved, defaults filled in), so `"preset": "tc"`
//! and `"preset": "baseline"` share one cache entry.

use tc_fault::FaultPlan;
use tc_trace::{EventFilter, EventKind};
use tc_workloads::WorkloadId;

use crate::harness::error::TwError;
use crate::harness::parse::{parse_json, Value};
use crate::harness::registry;
use crate::harness::trace::{trace_options, TraceOptions, DEFAULT_TRACE_INTERVAL};

/// Schema tag carried by every response body.
pub const WIRE_SCHEMA: &str = "tw-serve/v1";

/// The three job endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One benchmark under one preset, with or without a fault plan, a
    /// timeline or a Chrome trace (`POST /v1/sim`).
    Sim,
    /// One benchmark across the standard five presets
    /// (`POST /v1/compare`).
    Compare,
    /// Branch-predictability profile → `tw-plan/v1` promotion plan
    /// (`POST /v1/analyze`).
    Analyze,
}

impl JobKind {
    /// The endpoint name (also the cache-key prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Sim => "sim",
            JobKind::Compare => "compare",
            JobKind::Analyze => "analyze",
        }
    }
}

/// A fully validated job: everything needed to run it and to key its
/// result in the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which endpoint this came in on.
    pub kind: JobKind,
    /// The workload to simulate (either family).
    pub bench: WorkloadId,
    /// Canonical preset name (aliases resolved). `compare` ignores it.
    pub preset: &'static str,
    /// Dynamic instruction budget.
    pub insts: u64,
    /// Perfect memory disambiguation toggle.
    pub perfect: bool,
    /// Fold an interval timeline into the response (`sim` only).
    pub timeline: bool,
    /// Export the recorded events as `chrome_trace` (`sim` only; a
    /// request with `events` or `limit`).
    pub chrome_trace: bool,
    /// How the run is traced when it has a timeline or a Chrome trace,
    /// built by [`crate::harness::trace_options`].
    pub trace: Option<TraceOptions>,
    /// Auto-build and apply a promotion plan (`sim` only).
    pub auto_plan: bool,
    /// The fault plan (`sim` only), built by
    /// [`crate::harness::fault_plan`].
    pub fault: Option<FaultPlan>,
}

/// Server-imposed bounds a parsed job must respect.
#[derive(Debug, Clone, Copy)]
pub struct JobLimits {
    /// Largest accepted `insts` value.
    pub max_insts: u64,
    /// `insts` when the request omits it.
    pub default_insts: u64,
}

/// Fields every job accepts.
const COMMON_FIELDS: &[&str] = &["bench", "insts"];

fn allowed_fields(kind: JobKind) -> &'static [&'static str] {
    match kind {
        JobKind::Sim => &[
            "preset",
            "perfect",
            "timeline",
            "plan",
            "seed",
            "rate",
            "at_cycles",
            "targets",
            "events",
            "interval",
            "limit",
        ],
        JobKind::Compare => &["perfect"],
        JobKind::Analyze => &[],
    }
}

fn bad(msg: impl Into<String>) -> TwError {
    TwError::usage(msg.into())
}

fn want_str<'a>(field: &str, v: &'a Value) -> Result<&'a str, TwError> {
    v.as_str()
        .ok_or_else(|| bad(format!("field {field:?}: expected a string")))
}

fn want_u64(field: &str, v: &Value) -> Result<u64, TwError> {
    v.as_u64()
        .ok_or_else(|| bad(format!("field {field:?}: expected a non-negative integer")))
}

fn want_bool(field: &str, v: &Value) -> Result<bool, TwError> {
    v.as_bool()
        .ok_or_else(|| bad(format!("field {field:?}: expected true or false")))
}

/// Parses and validates one job request body.
///
/// # Errors
///
/// A usage-class [`TwError`] (the server answers 400) naming the first
/// offending field: not JSON, not an object, an unknown or misspelled
/// field, a wrong type, or a value outside the server's limits.
pub fn parse_job(kind: JobKind, body: &[u8], limits: &JobLimits) -> Result<JobSpec, TwError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad("request body is empty (want a JSON object)"));
    }
    let doc = parse_json(text).map_err(|e| bad(format!("request body: {e}")))?;
    let Value::Object(members) = &doc else {
        return Err(bad("request body must be a JSON object"));
    };

    let allowed = allowed_fields(kind);
    for (key, _) in members {
        if !COMMON_FIELDS.contains(&key.as_str()) && !allowed.contains(&key.as_str()) {
            let mut fields: Vec<&str> = COMMON_FIELDS.iter().chain(allowed).copied().collect();
            fields.sort_unstable();
            return Err(bad(format!(
                "unknown field {key:?} for {} (accepted: {})",
                kind.name(),
                fields.join(", ")
            )));
        }
    }
    if let Some(dup) = members
        .iter()
        .enumerate()
        .find(|(i, (k, _))| members[..*i].iter().any(|(k2, _)| k2 == k))
        .map(|(_, (k, _))| k)
    {
        return Err(bad(format!("duplicate field {dup:?}")));
    }

    let bench_name = want_str(
        "bench",
        doc.get("bench").ok_or_else(|| {
            bad(format!(
                "missing required field \"bench\" for {}",
                kind.name()
            ))
        })?,
    )?;
    let bench = registry::find_bench(bench_name).ok_or_else(|| {
        bad(format!(
            "unknown benchmark {bench_name:?} (see GET /v1/workloads)"
        ))
    })?;

    let insts = match doc.get("insts") {
        None => limits.default_insts,
        Some(v) => {
            let n = want_u64("insts", v)?;
            if n == 0 || n > limits.max_insts {
                return Err(bad(format!(
                    "field \"insts\": {n} is outside 1..={}",
                    limits.max_insts
                )));
            }
            n
        }
    };

    // Presets: `compare` pins the standard five; everything else
    // defaults to `baseline`.
    let preset = match doc.get("preset") {
        None => "baseline",
        Some(v) => {
            let name = want_str("preset", v)?;
            registry::preset(name)
                .ok_or_else(|| bad(format!("unknown preset {name:?} (see GET /v1/presets)")))?
                .name
        }
    };

    let perfect = match doc.get("perfect") {
        None => false,
        Some(v) => want_bool("perfect", v)?,
    };
    let timeline = match doc.get("timeline") {
        None => false,
        Some(v) => want_bool("timeline", v)?,
    };
    let auto_plan = match doc.get("plan") {
        None => false,
        Some(v) => match want_str("plan", v)? {
            "auto" => true,
            other => {
                return Err(bad(format!(
                    "field \"plan\": only \"auto\" is supported over the wire, got {other:?}"
                )))
            }
        },
    };

    // Only `sim` accepts the fault and trace fields, so other kinds get
    // `None`.
    let list = |field: &str, items: &str| {
        doc.get(field)
            .map(|v| {
                v.as_array()
                    .ok_or_else(|| bad(format!("field {field:?}: expected an array of {items}")))
            })
            .transpose()
    };
    let seed = doc.get("seed").map(|v| want_u64("seed", v)).transpose()?;
    let rate = doc
        .get("rate")
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| bad("field \"rate\": expected a number"))
        })
        .transpose()?;
    let at_cycles = list("at_cycles", "cycles")?
        .map(|items| items.iter().map(|v| want_u64("at_cycles", v)).collect())
        .transpose()?;
    let targets: Option<Vec<&str>> = list("targets", "locus names")?
        .map(|items| items.iter().map(|v| want_str("targets", v)).collect())
        .transpose()?;
    let fault = registry::fault_plan(seed, rate, at_cycles, targets.as_deref())?;

    let events = doc
        .get("events")
        .map(|v| {
            EventFilter::parse(want_str("events", v)?)
                .map_err(|e| bad(format!("field \"events\": {e}")))
        })
        .transpose()?;
    let interval = doc
        .get("interval")
        .map(|v| want_u64("interval", v))
        .transpose()?;
    let limit = doc.get("limit").map(|v| want_u64("limit", v)).transpose()?;
    let chrome_trace = events.is_some() || limit.is_some();
    let trace = trace_options(timeline, chrome_trace, events, interval, limit)?;

    Ok(JobSpec {
        kind,
        bench,
        preset,
        insts,
        perfect,
        timeline,
        chrome_trace,
        trace,
        auto_plan,
        fault,
    })
}

impl JobSpec {
    /// The canonical cache-key string: every field that affects the
    /// result, defaults filled in, aliases resolved. Two requests with
    /// the same key are bit-identical computations.
    #[must_use]
    pub fn cache_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = format!(
            "{}|bench={}|preset={}|insts={}|perfect={}|timeline={}|plan={}",
            self.kind.name(),
            self.bench.name(),
            if self.kind == JobKind::Compare {
                "standard-five"
            } else {
                self.preset
            },
            self.insts,
            u8::from(self.perfect),
            u8::from(self.timeline),
            u8::from(self.auto_plan),
        );
        if let Some(plan) = &self.fault {
            // The plan is canonical (cycles sorted and deduplicated,
            // targets a set), and the rate is bit-exact: two rates hash
            // alike iff they are the same f64.
            let cycles: Vec<String> = plan.cycles.iter().map(u64::to_string).collect();
            let targets: Vec<&str> = plan.enabled_targets().iter().map(|l| l.name()).collect();
            let _ = write!(
                key,
                "|seed={}|rate={:016x}|cycles={}|targets={}",
                plan.seed,
                plan.rate.to_bits(),
                cycles.join(","),
                targets.join(",")
            );
        }
        // A timeline at the default interval keeps the key it had
        // before requests could set the interval or ask for a trace.
        if let Some(trace) = self
            .trace
            .as_ref()
            .filter(|t| self.chrome_trace || t.interval != DEFAULT_TRACE_INTERVAL)
        {
            let events: Vec<&str> = EventKind::ALL
                .iter()
                .filter(|&&kind| trace.filter.allows(kind))
                .map(|kind| kind.name())
                .collect();
            let _ = write!(
                key,
                "|chrome={}|events={}|interval={}|limit={}",
                u8::from(self.chrome_trace),
                events.join(","),
                trace.interval,
                trace.limit
            );
        }
        key
    }

    /// FNV-1a 64 of the cache key, as fixed-width hex — the `key`
    /// reported in responses and stats.
    #[must_use]
    pub fn key_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.cache_key().as_bytes()))
    }
}

/// FNV-1a 64-bit (the content-address for cached results).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A failed computation, stored so joiners see the same error the
/// owner did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredError {
    /// HTTP status to answer with.
    pub status: u16,
    /// The one-line diagnostic.
    pub message: String,
}

/// Maps a [`TwError`] to the HTTP status the server answers with.
#[must_use]
pub fn error_status(e: &TwError) -> u16 {
    match e {
        TwError::Usage(_) => 400,
        TwError::Runtime(_) => 500,
    }
}

/// Renders the uniform JSON error body.
#[must_use]
pub fn error_body(status: u16, message: &str) -> String {
    crate::harness::json::Json::Object(vec![
        (
            "schema",
            crate::harness::json::Json::Str(WIRE_SCHEMA.to_string()),
        ),
        (
            "status",
            crate::harness::json::Json::UInt(u64::from(status)),
        ),
        (
            "error",
            crate::harness::json::Json::Str(message.to_string()),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: JobLimits = JobLimits {
        max_insts: 10_000_000,
        default_insts: 200_000,
    };

    fn parse(kind: JobKind, body: &str) -> Result<JobSpec, TwError> {
        parse_job(kind, body.as_bytes(), &LIMITS)
    }

    #[test]
    fn minimal_sim_request_fills_defaults() {
        let job = parse(JobKind::Sim, r#"{"bench": "compress"}"#).unwrap();
        assert_eq!(job.preset, "baseline");
        assert_eq!(job.insts, 200_000);
        assert!(!job.perfect && !job.timeline && !job.auto_plan);
    }

    #[test]
    fn aliases_and_canonical_names_share_a_cache_key() {
        let a = parse(JobKind::Sim, r#"{"bench": "compress", "preset": "tc"}"#).unwrap();
        let b = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "preset": "baseline"}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.key_hash(), b.key_hash());
        let c = parse(JobKind::Sim, r#"{"bench": "compress", "preset": "icache"}"#).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn malformed_bodies_are_usage_errors_with_reasons() {
        let usage = |kind, body: &str| match parse(kind, body) {
            Err(TwError::Usage(msg)) => msg,
            other => panic!("expected usage error for {body:?}, got {other:?}"),
        };
        assert!(usage(JobKind::Sim, "").contains("empty"));
        assert!(usage(JobKind::Sim, "{\"bench\"").contains("request body"));
        assert!(usage(JobKind::Sim, "[1,2]").contains("JSON object"));
        assert!(usage(JobKind::Sim, "{}").contains("bench"));
        assert!(usage(JobKind::Sim, r#"{"bench": "nope"}"#).contains("unknown benchmark"));
        assert!(usage(JobKind::Sim, r#"{"bench": "compress", "bogus": 1}"#).contains("accepted:"));
        assert!(
            usage(JobKind::Sim, r#"{"bench": "compress", "insts": 0}"#).contains("outside"),
            "zero insts"
        );
        assert!(usage(JobKind::Sim, r#"{"bench": "compress", "insts": -5}"#).contains("integer"));
        assert!(usage(
            JobKind::Sim,
            r#"{"bench": "compress", "insts": 99999999999}"#
        )
        .contains("outside"));
        assert!(usage(JobKind::Sim, r#"{"bench": "compress", "perfect": "yes"}"#).contains("true"));
        assert!(
            usage(JobKind::Sim, r#"{"bench": "compress", "preset": "zap"}"#).contains("preset")
        );
        assert!(usage(
            JobKind::Sim,
            r#"{"bench": "compress", "bench": "compress"}"#
        )
        .contains("duplicate"));
        // Per-kind allowlists: `timeline` belongs to sim, not analyze.
        assert!(usage(
            JobKind::Analyze,
            r#"{"bench": "compress", "timeline": true}"#
        )
        .contains("unknown field"));
        // The fault fields belong to sim and follow the one rule in
        // `registry::fault_plan`.
        assert!(
            usage(JobKind::Compare, r#"{"bench": "compress", "rate": 0.1}"#)
                .contains("unknown field")
        );
        for body in [
            r#"{"bench": "compress", "seed": 1}"#,
            r#"{"bench": "compress", "targets": ["ras"]}"#,
            r#"{"bench": "compress", "rate": 0.5, "at_cycles": [1]}"#,
            r#"{"bench": "compress", "rate": 0}"#,
            r#"{"bench": "compress", "rate": 1.5}"#,
            r#"{"bench": "compress", "at_cycles": []}"#,
            r#"{"bench": "compress", "rate": 0.1, "targets": []}"#,
            r#"{"bench": "compress", "rate": 0.1, "targets": ["bogus"]}"#,
            r#"{"bench": "compress", "rate": "high"}"#,
            r#"{"bench": "compress", "rate": 0.1, "seed": -1}"#,
        ] {
            let msg = usage(JobKind::Sim, body);
            assert_eq!(msg.lines().count(), 1, "{body}: {msg}");
        }
        // The trace fields belong to sim and follow the one rule in
        // `trace::trace_options`.
        for (body, reason) in [
            (r#"{"bench": "compress", "events": "zap"}"#, "events"),
            (
                r#"{"bench": "compress", "timeline": true, "interval": 0}"#,
                "interval",
            ),
            (r#"{"bench": "compress", "interval": 500}"#, "interval"),
            (r#"{"bench": "compress", "limit": 1000001}"#, "cap"),
            (r#"{"bench": "compress", "limit": -1}"#, "limit"),
        ] {
            let msg = usage(JobKind::Sim, body);
            assert!(msg.contains(reason), "{body}: {msg}");
            assert_eq!(msg.lines().count(), 1, "{body}: {msg}");
        }
        assert!(
            usage(JobKind::Compare, r#"{"bench": "compress", "limit": 5}"#)
                .contains("unknown field")
        );
    }

    #[test]
    fn fault_fields_share_a_canonical_cache_key() {
        let job = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "at_cycles": [30, 10, 10, 20], "targets": ["ras", "bias", "ras"]}"#,
        )
        .unwrap();
        assert_eq!(job.preset, "baseline");
        assert_eq!(job.fault.as_ref().unwrap().cycles, [10, 20, 30]);
        let same = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "seed": 1, "at_cycles": [20, 30, 10], "targets": ["bias", "ras"]}"#,
        )
        .unwrap();
        assert_eq!(job.cache_key(), same.cache_key(), "the seed defaults to 1");
        let plain = parse(JobKind::Sim, r#"{"bench": "compress"}"#).unwrap();
        assert!(plain.fault.is_none());
        assert_eq!(
            plain.cache_key(),
            "sim|bench=compress|preset=baseline|insts=200000|perfect=0|timeline=0|plan=0",
            "a fault-free request keeps its key"
        );
        assert_ne!(job.cache_key(), plain.cache_key());
    }

    #[test]
    fn cache_keys_separate_kinds_and_fields() {
        let sim = parse(JobKind::Sim, r#"{"bench": "compress"}"#).unwrap();
        let cmp = parse(JobKind::Compare, r#"{"bench": "compress"}"#).unwrap();
        assert_ne!(sim.cache_key(), cmp.cache_key());
        let t1 = parse(JobKind::Sim, r#"{"bench": "compress", "events": "tc"}"#).unwrap();
        let t2 = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "events": "promote"}"#,
        )
        .unwrap();
        assert!(t1.chrome_trace && t1.trace.is_some());
        assert_ne!(t1.cache_key(), t2.cache_key());
        assert_ne!(t1.cache_key(), sim.cache_key());
        assert_eq!(t1.key_hash().len(), 16);
        // A filter is keyed by the kinds it passes, however it is spelled.
        let t3 = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "events": "tc_hit,tc_miss,tc_fill"}"#,
        )
        .unwrap();
        assert_eq!(t1.cache_key(), t3.cache_key());

        // A timeline at the default interval keeps its key; another
        // interval, or a trace, gets its own.
        let timeline = parse(JobKind::Sim, r#"{"bench": "compress", "timeline": true}"#).unwrap();
        assert_eq!(
            timeline.cache_key(),
            "sim|bench=compress|preset=baseline|insts=200000|perfect=0|timeline=1|plan=0"
        );
        assert!(!timeline.chrome_trace);
        let narrow = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "timeline": true, "interval": 500}"#,
        )
        .unwrap();
        assert_ne!(timeline.cache_key(), narrow.cache_key());
        let traced = parse(
            JobKind::Sim,
            r#"{"bench": "compress", "timeline": true, "limit": 0, "events": ""}"#,
        )
        .unwrap();
        assert_ne!(timeline.cache_key(), traced.cache_key());
    }

    #[test]
    fn error_bodies_are_well_formed_json() {
        let body = error_body(503, "queue is full");
        crate::harness::parse::parse_json(&body).unwrap();
        assert!(body.contains("\"queue is full\""));
        assert!(body.contains("503"));
    }
}
