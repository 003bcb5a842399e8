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

use tc_fault::{FaultLocus, FaultPlan};
use tc_trace::EventFilter;
use tc_workloads::WorkloadId;

use crate::harness::error::TwError;
use crate::harness::parse::{parse_json, Value};
use crate::harness::registry;
use crate::harness::trace::{DEFAULT_TRACE_INTERVAL, DEFAULT_TRACE_LIMIT};

/// Schema tag carried by every response body.
pub const WIRE_SCHEMA: &str = "tw-serve/v1";

/// The five job endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One benchmark under one preset (`POST /v1/sim`).
    Sim,
    /// One benchmark across the standard five presets
    /// (`POST /v1/compare`).
    Compare,
    /// One benchmark with fault injection (`POST /v1/faults`).
    Faults,
    /// One traced run, exported as Chrome `trace_event` JSON
    /// (`POST /v1/trace`).
    Trace,
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
            JobKind::Faults => "faults",
            JobKind::Trace => "trace",
            JobKind::Analyze => "analyze",
        }
    }
}

/// Fault-injection parameters (the `faults` job).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// RNG seed for the injection schedule.
    pub seed: u64,
    /// Per-cycle injection probability (`rate` XOR `at_cycles`).
    pub rate: Option<f64>,
    /// Explicit injection cycles.
    pub at_cycles: Vec<u64>,
    /// Target loci, canonical names, sorted; empty means all.
    pub targets: Vec<&'static str>,
}

impl FaultSpec {
    /// Builds the corresponding [`FaultPlan`].
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        let plan = match self.rate {
            Some(rate) => FaultPlan::with_rate(self.seed, rate),
            None => FaultPlan::at_cycles(self.seed, self.at_cycles.clone()),
        };
        let loci: Vec<FaultLocus> = self
            .targets
            .iter()
            .filter_map(|name| FaultLocus::parse(name).ok())
            .collect();
        plan.targeting(&loci)
    }
}

/// Trace-instrumentation parameters (the `trace` job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Canonicalized event-filter spec (`all` when unset).
    pub events: String,
    /// Timeline window width in cycles.
    pub interval: u64,
    /// Ring-buffer capacity in events.
    pub limit: usize,
}

impl TraceSpec {
    /// Parses the stored filter spec (validated at request-parse time,
    /// so this cannot fail afterwards).
    #[must_use]
    pub fn filter(&self) -> EventFilter {
        EventFilter::parse(&self.events).unwrap_or_default()
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
    /// Auto-build and apply a promotion plan (`sim` only).
    pub auto_plan: bool,
    /// Fault parameters (`faults` only).
    pub fault: Option<FaultSpec>,
    /// Trace parameters (`trace` only).
    pub trace: Option<TraceSpec>,
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
        JobKind::Sim => &["preset", "perfect", "timeline", "plan"],
        JobKind::Compare => &["perfect"],
        JobKind::Faults => &["preset", "seed", "rate", "at_cycles", "targets"],
        JobKind::Trace => &["preset", "events", "interval", "limit"],
        JobKind::Analyze => &[],
    }
}

fn find_bench(name: &str) -> Option<WorkloadId> {
    WorkloadId::all()
        .into_iter()
        .find(|b| b.name() == name || b.short_name() == name)
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
    let bench = find_bench(bench_name).ok_or_else(|| {
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

    // Presets: `compare` pins the standard five; `faults` defaults to
    // the paper's headline machine; everything else to `baseline`.
    let preset = match doc.get("preset") {
        None if kind == JobKind::Faults => "headline",
        None => "baseline",
        Some(v) => {
            let name = want_str("preset", v)?;
            registry::preset(name)
                .ok_or_else(|| bad(format!("unknown preset {name:?} (see GET /v1/presets)")))?
                .name
        }
    };
    let preset = registry::preset(preset).map_or(preset, |p| p.name);

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

    let fault = if kind == JobKind::Faults {
        let seed = match doc.get("seed") {
            None => 0xA5,
            Some(v) => want_u64("seed", v)?,
        };
        let rate = match doc.get("rate") {
            None => None,
            Some(v) => {
                let r = v
                    .as_f64()
                    .ok_or_else(|| bad("field \"rate\": expected a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(bad(format!("field \"rate\": {r} is outside 0..=1")));
                }
                Some(r)
            }
        };
        let at_cycles = match doc.get("at_cycles") {
            None => Vec::new(),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| bad("field \"at_cycles\": expected an array of cycles"))?;
                let mut cycles = Vec::with_capacity(items.len());
                for item in items {
                    cycles.push(want_u64("at_cycles", item)?);
                }
                cycles.sort_unstable();
                cycles.dedup();
                cycles
            }
        };
        match (rate.is_some(), at_cycles.is_empty()) {
            (true, false) => {
                return Err(bad(
                    "fields \"rate\" and \"at_cycles\" are mutually exclusive",
                ))
            }
            (false, true) => return Err(bad("faults: need \"rate\" or \"at_cycles\"")),
            _ => {}
        }
        let targets = match doc.get("targets") {
            None => Vec::new(),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| bad("field \"targets\": expected an array of locus names"))?;
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    let token = want_str("targets", item)?;
                    let locus = FaultLocus::parse(token).map_err(bad)?;
                    names.push(locus.name());
                }
                names.sort_unstable();
                names.dedup();
                names
            }
        };
        Some(FaultSpec {
            seed,
            rate,
            at_cycles,
            targets,
        })
    } else {
        None
    };

    let trace = if kind == JobKind::Trace {
        let events = match doc.get("events") {
            None => "all".to_string(),
            Some(v) => {
                let spec = want_str("events", v)?;
                EventFilter::parse(spec).map_err(|e| bad(format!("field \"events\": {e}")))?;
                spec.to_string()
            }
        };
        let interval = match doc.get("interval") {
            None => DEFAULT_TRACE_INTERVAL,
            Some(v) => {
                let n = want_u64("interval", v)?;
                if n == 0 {
                    return Err(bad("field \"interval\": must be at least 1 cycle"));
                }
                n
            }
        };
        let limit = match doc.get("limit") {
            None => DEFAULT_TRACE_LIMIT,
            Some(v) => {
                let n = want_u64("limit", v)?;
                usize::try_from(n.min(1_000_000))
                    .map_err(|_| bad("field \"limit\": does not fit this platform"))?
            }
        };
        Some(TraceSpec {
            events,
            interval,
            limit,
        })
    } else {
        None
    };

    Ok(JobSpec {
        kind,
        bench,
        preset,
        insts,
        perfect,
        timeline,
        auto_plan,
        fault,
        trace,
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
        if let Some(fault) = &self.fault {
            let _ = write!(key, "|seed={}", fault.seed);
            match fault.rate {
                Some(rate) => {
                    // Bit-exact: two rates hash alike iff they are the
                    // same f64.
                    let _ = write!(key, "|rate={:016x}", rate.to_bits());
                }
                None => {
                    let _ = write!(key, "|cycles=");
                    for (i, c) in fault.at_cycles.iter().enumerate() {
                        let _ = write!(key, "{}{c}", if i > 0 { "," } else { "" });
                    }
                }
            }
            let _ = write!(key, "|targets={}", fault.targets.join(","));
        }
        if let Some(trace) = &self.trace {
            let _ = write!(
                key,
                "|events={}|interval={}|limit={}",
                trace.events, trace.interval, trace.limit
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
        assert!(usage(JobKind::Faults, r#"{"bench": "compress"}"#).contains("rate"));
        assert!(usage(
            JobKind::Faults,
            r#"{"bench": "compress", "rate": 0.5, "at_cycles": [1]}"#
        )
        .contains("mutually exclusive"));
        assert!(
            usage(JobKind::Faults, r#"{"bench": "compress", "rate": 1.5}"#)
                .contains("outside 0..=1")
        );
        assert!(usage(
            JobKind::Faults,
            r#"{"bench": "compress", "rate": 0.1, "targets": ["bogus"]}"#
        )
        .contains("bogus"));
        assert!(
            usage(JobKind::Trace, r#"{"bench": "compress", "events": "zap"}"#).contains("events")
        );
        assert!(
            usage(JobKind::Trace, r#"{"bench": "compress", "interval": 0}"#).contains("interval")
        );
    }

    #[test]
    fn fault_spec_canonicalizes_targets_and_cycles() {
        let job = parse(
            JobKind::Faults,
            r#"{"bench": "compress", "at_cycles": [30, 10, 10, 20], "targets": ["ras", "bias", "ras"]}"#,
        )
        .unwrap();
        let fault = job.fault.as_ref().unwrap();
        assert_eq!(fault.at_cycles, [10, 20, 30]);
        assert_eq!(fault.targets.len(), 2);
        assert_eq!(
            job.preset, "headline",
            "faults default to the headline machine"
        );
        let plan = fault.plan();
        assert_eq!(plan.cycles, [10, 20, 30]);
    }

    #[test]
    fn cache_keys_separate_kinds_and_fields() {
        let sim = parse(JobKind::Sim, r#"{"bench": "compress"}"#).unwrap();
        let cmp = parse(JobKind::Compare, r#"{"bench": "compress"}"#).unwrap();
        assert_ne!(sim.cache_key(), cmp.cache_key());
        let t1 = parse(JobKind::Trace, r#"{"bench": "compress", "events": "tc"}"#).unwrap();
        let t2 = parse(
            JobKind::Trace,
            r#"{"bench": "compress", "events": "promote"}"#,
        )
        .unwrap();
        assert_ne!(t1.cache_key(), t2.cache_key());
        assert_eq!(t1.key_hash().len(), 16);
    }

    #[test]
    fn error_bodies_are_well_formed_json() {
        let body = error_body(503, "queue is full");
        crate::harness::parse::parse_json(&body).unwrap();
        assert!(body.contains("\"queue is full\""));
        assert!(body.contains("503"));
    }
}
