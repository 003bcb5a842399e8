//! `tw serve` integration tests: the daemon under concurrent load.
//!
//! The headline invariant is the ISSUE's acceptance bar — hundreds of
//! simultaneous requests, a mix of identical, distinct, and malformed
//! bodies, and the server must (a) never panic, (b) answer every
//! request with the right status code, (c) run each distinct cache key
//! **exactly once** (single-flight), (d) hand every requester of one
//! key bit-identical bytes, and (e) drain cleanly on shutdown.

use std::net::SocketAddr;
use std::sync::Arc;

use tc_sim::harness::parse_json;
use tc_sim::harness::serve::{http_request, raw_request, ServeConfig, Server};

/// Reads `cache.computed` out of a `/v1/stats` body.
fn computed_count(stats_body: &str) -> u64 {
    parse_json(stats_body)
        .expect("stats body parses")
        .get("cache")
        .and_then(|c| c.get("computed"))
        .and_then(|v| v.as_u64())
        .expect("stats carries cache.computed")
}

/// Small budgets keep each simulation job ~milliseconds.
const TEST_INSTS: &str = "20000";

fn start(
    config: ServeConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<tc_sim::harness::ServeSummary>,
) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("query bound address");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        queue_depth: 4096,
        max_conns: 4096,
        ..ServeConfig::default()
    }
}

fn shutdown(addr: SocketAddr) {
    let resp = http_request(addr, "POST", "/v1/shutdown", "").expect("shutdown request");
    assert_eq!(resp.status, 200, "{}", resp.body);
}

fn sim_body(bench: &str) -> String {
    format!(r#"{{"bench": "{bench}", "preset": "baseline", "insts": {TEST_INSTS}}}"#)
}

#[test]
fn health_discovery_and_unknown_routes() {
    let (addr, handle) = start(test_config());

    let health = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\": true") || health.body.contains("\"ok\":true"));

    let presets = http_request(addr, "GET", "/v1/presets", "").unwrap();
    assert_eq!(presets.status, 200);
    assert!(presets.body.contains("promo-pack"), "{}", presets.body);

    let workloads = http_request(addr, "GET", "/v1/workloads", "").unwrap();
    assert!(workloads.body.contains("compress"), "{}", workloads.body);

    let missing = http_request(addr, "GET", "/v1/nope", "").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("error"), "{}", missing.body);

    let wrong_method = http_request(addr, "GET", "/v1/sim", "").unwrap();
    assert_eq!(wrong_method.status, 405);

    // Raw protocol garbage gets a 400, not a dropped process.
    let garbage = raw_request(addr, b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");

    shutdown(addr);
    let summary = handle.join().expect("server thread must not panic");
    assert_eq!(summary.job_panics, 0);
}

#[test]
fn sim_responses_are_cached_by_content_address() {
    let (addr, handle) = start(test_config());
    let body = sim_body("compress");

    let first = http_request(addr, "POST", "/v1/sim", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert!(first.body.contains("\"report\""), "{}", first.body);

    let second = http_request(addr, "POST", "/v1/sim", &body).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hits are bit-identical");
    assert_eq!(first.header("x-key"), second.header("x-key"));

    // An alias resolves to the same content address.
    let alias = format!(r#"{{"bench": "compress", "preset": "tc", "insts": {TEST_INSTS}}}"#);
    let third = http_request(addr, "POST", "/v1/sim", &alias).unwrap();
    assert_eq!(
        third.header("x-cache"),
        Some("hit"),
        "alias shares the entry"
    );
    assert_eq!(first.body, third.body);

    let stats = http_request(addr, "GET", "/v1/stats", "").unwrap();
    assert_eq!(computed_count(&stats.body), 1, "{}", stats.body);

    shutdown(addr);
    assert_eq!(handle.join().unwrap().job_panics, 0);
}

/// The compiled `rv/` family is a first-class serve citizen: it shows
/// up in workload discovery with its family tag, and a sim job on an
/// RV workload goes through the result cache like a synthetic one.
#[test]
fn rv_workloads_are_served_and_cached() {
    let (addr, handle) = start(test_config());

    let workloads = http_request(addr, "GET", "/v1/workloads", "").unwrap();
    assert_eq!(workloads.status, 200);
    let listing = parse_json(&workloads.body).expect("workloads body parses");
    let entries = listing
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads array");
    let family_of = |name: &str| {
        entries
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .and_then(|e| e.get("family"))
            .and_then(|f| f.as_str())
            .map(str::to_owned)
    };
    assert_eq!(family_of("compress").as_deref(), Some("synthetic"));
    assert_eq!(family_of("rv/crc").as_deref(), Some("rv32i"));

    let body = sim_body("rv/crc");
    let first = http_request(addr, "POST", "/v1/sim", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert!(
        first.body.contains("\"benchmark\":\"rv/crc\""),
        "{}",
        first.body
    );

    let second = http_request(addr, "POST", "/v1/sim", &body).unwrap();
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hits are bit-identical");

    // The short name is an alias onto the same content address.
    let alias = format!(r#"{{"bench": "crc", "preset": "baseline", "insts": {TEST_INSTS}}}"#);
    let third = http_request(addr, "POST", "/v1/sim", &alias).unwrap();
    assert_eq!(third.header("x-cache"), Some("hit"), "{}", third.body);

    let stats = http_request(addr, "GET", "/v1/stats", "").unwrap();
    assert_eq!(computed_count(&stats.body), 1, "{}", stats.body);

    shutdown(addr);
    assert_eq!(handle.join().unwrap().job_panics, 0);
}

#[test]
fn malformed_jobs_answer_400_without_disturbing_the_daemon() {
    let (addr, handle) = start(test_config());
    let post = |body: &str| http_request(addr, "POST", "/v1/sim", body).unwrap();

    assert_eq!(post("").status, 400);
    assert_eq!(post("not json at all").status, 400);
    assert_eq!(
        post(r#"{"bench": "compress", "preset": "zap"}"#).status,
        400
    );
    assert_eq!(post(r#"{"bench": "compress", "bogus": 1}"#).status, 400);
    assert_eq!(post(r#"{"bench": "compress", "insts": 1e30}"#).status, 400);
    // The depth bomb that would overflow a naive recursive parser.
    let bomb = "[".repeat(50_000);
    assert_eq!(post(&bomb).status, 400);
    // An oversized body sheds with 413 before any parsing.
    let huge = format!(r#"{{"bench": "{}"}}"#, "x".repeat(2 * 1024 * 1024));
    assert_eq!(post(&huge).status, 413);

    // The daemon is still perfectly healthy.
    let ok = post(&sim_body("compress"));
    assert_eq!(ok.status, 200, "{}", ok.body);

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.job_panics, 0);
    assert!(summary.client_errors >= 7, "{summary:?}");
}

#[test]
fn every_job_kind_round_trips() {
    let (addr, handle) = start(test_config());
    let post = |path: &str, body: String| {
        let resp = http_request(addr, "POST", path, &body).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.body);
        resp
    };

    let sim = post("/v1/sim", sim_body("compress"));
    let kind = parse_json(&sim.body)
        .expect("sim body parses")
        .get("kind")
        .and_then(|v| v.as_str().map(str::to_string));
    assert_eq!(kind.as_deref(), Some("sim"), "{}", sim.body);

    let timeline = post(
        "/v1/sim",
        format!(
            r#"{{"bench": "compress", "preset": "baseline", "insts": {TEST_INSTS}, "timeline": true}}"#
        ),
    );
    assert!(timeline.body.contains("\"timeline\""), "{}", timeline.body);

    let compare = post(
        "/v1/compare",
        format!(r#"{{"bench": "li", "insts": {TEST_INSTS}}}"#),
    );
    assert!(compare.body.contains("\"configs\""), "{}", compare.body);
    assert!(compare.body.contains("promo-pack"), "{}", compare.body);

    let faults = post(
        "/v1/sim",
        format!(r#"{{"bench": "compress", "rate": 0.001, "insts": {TEST_INSTS}}}"#),
    );
    assert!(faults.body.contains("\"injected\""), "{}", faults.body);

    let trace = post(
        "/v1/trace",
        format!(r#"{{"bench": "compress", "preset": "baseline", "insts": {TEST_INSTS}}}"#),
    );
    assert!(trace.body.contains("\"chrome_trace\""), "{}", trace.body);
    assert!(trace.body.contains("traceEvents"), "{}", trace.body);

    let analyze = post(
        "/v1/analyze",
        format!(r#"{{"bench": "compress", "insts": {TEST_INSTS}}}"#),
    );
    assert!(analyze.body.contains("tw-plan/v1"), "{}", analyze.body);

    shutdown(addr);
    assert_eq!(handle.join().unwrap().job_panics, 0);
}

/// A fault campaign is a `sim` job: the fault fields on `/v1/sim`
/// reproduce the fault golden (captured from the former `tw faults`),
/// the seed defaults to 1 as on the command line, the fields follow the
/// CLI's rule, and `/v1/faults` is gone.
#[test]
fn fault_campaigns_are_sim_jobs() {
    let (addr, handle) = start(test_config());
    let post = |body: &str| http_request(addr, "POST", "/v1/sim", body).unwrap();
    let report = |body: &str| {
        let resp = post(body);
        assert_eq!(resp.status, 200, "{body}: {}", resp.body);
        parse_json(&resp.body)
            .expect("sim body parses")
            .get("report")
            .expect("sim body carries a report")
            .clone()
    };

    let spec = r#""bench": "compress", "preset": "headline", "insts": 100000, "rate": 0.01"#;
    let seeded = report(&format!(r#"{{{spec}, "seed": 1}}"#));
    let golden = include_str!("golden/compress-headline-faults-100k.json");
    assert_eq!(
        seeded,
        parse_json(golden).unwrap(),
        "differs from the golden"
    );
    assert_eq!(
        report(&format!("{{{spec}}}")),
        seeded,
        "the seed defaults to 1"
    );

    for (body, reason) in [
        (r#"{"bench": "compress", "seed": 1}"#, "needs a fault rate"),
        (r#"{"bench": "compress", "rate": 0}"#, "outside (0, 1]"),
        (r#"{"bench": "compress", "rate": 1.5}"#, "outside (0, 1]"),
        (
            r#"{"bench": "compress", "rate": 0.1, "targets": []}"#,
            "empty fault target list",
        ),
    ] {
        let resp = post(body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        let error = parse_json(&resp.body)
            .ok()
            .and_then(|v| v.get("error").and_then(|e| e.as_str().map(str::to_string)))
            .unwrap_or_default();
        assert!(error.contains(reason), "{body}: {}", resp.body);
        assert_eq!(error.lines().count(), 1, "{body}: {error}");
    }

    let gone = http_request(
        addr,
        "POST",
        "/v1/faults",
        r#"{"bench": "compress", "rate": 0.01}"#,
    )
    .unwrap();
    assert_eq!(gone.status, 404, "{}", gone.body);

    shutdown(addr);
    assert_eq!(handle.join().unwrap().job_panics, 0);
}

/// The acceptance-criteria hammer: hundreds of concurrent requests —
/// identical, distinct, and malformed — against one daemon.
#[test]
fn concurrent_hammer_single_flight_and_bit_identical() {
    let (addr, handle) = start(test_config());

    // 8 distinct keys (4 benches x 2 presets), hit by many threads
    // each, interleaved with malformed bodies.
    let benches = ["compress", "li", "go", "perl"];
    let presets = ["baseline", "promo-pack"];
    let threads = 120;
    let mut joins = Vec::new();
    for t in 0..threads {
        joins.push(std::thread::spawn(move || {
            if t % 6 == 5 {
                // Malformed traffic mixed into the storm.
                let resp = http_request(
                    addr,
                    "POST",
                    "/v1/sim",
                    r#"{"bench": "compress", "zap": 1}"#,
                )
                .expect("malformed request still gets a response");
                assert_eq!(resp.status, 400);
                return None;
            }
            let bench = benches[t % benches.len()];
            let preset = presets[(t / benches.len()) % presets.len()];
            let body =
                format!(r#"{{"bench": "{bench}", "preset": "{preset}", "insts": {TEST_INSTS}}}"#);
            let resp = http_request(addr, "POST", "/v1/sim", &body).expect("sim request");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let disposition = resp.header("x-cache").expect("x-cache header").to_string();
            assert!(
                ["hit", "miss", "join"].contains(&disposition.as_str()),
                "unexpected disposition {disposition}"
            );
            Some((format!("{bench}|{preset}"), resp.body))
        }));
    }

    let mut bodies: std::collections::HashMap<String, Arc<String>> =
        std::collections::HashMap::new();
    let mut ok_responses = 0;
    for join in joins {
        let Some((key, body)) = join.join().expect("no client thread panicked") else {
            continue;
        };
        ok_responses += 1;
        match bodies.get(&key) {
            None => {
                bodies.insert(key, Arc::new(body));
            }
            Some(prior) => assert_eq!(
                **prior, body,
                "every response for one key must be bit-identical"
            ),
        }
    }
    assert_eq!(bodies.len(), benches.len() * presets.len());
    assert_eq!(ok_responses, threads - threads / 6);

    // Single-flight: exactly one computation per distinct key.
    let stats = http_request(addr, "GET", "/v1/stats", "").unwrap();
    assert_eq!(
        computed_count(&stats.body),
        bodies.len() as u64,
        "single computation per distinct key: {}",
        stats.body
    );

    shutdown(addr);
    let summary = handle.join().expect("server thread must not panic");
    assert_eq!(summary.job_panics, 0);
    assert_eq!(summary.server_errors, 0, "{summary:?}");
}

#[test]
fn queue_overflow_sheds_with_503_and_recovers() {
    // One worker and a one-deep queue: with several long jobs in
    // flight, later distinct jobs must shed with 503 rather than
    // queueing unboundedly.
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        max_conns: 4096,
        ..ServeConfig::default()
    });

    let mut joins = Vec::new();
    for t in 0..24 {
        joins.push(std::thread::spawn(move || {
            // Distinct keys (distinct insts), so nothing coalesces;
            // budgets large enough that jobs overlap the burst.
            let body = format!(
                r#"{{"bench": "compress", "preset": "baseline", "insts": {}}}"#,
                100_000 + t
            );
            http_request(addr, "POST", "/v1/sim", &body)
                .expect("request gets an answer")
                .status
        }));
    }
    let statuses: Vec<u16> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 503),
        "only 200 and 503 are acceptable: {statuses:?}"
    );
    assert!(statuses.contains(&200), "some jobs completed");
    assert!(
        statuses.contains(&503),
        "a one-deep queue under 24 distinct jobs must shed: {statuses:?}"
    );

    // After the burst drains, the daemon accepts work again.
    let after = http_request(addr, "POST", "/v1/sim", &sim_body("compress")).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);

    shutdown(addr);
    assert_eq!(handle.join().unwrap().job_panics, 0);
}

#[test]
fn shutdown_drains_open_work_and_refuses_new_jobs() {
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        queue_depth: 4096,
        max_conns: 4096,
        ..ServeConfig::default()
    });

    // Launch a wave of jobs, then shut down while they are in flight.
    let mut joins = Vec::new();
    for t in 0..16 {
        joins.push(std::thread::spawn(move || {
            let body = format!(
                r#"{{"bench": "li", "preset": "baseline", "insts": {}}}"#,
                30_000 + t
            );
            http_request(addr, "POST", "/v1/sim", &body).map(|r| r.status)
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(30));
    shutdown(addr);

    // In-flight work drains to completion (200) or was refused at the
    // drain gate (503); nothing hangs, nothing panics.
    for join in joins {
        if let Ok(status) = join.join().expect("client thread") {
            assert!(status == 200 || status == 503, "got {status}");
        }
    }
    let summary = handle.join().expect("clean exit");
    assert_eq!(summary.job_panics, 0);
}
