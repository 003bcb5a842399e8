//! The `serve` workload: an in-process `Server` driven as a closed loop
//! by one client over a seeded request mix, plus the serve-layer probe
//! the traced simulation workloads run over their own programs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tc_sim::harness::serve::{http_request, ServeConfig, ServeSummary, Server};
use tc_sim::harness::{parse_json, presets, Value};
use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
use tc_workloads::WorkloadId;

use crate::host::{self, HostSpeed};
use crate::report::Report;
use crate::sim::{preset, timed_setups, Region, SimTotals, FIXED_SEED, SAMPLE};
use crate::spans::Spans;
use crate::stats::{fnv1a, ratio, Summary};
use crate::{replay, Options};

/// Daemon worker threads. The one client keeps at most one of them
/// busy: on the 2-vCPU reference host, two busy threads measured how the
/// host scheduled its two CPUs (each thread at a quarter of its speed
/// alone, at times), not the daemon.
const WORKERS: usize = 2;
/// Hot keys, requested with Zipf (s = 1) popularity.
const HOT_KEYS: usize = 32;
/// Set-ups per run (each binds a daemon and computes every hot key).
const SETUPS: usize = 9;
/// Blocks of `BLOCK` per timed batch: 500 requests, with one compare
/// per program.
const BATCH_BLOCKS: usize = 25;
/// Fresh `sim` and `compare` jobs per batch, one per shape.
const FRESH_SHAPES: usize = 4 * BATCH_BLOCKS;
const COMPARE_SHAPES: usize = BATCH_BLOCKS;
/// Requests between two calibration readings inside a batch.
const CALIB_EVERY: usize = 100;
/// Slowest acceptable reply.
const DEADLINE: Duration = Duration::from_secs(10);
/// Instructions per job of the serve-layer probe.
const PROBE_INSTS: u64 = 20_000;
/// A fetch may overshoot a run's budget by less than its width.
const MAX_OVERSHOOT: u64 = 16;

/// Request bodies the daemon must reject with 400.
const MALFORMED: [&str; 6] = [
    r#"{"bench":"gcc","insts":0}"#,
    r#"{"bench":"no-such-program"}"#,
    r#"{"bench":"gcc","preset":"headline","bogus":1}"#,
    "not json",
    r#"{"insts":5000}"#,
    "[1,2,3]",
];

/// What a request is, and so which answer it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot(usize),
    Fresh,
    Compare,
    Malformed,
}

#[derive(Debug, Clone)]
struct Job {
    kind: Kind,
    path: &'static str,
    body: String,
    /// Instructions simulated if the daemon computes the job.
    insts: u64,
}

fn sim_body(bench: &str, preset: &str, insts: u64) -> String {
    format!(r#"{{"bench":"{bench}","preset":"{preset}","insts":{insts}}}"#)
}

fn compare_body(bench: &str, insts: u64) -> String {
    format!(r#"{{"bench":"{bench}","insts":{insts}}}"#)
}

/// A popular `sim` job: one program under one preset.
struct HotKey {
    id: WorkloadId,
    preset: &'static str,
    insts: u64,
    job: Job,
}

/// A fresh job's program, preset and instruction count, repeated once
/// per batch with a count of its own each time.
#[derive(Debug, Clone, Copy)]
struct Shape {
    program: usize,
    preset: usize,
    /// A multiple of the mix's unit; see `insts`.
    base: u64,
}

impl Shape {
    /// The shape's count in batch `batch`: odd, so never a multiple of
    /// the (even) unit like a hot key's, and below the next multiple of
    /// the unit while `batch < Mix::max_batches`, so no two batches
    /// share a key.
    fn insts(&self, batch: u64) -> u64 {
        self.base + 1 + 2 * batch
    }
}

/// The seeded request mix. Every batch asks for the same fresh shapes,
/// so each batch computes the same amount of work. The shapes rotate
/// through programs and presets together, so that any seed's shapes run
/// every program four times and every preset 16 or 17 times, with
/// counts stepping evenly through [20k, 60k), and compare every program
/// once: the seed picks the rotation phase, the hot keys and the request
/// order, and barely moves the work a batch does.
struct Mix {
    programs: Vec<&'static str>,
    presets: Vec<&'static str>,
    hot: Vec<HotKey>,
    /// Cumulative Zipf weights over the hot keys.
    zipf: Vec<f64>,
    fresh: Vec<Shape>,
    compares: Vec<Shape>,
    /// Every count is a multiple of this, or one plus a step: 1000, or
    /// 1000 / `--div` when a smoke run shrinks the jobs (always even).
    unit: u64,
}

impl Mix {
    fn new(seed: u64, div: u64) -> Mix {
        let unit = (1000 / div).max(2) & !1;
        let ids = WorkloadId::all();
        let programs: Vec<&'static str> = ids.iter().map(|id| id.name()).collect();
        let presets: Vec<&'static str> = presets().iter().map(|p| p.name).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ fnv1a(b"serve"));
        let phase = rng.gen_range(0..programs.len() * presets.len());
        let hot = (0..HOT_KEYS)
            .map(|k| {
                let id = ids[(k * 7 + phase) % ids.len()];
                let preset = presets[(k + phase) % presets.len()];
                // Multiples of the unit never collide with fresh keys.
                let insts = unit * rng.gen_range(20..60u64);
                let job = Job {
                    kind: Kind::Hot(k),
                    path: "/v1/sim",
                    body: sim_body(id.name(), preset, insts),
                    insts,
                };
                HotKey {
                    id,
                    preset,
                    insts,
                    job,
                }
            })
            .collect();
        let mut total = 0.0;
        let zipf = (1..=HOT_KEYS)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        // Consecutive slots give distinct (program, preset) pairs, since
        // the counts (25 and 6) are coprime.
        let fresh = (0..FRESH_SHAPES)
            .map(|j| Shape {
                program: (phase + j) % programs.len(),
                preset: (phase + j) % presets.len(),
                base: unit * (20 + (j % 40) as u64),
            })
            .collect();
        let compares = (0..COMPARE_SHAPES)
            .map(|j| Shape {
                program: (phase + j) % programs.len(),
                preset: 0,
                base: unit * (20 + (j * 40 / COMPARE_SHAPES) as u64),
            })
            .collect();
        Mix {
            programs,
            presets,
            hot,
            zipf,
            fresh,
            compares,
            unit,
        }
    }

    /// Batches a run may send before fresh counts would repeat.
    fn max_batches(&self) -> u64 {
        self.unit / 2
    }
}

/// Requests of each kind in every block of 20: the mix's 70/20/5/5
/// split. The client shuffles each block with its generator, so any
/// stretch of its requests has the mix's composition and the seed sets
/// the order. The hot key is drawn per request.
const BLOCK: [(usize, Kind); 4] = [
    (14, Kind::Hot(0)),
    (4, Kind::Fresh),
    (1, Kind::Compare),
    (1, Kind::Malformed),
];

/// The client's deterministic request sequence.
struct ClientGen<'m> {
    mix: &'m Mix,
    rng: Xoshiro256PlusPlus,
}

impl<'m> ClientGen<'m> {
    fn new(mix: &'m Mix, seed: u64) -> ClientGen<'m> {
        ClientGen {
            mix,
            rng: Xoshiro256PlusPlus::seed_from_u64(seed ^ fnv1a(b"client")),
        }
    }

    /// Batch `batch`: `BATCH_BLOCKS` blocks, each shuffled
    /// (Fisher–Yates), asking for every fresh and compare shape once.
    fn batch(&mut self, batch: u64) -> Vec<Job> {
        let mix = self.mix;
        let (mut fresh, mut compares) = (mix.fresh.iter(), mix.compares.iter());
        let mut jobs = Vec::with_capacity(20 * BATCH_BLOCKS);
        for _ in 0..BATCH_BLOCKS {
            let mut block: Vec<Kind> = BLOCK
                .iter()
                .flat_map(|&(n, kind)| std::iter::repeat_n(kind, n))
                .collect();
            for i in (1..block.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                block.swap(i, j);
            }
            for kind in block {
                let job = match kind {
                    Kind::Hot(_) => {
                        let total = mix.zipf[HOT_KEYS - 1];
                        let u = self.rng.gen_f64() * total;
                        let k = mix.zipf.partition_point(|&c| c <= u).min(HOT_KEYS - 1);
                        mix.hot[k].job.clone()
                    }
                    Kind::Fresh => {
                        let shape = fresh.next().expect("one fresh shape per fresh slot");
                        let insts = shape.insts(batch);
                        Job {
                            kind,
                            path: "/v1/sim",
                            body: sim_body(
                                mix.programs[shape.program],
                                mix.presets[shape.preset],
                                insts,
                            ),
                            insts,
                        }
                    }
                    Kind::Compare => {
                        let shape = compares.next().expect("one compare shape per slot");
                        let insts = shape.insts(batch);
                        Job {
                            kind,
                            path: "/v1/compare",
                            body: compare_body(mix.programs[shape.program], insts),
                            insts: 5 * insts,
                        }
                    }
                    Kind::Malformed => Job {
                        kind,
                        path: "/v1/sim",
                        body: MALFORMED[self.rng.gen_range(0..MALFORMED.len())].to_string(),
                        insts: 0,
                    },
                };
                jobs.push(job);
            }
        }
        jobs
    }
}

/// A daemon running on its own thread. Dropping it shuts it down.
struct Daemon {
    addr: SocketAddr,
    handle: Option<JoinHandle<ServeSummary>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        Ok(Daemon {
            addr,
            handle: Some(std::thread::spawn(move || server.run())),
        })
    }

    /// `/v1/stats` as parsed JSON.
    fn stats(&self) -> Result<Value, String> {
        let r =
            http_request(self.addr, "GET", "/v1/stats", "").map_err(|e| format!("stats: {e}"))?;
        parse_json(&r.body).map_err(|e| format!("stats body: {e}"))
    }

    /// Drains the daemon and returns its summary.
    fn stop(mut self) -> Result<ServeSummary, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<ServeSummary, String> {
        let Some(handle) = self.handle.take() else {
            return Err("daemon already stopped".to_string());
        };
        let sent = http_request(self.addr, "POST", "/v1/shutdown", "");
        let summary = handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        sent.map_err(|e| format!("shutdown: {e}"))?;
        Ok(summary)
    }
}

/// Drains `daemon` and checks that no job panicked.
fn stop_checked(daemon: Daemon, op: &str, out: &mut Report) {
    match daemon.stop() {
        Ok(summary) => out.check(
            op,
            (summary.job_panics > 0).then(|| format!("{} jobs panicked", summary.job_panics)),
        ),
        Err(e) => out.fail(op, &e),
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// One answered request, timed through each phase of the exchange.
struct Reply {
    status: u16,
    cache: String,
    body: String,
    latency_ms: f64,
}

/// POSTs `body` and reads the reply, recording a `request` span with
/// `connect`, `send`, `first_byte` and `body` children.
fn exchange(addr: SocketAddr, path: &str, body: &str, spans: &mut Spans) -> Result<Reply, String> {
    let io = |stage: &str, e: std::io::Error| format!("{stage}: {e}");
    let t0 = spans.now();
    let mut stream = TcpStream::connect_timeout(&addr, DEADLINE).map_err(|e| io("connect", e))?;
    stream
        .set_read_timeout(Some(DEADLINE))
        .map_err(|e| io("connect", e))?;
    stream
        .set_write_timeout(Some(DEADLINE))
        .map_err(|e| io("connect", e))?;
    let t1 = spans.now();
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: twbench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| io("send", e))?;
    let t2 = spans.now();
    let mut raw = vec![0u8; 16 * 1024];
    let first = stream.read(&mut raw).map_err(|e| io("first byte", e))?;
    let t3 = spans.now();
    raw.truncate(first);
    stream.read_to_end(&mut raw).map_err(|e| io("body", e))?;
    let t4 = spans.now();
    let reply = parse_reply(&raw);
    let t5 = spans.now();
    let id = spans.record("request", t0, t5, 0);
    for (name, a, b) in [
        ("connect", t0, t1),
        ("send", t1, t2),
        ("first_byte", t2, t3),
        ("body", t3, t4),
    ] {
        spans.record(name, a, b, id);
    }
    let (status, cache, body) = reply?;
    Ok(Reply {
        status,
        cache,
        body,
        latency_ms: (t5 - t0) as f64 / 1e6,
    })
}

/// Status, `X-Cache` value and decoded body of a raw HTTP/1.1 response.
fn parse_reply(raw: &[u8]) -> Result<(u16, String, String), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("reply has no header end ({} bytes)", raw.len()))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "malformed status line".to_string())?;
    let (mut cache, mut chunked, mut length) = (String::new(), false, None);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "x-cache" => cache = value.to_string(),
            "transfer-encoding" => chunked = value.contains("chunked"),
            "content-length" => length = value.parse::<usize>().ok(),
            _ => {}
        }
    }
    let body = if chunked {
        dechunk(payload)?
    } else {
        match length {
            Some(n) if n == payload.len() => payload.to_string(),
            Some(n) => return Err(format!("body is {} bytes, header says {n}", payload.len())),
            None => payload.to_string(),
        }
    };
    Ok((status, cache, body))
}

fn dechunk(mut payload: &str) -> Result<String, String> {
    let mut body = String::new();
    loop {
        let (size, rest) = payload
            .split_once("\r\n")
            .ok_or_else(|| "truncated chunk header".to_string())?;
        let size =
            usize::from_str_radix(size.trim(), 16).map_err(|_| "bad chunk size".to_string())?;
        if size == 0 {
            return Ok(body);
        }
        let chunk = rest
            .get(..size)
            .ok_or_else(|| "truncated chunk".to_string())?;
        body.push_str(chunk);
        payload = rest
            .get(size + 2..)
            .ok_or_else(|| "truncated chunk end".to_string())?;
    }
}

/// Latency class of an answered request, for the per-layer split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Compare,
    Reject,
    Other,
}

fn class_of(kind: Kind, reply: &Reply) -> Class {
    match (kind, reply.status, reply.cache.as_str()) {
        (_, 400, _) => Class::Reject,
        (Kind::Compare, 200, _) => Class::Compare,
        (_, 200, "hit") => Class::Hit,
        (_, 200, "miss") => Class::Miss,
        _ => Class::Other,
    }
}

struct Sample {
    class: Class,
    latency_ms: f64,
    /// Instructions the daemon simulated for this request (0 when it
    /// answered from its cache or rejected the job).
    computed: u64,
}

/// Why `reply` is the wrong answer to `job`, if it is. `earlier` is the
/// hash of an earlier body for the same key.
fn verify(job: &Job, reply: &Reply, earlier: Option<u64>) -> Option<String> {
    if reply.latency_ms > DEADLINE.as_secs_f64() * 1e3 {
        return Some(format!("reply took {:.0} ms", reply.latency_ms));
    }
    let want = if job.kind == Kind::Malformed {
        400
    } else {
        200
    };
    if reply.status != want {
        return Some(format!("status {} where {want} was due", reply.status));
    }
    if earlier.is_some_and(|h| h != fnv1a(reply.body.as_bytes())) {
        return Some("body differs from the earlier body for this key".to_string());
    }
    if job.kind == Kind::Fresh && reply.cache == "miss" {
        return check_sim_body(&reply.body, job.insts).err();
    }
    None
}

/// Checks a `sim` reply ran its budget; returns its simulated totals.
fn check_sim_body(body: &str, insts: u64) -> Result<SimTotals, String> {
    let doc = parse_json(body).map_err(|e| format!("reply body: {e}"))?;
    let report = doc.get("report").ok_or("reply has no report")?;
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(report, |v, k| v.get(k))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("report has no {}", path.join(".")))
    };
    let ran = field(&["instructions"])?;
    if !(insts..insts + MAX_OVERSHOOT).contains(&ran) {
        return Err(format!("ran {ran} instructions for a budget of {insts}"));
    }
    let mispredicted = field(&["cond_mispredicts"])? + field(&["promoted_faults"])?;
    let promoted = field(&["promoted_executed"])? + field(&["promoted_faults"])?;
    Ok(SimTotals {
        instructions: ran as f64,
        cycles: field(&["cycles"])? as f64,
        correct_fetched: field(&["fetch", "correct_instructions"])? as f64,
        productive_fetches: field(&["fetch", "productive_fetches"])? as f64,
        cond_mispredicted: mispredicted as f64,
        cond_total: (field(&["cond_branches"])? + promoted) as f64,
    })
}

/// What one load-generating client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Requests answered correctly.
    passed: u64,
    failures: Vec<(String, String)>,
}

/// Sends `jobs` one after another, logging each, with a calibration
/// reading every `CALIB_EVERY` requests; returns the seconds spent on
/// requests, each stretch between readings scaled by them to the
/// reference host.
fn run_batch(
    addr: SocketAddr,
    jobs: &[Job],
    hot_hashes: &[u64],
    log: &mut ClientLog,
    speed: &mut HostSpeed,
    spans: &mut Spans,
) -> f64 {
    let mut busy = 0.0;
    for chunk in jobs.chunks(CALIB_EVERY) {
        let t = Instant::now();
        for job in chunk {
            send_job(addr, job, hot_hashes, log, spans);
        }
        busy += t.elapsed().as_secs_f64() / speed.factor();
    }
    busy
}

/// Sends one job and logs its reply.
fn send_job(
    addr: SocketAddr,
    job: &Job,
    hot_hashes: &[u64],
    log: &mut ClientLog,
    spans: &mut Spans,
) {
    let reply = match exchange(addr, job.path, &job.body, spans) {
        Ok(reply) => reply,
        Err(e) => {
            log.failures
                .push((job.path.to_string(), format!("transport: {e}")));
            return;
        }
    };
    let earlier = match job.kind {
        Kind::Hot(k) => Some(hot_hashes[k]),
        _ => None,
    };
    match verify(job, &reply, earlier) {
        Some(reason) => log
            .failures
            .push((format!("{} {}", job.path, job.body), reason)),
        None => log.passed += 1,
    }
    let miss = reply.cache == "miss";
    log.samples.push(Sample {
        class: class_of(job.kind, &reply),
        latency_ms: reply.latency_ms,
        computed: if miss { job.insts } else { 0 },
    });
}

/// Binds a daemon and computes every hot key once; returns the daemon,
/// each hot key's body hash, and the hot keys' simulated totals.
fn serve_setup(mix: &Mix, out: &mut Report) -> Result<(Daemon, Vec<u64>, SimTotals), String> {
    let daemon = Daemon::start()?;
    let mut spans = Spans::new(Instant::now(), false, 0);
    let mut hashes = Vec::with_capacity(HOT_KEYS);
    let mut totals = SimTotals::default();
    for HotKey { job, .. } in &mix.hot {
        let reply = exchange(daemon.addr, job.path, &job.body, &mut spans)?;
        if reply.status != 200 {
            return Err(format!("hot key {} answered {}", job.body, reply.status));
        }
        let checked = check_sim_body(&reply.body, job.insts);
        if let Ok(t) = &checked {
            totals.merge(t);
        }
        out.check(&job.body, checked.err());
        hashes.push(fnv1a(reply.body.as_bytes()));
    }
    Ok((daemon, hashes, totals))
}

/// The simulated metrics: the hot keys of `FIXED_SEED`'s mix, answered
/// by a daemon of their own before set-up, so they read the same
/// whatever `--seed` is.
fn fixed_jobs(div: u64, out: &mut Report) {
    let mix = Mix::new(FIXED_SEED, div);
    match serve_setup(&mix, out) {
        Ok((daemon, _, totals)) => {
            stop_checked(daemon, "fixed shutdown", out);
            totals.report_to(out);
        }
        Err(e) => out.fail("fixed jobs", &e),
    }
}

/// Runs the `serve` workload, untraced or traced.
pub fn run(opts: &Options, speed: &mut HostSpeed, spans: &mut Spans, out: &mut Report) {
    let mix = Mix::new(opts.seed, opts.div);
    let hot: Vec<&str> = mix.hot.iter().map(|h| h.job.body.as_str()).collect();
    println!("twbench: serve hot keys {}", hot.join(" "));
    if !opts.trace {
        fixed_jobs(opts.div, out);
    }

    let mut probe = Report::new(out.workload);
    let setup = timed_setups(out, speed, SETUPS, || serve_setup(&mix, &mut probe));
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    let (daemon, hot_hashes, _) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.fail("setup", &e);
            return;
        }
    };
    out.digest = hot_hashes.iter().fold(0, |acc, h| acc.rotate_left(5) ^ h);

    let before = daemon.stats();
    let mut gen = ClientGen::new(&mix, opts.seed);
    let mut log = ClientLog::default();
    // Per batch: seconds per request answered and per million
    // instructions computed, scaled to the reference host.
    let (mut per_op, mut per_minst, mut batch_s) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(opts.seconds);
    let cpu = host::CpuMeter::start();
    let start = Instant::now();
    speed.mark();
    let mut batch = 0;
    while (start.elapsed() < budget || batch < 2) && batch < mix.max_batches() {
        let jobs = gen.batch(batch);
        let done = log.samples.len();
        let busy = run_batch(daemon.addr, &jobs, &hot_hashes, &mut log, speed, spans);
        let computed: u64 = log.samples[done..].iter().map(|s| s.computed).sum();
        per_op.push(busy / jobs.len() as f64);
        per_minst.push(busy / computed as f64 * 1e6);
        batch_s.push(busy);
        batch += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    out.add("host.cpu_share", cpu.share(1), "ratio");
    let after = daemon.stats();
    stop_checked(daemon, "shutdown", out);

    out.attempted += log.passed;
    for (op, reason) in &log.failures {
        out.fail(op, reason);
    }
    let samples = log.samples;
    println!(
        "twbench: serve {} requests in {batch} batches, {wall:.3} s",
        samples.len(),
    );
    // Every batch does the same work, so each metric is the batches'
    // quiet time.
    out.add("ops_per_s", 1.0 / host::quiet_time(&per_op), "1/s");
    out.add("sim_mips", 1.0 / host::quiet_time(&per_minst), "Minst/s");
    out.timing("batch_s", Summary::of(&batch_s), "s");
    report_serve_layers(&samples, before, after, out);

    if opts.trace {
        // The hot keys are short; a quarter of the run replays them
        // many times over.
        let regions = hot_regions(&mix, out);
        let budget = Options {
            seconds: opts.seconds / 4.0,
            ..*opts
        };
        replay::profile(&regions, &budget, spans, out);
    }
}

/// The hot keys as replayable regions: each job runs from its program's
/// first instruction.
fn hot_regions(mix: &Mix, out: &mut Report) -> Vec<Region> {
    let t = Instant::now();
    let mut regions = Vec::with_capacity(HOT_KEYS);
    for hot in &mix.hot {
        let config = preset(hot.preset).with_max_insts(hot.insts);
        match Region::new(hot.id, hot.id.build(), config, 0, SAMPLE) {
            Ok(r) => regions.push(r),
            Err(e) => out.fail("hot region", &e),
        }
    }
    out.add("workloads.build_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    regions
}

/// Per-class latencies and the cache's counters over the timed phase.
fn report_serve_layers(
    samples: &[Sample],
    before: Result<Value, String>,
    after: Result<Value, String>,
    out: &mut Report,
) {
    let class = |c: Class| {
        Summary::of(
            &samples
                .iter()
                .filter(|s| s.class == c)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let all = Summary::of(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    println!(
        "twbench: {} requests, {} beyond p99{}",
        all.n,
        all.beyond(0.99),
        if all.beyond(0.99) < 10 {
            " (too few for a stable p99)"
        } else {
            ""
        }
    );
    out.timing("serve.req_p50_ms", all, "ms");
    out.p99("serve.req_p99_ms", all, "ms");
    out.timing("serve.hit_p50_ms", class(Class::Hit), "ms");
    let miss = class(Class::Miss);
    out.timing("serve.miss_p50_ms", miss, "ms");
    out.p99("serve.miss_p99_ms", miss, "ms");
    out.timing("serve.compare_p50_ms", class(Class::Compare), "ms");
    out.timing("serve.reject_p50_ms", class(Class::Reject), "ms");
    let counter = |v: &Result<Value, String>, path: &[&str]| {
        v.as_ref()
            .ok()
            .and_then(|v| path.iter().try_fold(v, |v, k| v.get(k)))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    };
    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    if let Err(e) = before.as_ref().and(after.as_ref()) {
        out.fail("stats", e);
    }
    let (hits, joined, computed) = (
        delta(&["cache", "hits"]),
        delta(&["cache", "joined"]),
        delta(&["cache", "computed"]),
    );
    out.add(
        "serve.cache_hit_pct",
        100.0 * ratio(hits, hits + joined + computed),
        "%",
    );
    out.add("serve.computed", computed, "count");
    out.add("serve.evicted", delta(&["cache", "evicted"]), "count");
    out.add(
        "serve.shed",
        delta(&["queue", "shed"]) + delta(&["conns_shed"]),
        "count",
    );
}

/// The serve layer on a simulation workload's own programs: each as a
/// `sim` job (computed, then cached), a `compare` job, and a malformed
/// body, through a fresh daemon.
pub fn probe(
    regions: &[Region],
    preset_name: &str,
    opts: &Options,
    spans: &mut Spans,
    out: &mut Report,
) {
    let daemon = match Daemon::start() {
        Ok(d) => d,
        Err(e) => {
            out.fail("probe", &e);
            return;
        }
    };
    let insts = (PROBE_INSTS / opts.div).max(1);
    let before = daemon.stats();
    let mut samples = Vec::new();
    for (i, region) in regions.iter().enumerate() {
        let bench = region.id.name();
        let sim = Job {
            kind: Kind::Fresh,
            path: "/v1/sim",
            body: sim_body(bench, preset_name, insts),
            insts,
        };
        let compare = Job {
            kind: Kind::Compare,
            path: "/v1/compare",
            body: compare_body(bench, insts),
            insts: 5 * insts,
        };
        let malformed = Job {
            kind: Kind::Malformed,
            path: "/v1/sim",
            body: MALFORMED[i % MALFORMED.len()].to_string(),
            insts: 0,
        };
        // The second `sim` must come from the cache, byte for byte.
        let mut computed = None;
        for job in [&sim, &sim, &compare, &malformed] {
            let reply = match exchange(daemon.addr, job.path, &job.body, spans) {
                Ok(reply) => reply,
                Err(e) => {
                    out.fail(&job.body, &format!("transport: {e}"));
                    continue;
                }
            };
            let earlier = if job.kind == Kind::Fresh {
                computed
            } else {
                None
            };
            out.check(&job.body, verify(job, &reply, earlier));
            if job.kind == Kind::Fresh {
                computed.get_or_insert(fnv1a(reply.body.as_bytes()));
            }
            samples.push(Sample {
                class: class_of(job.kind, &reply),
                latency_ms: reply.latency_ms,
                computed: 0,
            });
        }
    }
    let after = daemon.stats();
    stop_checked(daemon, "probe shutdown", out);
    report_serve_layers(&samples, before, after, out);
}
