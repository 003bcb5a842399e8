//! The `tw serve` daemon: accept loop, router, worker pool, and
//! graceful shutdown.
//!
//! One thread per connection reads a single request (bounded by
//! [`HttpLimits`]), routes it, and answers; simulation jobs go through
//! the single-flight [`ResultCache`] and the bounded [`JobQueue`] to a
//! fixed pool of worker threads. Every failure path — malformed HTTP,
//! bad JSON, a full queue, even a panicking job — turns into a
//! structured JSON error with the right status code; the daemon itself
//! never panics and never grows without bound.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tc_fault::chaos::IoFaultPlan;
use tc_workloads::{Workload, WorkloadId};

use crate::config::{ExecutionMode, SimConfig};
use crate::processor::Processor;

use crate::harness::analyze::{build_plan, plan_to_json};
use crate::harness::error::TwError;
use crate::harness::json::{report_to_json, reports_to_json, Json};
use crate::harness::registry::{self, sim_config};
use crate::harness::runner::run_matrix;
use crate::harness::trace::{chrome_trace_json, run_traced, timeline_to_json};

use super::cache::{Lookup, ResultCache};
use super::disk::DiskTier;
use super::http::{read_request, write_response, HttpError, HttpLimits, Request, Response};
use super::queue::JobQueue;
use super::wire::{
    error_body, error_status, parse_job, JobKind, JobLimits, JobSpec, StoredError, WIRE_SCHEMA,
};

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Most jobs queued before pushes shed with 503.
    pub queue_depth: usize,
    /// Most cached result bodies resident at once.
    pub cache_entries: usize,
    /// Most simultaneous connections before new ones shed with 503.
    pub max_conns: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Largest accepted per-job `insts`.
    pub max_insts: u64,
    /// `insts` when a job omits it.
    pub default_insts: u64,
    /// Directory for the persistent cache tier (`--cache-dir`);
    /// `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Most entry files the persistent tier keeps before sweeping the
    /// oldest.
    pub cache_disk_entries: usize,
    /// Per-connection socket read deadline.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline.
    pub write_timeout: Duration,
    /// Injected persistent-tier store failures (degraded-mode tests).
    pub disk_faults: IoFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: crate::harness::runner::default_jobs(),
            queue_depth: 256,
            cache_entries: 512,
            max_conns: 256,
            max_body: 1024 * 1024,
            max_insts: 100_000_000,
            default_insts: crate::DEFAULT_MAX_INSTS,
            cache_dir: None,
            cache_disk_entries: 65_536,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            disk_faults: IoFaultPlan::none(),
        }
    }
}

/// End-of-run accounting, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Requests answered (all routes, all statuses).
    pub requests: u64,
    /// Responses in the 4xx class.
    pub client_errors: u64,
    /// Responses in the 5xx class.
    pub server_errors: u64,
    /// Jobs whose execution panicked (answered as 500s).
    pub job_panics: u64,
    /// Connections shed at the accept gate.
    pub conns_shed: u64,
}

/// One queued unit of work: the validated spec plus its cache key.
struct Job {
    spec: JobSpec,
    key: String,
}

/// State shared by the accept loop, connection handlers, and workers.
struct ServeState {
    config: ServeConfig,
    /// The resolved bound address (`:0` resolved to the real port);
    /// used by the shutdown path to wake the accept loop.
    bound: SocketAddr,
    queue: JobQueue<Job>,
    cache: ResultCache,
    /// The persistent tier, when `--cache-dir` is set.
    disk: Option<DiskTier>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    requests: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    job_panics: AtomicU64,
    conns_shed: AtomicU64,
    /// Socket deadline arms that failed (logged once, counted here).
    deadline_errors: AtomicU64,
    deadline_logged: AtomicBool,
    /// Workloads are immutable once built; build each at most once and
    /// share it across jobs.
    workloads: Mutex<HashMap<&'static str, Arc<Workload>>>,
}

impl ServeState {
    fn workload(&self, bench: WorkloadId) -> Arc<Workload> {
        // Build outside the lock would race duplicate builds; builds
        // are fast (program assembly, no simulation), so holding the
        // lock across the miss is the simpler correct choice.
        let mut map = match self.workloads.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(
            map.entry(bench.name())
                .or_insert_with(|| Arc::new(bench.build())),
        )
    }

    fn job_limits(&self) -> JobLimits {
        JobLimits {
            max_insts: self.config.max_insts,
            default_insts: self.config.default_insts,
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listener. The server is not serving until
    /// [`Server::run`] is called.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskTier::open_with(
                dir,
                config.cache_disk_entries,
                config.disk_faults,
            )?),
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let bound = listener.local_addr()?;
        let state = Arc::new(ServeState {
            bound,
            queue: JobQueue::new(config.queue_depth),
            cache: ResultCache::new(config.cache_entries),
            disk,
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            job_panics: AtomicU64::new(0),
            conns_shed: AtomicU64::new(0),
            deadline_errors: AtomicU64::new(0),
            deadline_logged: AtomicBool::new(false),
            workloads: Mutex::new(HashMap::new()),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves `:0` to the real port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `POST /v1/shutdown` arrives, then drains: open
    /// connections finish, queued jobs complete, workers exit.
    #[must_use]
    pub fn run(self) -> ServeSummary {
        let state = &self.state;
        let workers: Vec<_> = (0..state.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();

        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if state.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Opportunistically reap finished handlers so the handle
            // list tracks live connections, not connection history.
            handlers.retain(|h| !h.is_finished());
            let active = state.active_conns.fetch_add(1, Ordering::AcqRel);
            if active >= state.config.max_conns {
                state.active_conns.fetch_sub(1, Ordering::AcqRel);
                state.conns_shed.fetch_add(1, Ordering::Relaxed);
                shed_connection(stream, state);
                continue;
            }
            let state = Arc::clone(state);
            handlers.push(std::thread::spawn(move || {
                // A panicking handler must not take the daemon down;
                // the connection just drops.
                let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, &state)));
                state.active_conns.fetch_sub(1, Ordering::AcqRel);
            }));
        }

        // Drain: finish open connections (their queued jobs are served
        // by the still-running workers), then retire the workers.
        for h in handlers {
            let _ = h.join();
        }
        state.queue.close();
        for w in workers {
            let _ = w.join();
        }
        ServeSummary {
            requests: state.requests.load(Ordering::Relaxed),
            client_errors: state.client_errors.load(Ordering::Relaxed),
            server_errors: state.server_errors.load(Ordering::Relaxed),
            job_panics: state.job_panics.load(Ordering::Relaxed),
            conns_shed: state.conns_shed.load(Ordering::Relaxed),
        }
    }
}

/// Records a failed socket-deadline arm: logged to stderr once per
/// process (not per connection), counted in `/v1/stats` every time.
/// A connection whose deadline did not arm still gets served — but an
/// operator can see the regression instead of it being swallowed.
fn note_deadline_failure(state: &ServeState, what: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        state.deadline_errors.fetch_add(1, Ordering::Relaxed);
        if !state.deadline_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "tw serve: failed to arm {what} deadline ({e}); \
                 counting further failures in /v1/stats"
            );
        }
    }
}

/// Answers an over-capacity connection with a 503 without spawning a
/// handler for it.
fn shed_connection(mut stream: TcpStream, state: &ServeState) {
    note_deadline_failure(
        state,
        "shed-write",
        stream.set_write_timeout(Some(Duration::from_secs(2))),
    );
    let response = Response::json(
        503,
        error_body(503, "connection limit reached; retry shortly"),
    )
    .with_header("X-Cache", "shed");
    count_response(state, response.status);
    let _ = write_response(&mut stream, &response);
}

fn count_response(state: &ServeState, status: u16) {
    state.requests.fetch_add(1, Ordering::Relaxed);
    if (400..500).contains(&status) {
        state.client_errors.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        state.server_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn handle_connection(stream: TcpStream, state: &ServeState) {
    note_deadline_failure(
        state,
        "read",
        stream.set_read_timeout(Some(state.config.read_timeout)),
    );
    note_deadline_failure(
        state,
        "write",
        stream.set_write_timeout(Some(state.config.write_timeout)),
    );
    let limits = HttpLimits {
        max_body: state.config.max_body,
        ..HttpLimits::default()
    };
    let mut reader = BufReader::new(stream);
    let (response, unread_input) = match read_request(&mut reader, &limits) {
        Ok(request) => (route(&request, state), false),
        // Nothing arrived, or the socket died: nobody to answer.
        Err(HttpError::Closed | HttpError::Io(_)) => return,
        Err(HttpError::Malformed { status, reason }) => {
            (Response::json(status, error_body(status, &reason)), true)
        }
    };
    count_response(state, response.status);
    let mut stream = reader.into_inner();
    let _ = write_response(&mut stream, &response);
    let _ = stream.flush();
    if unread_input {
        drain_then_close(stream, limits.max_body);
    }
}

/// Most input [`drain_then_close`] reads beyond the body limit.
const DRAIN_SLACK: usize = 64 * 1024;
/// Longest [`drain_then_close`] waits for the client.
const DRAIN_TIME: Duration = Duration::from_secs(1);

/// Closes a connection whose request was rejected before it was read
/// in full (a 413 for an oversized body, say). Closing a socket with
/// unread input makes the kernel reset the connection, and the reset can
/// destroy the error response before the client reads it. So: half-close
/// the write side (the response is followed by a FIN), read and discard
/// what the client is still sending — at most `max_body` plus
/// [`DRAIN_SLACK`] bytes, for at most [`DRAIN_TIME`] — then close.
fn drain_then_close(mut stream: TcpStream, max_body: usize) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_TIME;
    let mut budget = max_body.saturating_add(DRAIN_SLACK);
    let mut buf = [0u8; 16 * 1024];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        let want = budget.min(buf.len());
        match stream.read(&mut buf[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => budget -= n,
        }
    }
}

fn route(request: &Request, state: &ServeState) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(
            200,
            Json::Object(vec![
                ("schema", Json::Str(WIRE_SCHEMA.to_string())),
                ("ok", Json::Bool(true)),
            ])
            .render(),
        ),
        ("GET", "/v1/stats") => Response::json(200, stats_body(state)),
        ("GET", "/v1/presets") => Response::json(200, presets_body()),
        ("GET", "/v1/workloads") => Response::json(200, workloads_body()),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            // The accept loop is parked in `accept`; a throwaway
            // connection to ourselves wakes it to observe the flag.
            let _ = TcpStream::connect_timeout(&state.bound, Duration::from_secs(2));
            Response::json(
                200,
                Json::Object(vec![
                    ("schema", Json::Str(WIRE_SCHEMA.to_string())),
                    ("ok", Json::Bool(true)),
                    (
                        "draining",
                        Json::UInt(u64::try_from(state.queue.stats().depth).unwrap_or(u64::MAX)),
                    ),
                ])
                .render(),
            )
        }
        ("POST", "/v1/sim") => job_response(JobKind::Sim, request, state),
        ("POST", "/v1/compare") => job_response(JobKind::Compare, request, state),
        ("POST", "/v1/analyze") => job_response(JobKind::Analyze, request, state),
        (
            _,
            "/healthz" | "/v1/stats" | "/v1/presets" | "/v1/workloads" | "/v1/shutdown" | "/v1/sim"
            | "/v1/compare" | "/v1/analyze",
        ) => Response::json(
            405,
            error_body(405, &format!("{} does not accept {}", path, request.method)),
        ),
        _ => Response::json(404, error_body(404, &format!("no route {path:?}"))),
    }
}

fn job_response(kind: JobKind, request: &Request, state: &ServeState) -> Response {
    let spec = match parse_job(kind, &request.body, &state.job_limits()) {
        Ok(spec) => spec,
        Err(e) => {
            let status = error_status(&e);
            return Response::json(status, error_body(status, e.message()));
        }
    };
    let key = spec.cache_key();
    let hash = spec.key_hash();
    match state.cache.lookup(&key) {
        Lookup::Hit(body) => ok_cached(&body, "hit", &hash),
        Lookup::Join => match state.cache.wait(&key) {
            Ok(body) => ok_cached(&body, "join", &hash),
            Err(e) => Response::json(e.status, error_body(e.status, &e.message))
                .with_header("X-Cache", "join"),
        },
        Lookup::Owner => {
            // The single-flight slot is held; probe the persistent tier
            // before paying for a simulation. A valid entry fulfills
            // the slot (joiners get the same bytes) without touching
            // the queue.
            if let Some(disk) = &state.disk {
                if let Some(body) = disk.load(&key) {
                    let body = Arc::new(body);
                    state.cache.fulfill(&key, Arc::clone(&body));
                    return ok_cached(&body, "disk", &hash);
                }
            }
            if state.shutdown.load(Ordering::Acquire) {
                let e = StoredError {
                    status: 503,
                    message: "server is draining".to_string(),
                };
                state.cache.fail(&key, e.clone());
                return Response::json(e.status, error_body(e.status, &e.message));
            }
            if state
                .queue
                .push(Job {
                    spec,
                    key: key.clone(),
                })
                .is_err()
            {
                let e = StoredError {
                    status: 503,
                    message: "job queue is full; retry shortly".to_string(),
                };
                state.cache.fail(&key, e.clone());
                return Response::json(e.status, error_body(e.status, &e.message))
                    .with_header("X-Cache", "shed");
            }
            match state.cache.wait(&key) {
                Ok(body) => ok_cached(&body, "miss", &hash),
                Err(e) => Response::json(e.status, error_body(e.status, &e.message))
                    .with_header("X-Cache", "miss"),
            }
        }
    }
}

fn ok_cached(body: &Arc<String>, disposition: &'static str, hash: &str) -> Response {
    Response::json(200, String::clone(body))
        .with_header("X-Cache", disposition)
        .with_header("X-Key", hash.to_string())
}

fn worker_loop(state: &ServeState) {
    while let Some(job) = state.queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(state, &job.spec)));
        match outcome {
            Ok(Ok(body)) => {
                // Persist before publishing: once a client can see the
                // body, a crash must not lose it.
                if let Some(disk) = &state.disk {
                    disk.store(&job.key, &body);
                }
                state.cache.fulfill(&job.key, Arc::new(body));
            }
            Ok(Err(e)) => state.cache.fail(
                &job.key,
                StoredError {
                    status: error_status(&e),
                    message: e.message().to_string(),
                },
            ),
            Err(_panic) => {
                state.job_panics.fetch_add(1, Ordering::Relaxed);
                state.cache.fail(
                    &job.key,
                    StoredError {
                        status: 500,
                        message: "internal error: job panicked".to_string(),
                    },
                );
            }
        }
    }
}

fn preset_config(spec: &JobSpec) -> Result<SimConfig, TwError> {
    registry::lookup(spec.preset)
        .ok_or_else(|| TwError::runtime(format!("registry is missing {:?}", spec.preset)))
}

fn envelope(spec: &JobSpec, fields: Vec<(&'static str, Json)>) -> String {
    let mut members = vec![
        ("schema", Json::Str(WIRE_SCHEMA.to_string())),
        ("kind", Json::Str(spec.kind.name().to_string())),
        ("key", Json::Str(spec.key_hash())),
    ];
    members.extend(fields);
    Json::Object(members).render()
}

/// Executes one validated job. Runs on a worker thread; any panic is
/// caught by the caller and reported as a 500.
fn run_job(state: &ServeState, spec: &JobSpec) -> Result<String, TwError> {
    let workload = state.workload(spec.bench);
    match spec.kind {
        JobKind::Sim => {
            let plan = spec
                .auto_plan
                .then(|| build_plan(&workload, spec.insts))
                .transpose()?;
            let config = sim_config(
                preset_config(spec)?,
                spec.insts,
                spec.perfect,
                spec.fault.as_ref(),
                plan.as_ref(),
                ExecutionMode::FullTiming,
            );
            let Some(options) = &spec.trace else {
                let report = Processor::new(config).run(&workload);
                return Ok(envelope(spec, vec![("report", report_to_json(&report))]));
            };
            let run = run_traced(config, &workload, workload.machine(), options);
            let mut fields = vec![("report", report_to_json(&run.report))];
            if spec.timeline {
                fields.push(("timeline", timeline_to_json(&run.timeline)));
            }
            if spec.chrome_trace {
                fields.push(("chrome_trace", chrome_trace_json(&run)));
            }
            Ok(envelope(spec, fields))
        }
        JobKind::Compare => {
            let cells: Vec<(WorkloadId, SimConfig)> = registry::standard_five()
                .into_iter()
                .map(|(_, preset)| {
                    let config = sim_config(
                        preset,
                        spec.insts,
                        spec.perfect,
                        None,
                        None,
                        ExecutionMode::FullTiming,
                    );
                    (spec.bench, config)
                })
                .collect();
            // Serial within the job: the worker pool is the fan-out.
            let reports = run_matrix(&cells, 1);
            let configs = Json::Array(
                registry::STANDARD_FIVE
                    .iter()
                    .map(|name| Json::Str((*name).to_string()))
                    .collect(),
            );
            Ok(envelope(
                spec,
                vec![("configs", configs), ("reports", reports_to_json(&reports))],
            ))
        }
        JobKind::Analyze => {
            let plan = build_plan(&workload, spec.insts)?;
            Ok(envelope(spec, vec![("plan", plan_to_json(&plan))]))
        }
    }
}

fn stats_body(state: &ServeState) -> String {
    let queue = state.queue.stats();
    let cache = state.cache.stats();
    Json::Object(vec![
        ("schema", Json::Str(WIRE_SCHEMA.to_string())),
        (
            "requests",
            Json::UInt(state.requests.load(Ordering::Relaxed)),
        ),
        (
            "active_conns",
            Json::UInt(
                u64::try_from(state.active_conns.load(Ordering::Relaxed)).unwrap_or(u64::MAX),
            ),
        ),
        (
            "client_errors",
            Json::UInt(state.client_errors.load(Ordering::Relaxed)),
        ),
        (
            "server_errors",
            Json::UInt(state.server_errors.load(Ordering::Relaxed)),
        ),
        (
            "job_panics",
            Json::UInt(state.job_panics.load(Ordering::Relaxed)),
        ),
        (
            "conns_shed",
            Json::UInt(state.conns_shed.load(Ordering::Relaxed)),
        ),
        (
            "deadline_errors",
            Json::UInt(state.deadline_errors.load(Ordering::Relaxed)),
        ),
        (
            "queue",
            Json::Object(vec![
                ("pushed", Json::UInt(queue.pushed)),
                ("shed", Json::UInt(queue.shed)),
                (
                    "depth",
                    Json::UInt(u64::try_from(queue.depth).unwrap_or(u64::MAX)),
                ),
            ]),
        ),
        (
            "cache",
            Json::Object(vec![
                ("hits", Json::UInt(cache.hits)),
                ("joined", Json::UInt(cache.joined)),
                ("computed", Json::UInt(cache.computed)),
                ("evicted", Json::UInt(cache.evicted)),
                (
                    "entries",
                    Json::UInt(u64::try_from(cache.entries).unwrap_or(u64::MAX)),
                ),
            ]),
        ),
        (
            "disk",
            match &state.disk {
                None => Json::Null,
                Some(disk) => {
                    let d = disk.stats();
                    Json::Object(vec![
                        ("scanned", Json::UInt(d.scanned)),
                        ("entries", Json::UInt(d.entries)),
                        ("hits", Json::UInt(d.hits)),
                        ("stored", Json::UInt(d.stored)),
                        ("store_errors", Json::UInt(d.store_errors)),
                        ("quarantined", Json::UInt(d.quarantined)),
                        ("evicted", Json::UInt(d.evicted)),
                        ("degraded", Json::Bool(d.degraded)),
                    ])
                }
            },
        ),
    ])
    .render()
}

fn presets_body() -> String {
    Json::Object(vec![
        ("schema", Json::Str(WIRE_SCHEMA.to_string())),
        (
            "presets",
            Json::Array(
                registry::presets()
                    .iter()
                    .map(|p| {
                        Json::Object(vec![
                            ("name", Json::Str(p.name.to_string())),
                            (
                                "aliases",
                                Json::Array(
                                    p.aliases
                                        .iter()
                                        .map(|a| Json::Str((*a).to_string()))
                                        .collect(),
                                ),
                            ),
                            ("summary", Json::Str(p.summary.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn workloads_body() -> String {
    Json::Object(vec![
        ("schema", Json::Str(WIRE_SCHEMA.to_string())),
        (
            "workloads",
            Json::Array(
                WorkloadId::all()
                    .into_iter()
                    .map(|b| {
                        Json::Object(vec![
                            ("name", Json::Str(b.name().to_string())),
                            ("short", Json::Str(b.short_name().to_string())),
                            ("family", Json::Str(b.family().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}
