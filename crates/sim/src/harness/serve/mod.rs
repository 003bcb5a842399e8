//! `tw serve`: a long-running simulation service over HTTP/JSON.
//!
//! The daemon accepts the harness's job kinds — `sim` (with or without
//! a fault plan, a timeline or a Chrome trace), `compare`, `analyze` —
//! as `POST /v1/<kind>` requests with JSON bodies, runs them on a
//! bounded worker pool, and memoizes results in a content-addressed
//! cache so a repeated query is answered without re-simulating. The stack is hand-rolled over
//! `std::net` (the workspace builds offline with no external crates)
//! and hardened end to end: every inbound byte is untrusted, every limit is
//! enforced, and no request — however malformed, oversized, or
//! concurrent — panics the process.
//!
//! Layers, bottom up:
//!
//! * [`http`] — a minimal HTTP/1.1 reader/writer with hard limits and
//!   status-carrying errors.
//! * [`wire`] — the `tw-serve/v1` JSON protocol: strict request
//!   parsing, canonical cache keys (aliases resolved, defaults filled),
//!   the uniform error body.
//! * [`queue`] — a bounded FIFO job queue with load-shedding and
//!   drain-on-close.
//! * [`cache`] — the single-flight result cache: one computation per
//!   key, joiners share the owner's exact bytes.
//! * [`disk`] — the optional persistent tier under the cache
//!   (`--cache-dir`): CRC-validated entry files written atomically,
//!   warm-start after any restart (even `kill -9`), corrupt-entry
//!   quarantine, read-only degraded mode on disk errors.
//! * [`server`] — the daemon: accept loop, router, worker pool,
//!   graceful shutdown.
//! * [`client`] — a matching minimal HTTP client for the integration
//!   tests and the `serve_load` load-test helper.

pub mod cache;
pub mod client;
pub mod disk;
pub mod http;
pub mod queue;
pub mod server;
pub mod wire;

pub use cache::{CacheStats, Lookup, ResultCache};
pub use client::{http_request, http_request_retry, raw_request, ClientResponse, RetryPolicy};
pub use disk::{DiskStats, DiskTier, DISK_SCHEMA};
pub use queue::{JobQueue, QueueStats};
pub use server::{ServeConfig, ServeSummary, Server};
pub use wire::{parse_job, JobKind, JobLimits, JobSpec, WIRE_SCHEMA};
