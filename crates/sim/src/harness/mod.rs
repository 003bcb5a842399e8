//! The experiment harness: one layer every driver builds on.
//!
//! The paper's evaluation is a benchmark × configuration matrix, and the
//! `tw` CLI is the one front door into it (`tw paper` regenerates the
//! figures and tables). Every subcommand builds on this layer:
//!
//! * [`registry`] — the single source of truth for named configuration
//!   presets (`icache`, `baseline`, `packing`, `promotion`,
//!   `promo-pack`, `headline`, …). CLI parsing and `list` output are
//!   generated from it, so a preset added here appears everywhere. It
//!   also holds [`fault_plan`], the one rule that turns the CLI's fault
//!   flags or a request's fault fields into a fault plan, and
//!   [`sim_config`], the one builder that turns a job's fields (preset,
//!   budget, perfect disambiguation, fault plan, promotion plan, mode)
//!   into its configuration at both front doors.
//! * [`runner`] — the parallel matrix runner: one pool of scoped worker
//!   threads runs independent `(benchmark, configuration)` cells with
//!   deterministic, caller-ordered result collection, under
//!   [`run_matrix`], [`run_matrix_with`] and the memoizing
//!   [`MatrixRunner`] that `tw paper` drives. The worker count comes
//!   from `--jobs`, else the machine's parallelism (see
//!   [`default_jobs`]).
//! * [`json`] — a hand-rolled JSON report emitter (the workspace builds
//!   offline with no external crates) for [`SimReport`] and friends.
//! * [`parse`] — the matching reader: a small recursive-descent JSON
//!   parser, the one that reads every artifact and request body and
//!   checks every emitted document.
//! * [`error`] — [`TwError`], the structured error every fallible `tw`
//!   path returns: a one-line diagnostic plus the exit-code class
//!   (usage → 2, runtime → 1).
//! * [`artifact`] — crash-consistent artifact I/O: atomic
//!   temp+fsync+rename writes, the additive CRC32 integrity envelope,
//!   and the verified read every artifact consumer goes through.
//! * [`analyze`] — the `tw analyze` pipeline: a one-pass functional
//!   branch profiler, the four-class predictability
//!   classifier, and the `tw-plan/v1` promotion-plan artifact
//!   (emit + validating parse).
//! * [`trace`] — the event-trace sink behind `tw sim --out` and a traced
//!   `/v1/sim`: [`trace_options`], the one rule for the trace fields at
//!   both front doors, traced runs, the Chrome/Perfetto `trace_event`
//!   export, and the interval-timeline renderers (`--timeline`).
//! * [`serve`] — the `tw serve` daemon: a hardened HTTP/JSON service
//!   over the same job kinds, with a single-flight content-addressed
//!   result cache and a bounded FIFO job queue.
//! * [`table`] — the plain-text table renderer and the small statistics
//!   helpers (`mean`, `percent_change`) every experiment shares.
//! * `lint` — static verification of workload programs (`tw lint`):
//!   runs `tc-analyze`'s five-pass pipeline over the registered
//!   benchmarks and renders results through the same table/JSON
//!   machinery.
//! * `checkpoint` — the `tw-ckpt/v1` architectural-state file that
//!   `tw checkpoint` writes and `tw sim --from` resumes.
//!
//! The simulator itself is deterministic, so parallel execution is
//! required to be *observationally identical* to serial execution —
//! `harness` tests assert bit-identical reports between the two paths.
//!
//! [`SimReport`]: crate::SimReport

mod analyze;
pub mod artifact;
mod checkpoint;
mod error;
mod json;
mod lint;
mod parse;
mod registry;
mod runner;
pub mod serve;
mod table;
mod trace;

pub use analyze::{
    build_plan, parse_plan, plan_table, plan_to_json, profile_branches, PLAN_SCHEMA,
};
pub use artifact::{read_verified, stamp, write_atomic, Integrity};
pub use checkpoint::{parse_checkpoint, Checkpoint, CHECKPOINT_FORMAT};
pub use error::TwError;
pub use json::{report_to_json, reports_to_json, Json};
pub use lint::{
    lint_all, lint_benchmark, lint_entry_to_json, lint_errors, lint_table, lint_to_json, LintEntry,
};
pub use parse::{parse_json, Value};
pub use registry::{
    fault_plan, find_bench, lookup, preset, presets, sim_config, standard_five, ConfigPreset,
    STANDARD_FIVE,
};
pub use runner::{default_jobs, run_matrix, run_matrix_with, MatrixRunner, MAX_JOBS};
pub use serve::{ServeConfig, ServeSummary, Server};
pub use table::{f2, mean, pct, percent_change, Table};
pub use trace::{
    chrome_trace_json, run_traced, timeline_table, timeline_to_json, trace_options, TraceOptions,
    TracedRun, MAX_TRACE_LIMIT,
};
