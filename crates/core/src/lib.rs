//! The trace cache fetch mechanism with branch promotion and trace
//! packing — the primary contribution of Patel, Evers & Patt (ISCA '98).
//!
//! This crate implements the paper's front end:
//!
//! * [`TraceSegment`] — a trace-cache line: up to 16 instructions spanning
//!   at most three fetch blocks (three *non-promoted* conditional
//!   branches; promoted branches are unlimited).
//! * [`TraceCache`] — 2K-entry, 4-way set-associative storage for
//!   segments, indexed by start address, with no path associativity.
//! * [`FillUnit`] — collects the retired instruction stream into pending
//!   segments. Its [`PackingPolicy`] selects between the paper's fill
//!   strategies: atomic fetch blocks (the baseline), unregulated trace
//!   packing, chunked packing (`n = 2`, `n = 4`), and cost-regulated
//!   packing (§5).
//! * **Branch promotion** (§4) — the fill unit consults a
//!   [`tc_predict::BiasTable`]; strongly biased branches are stored with a
//!   built-in static prediction and stop consuming branch-predictor
//!   bandwidth.
//! * [`Sanitizer`] — a runtime invariant checker validating segment
//!   structure at fill time and on trace-cache hits, emitting structured
//!   [`Violation`] records (on by default in debug/test builds).
//! * [`FrontEnd`] — the complete fetch engine: multiple-branch predictor,
//!   trace-cache lookup with partial matching and inactive issue,
//!   supporting i-cache path with split-line fetching, and the
//!   termination-reason accounting behind the paper's Figure 4/6
//!   histograms.
//!
//! The whole-processor simulation that drives this front end against the
//! execution engine lives in `tc-sim`.

mod config;
mod fetch;
mod fill;
mod inline_vec;
mod promote;
mod sanitize;
mod segment;
mod stats;
mod trace_cache;

pub use config::{FrontEndConfig, PredictorChoice};
pub use fetch::{FetchBundle, FetchStep, FetchedInst, FrontEnd, NextPc, QuarantineStats};
pub use fill::{FillStats, FillUnit, PackingPolicy};
pub use inline_vec::InlineVec;
pub use promote::StaticPromotionTable;
pub use sanitize::{
    CheckSite, Sanitizer, SanitizerStats, Violation, ViolationKind, ViolationSeverity,
    MAX_RECORDED_VIOLATIONS,
};
pub use segment::{
    SegEndReason, SegmentInst, TraceSegment, MAX_SEGMENT_BRANCHES, MAX_SEGMENT_INSTS,
};
pub use stats::{FetchStats, TerminationReason};
pub use tc_trace::FetchOrigin;
pub use trace_cache::{FillOutcome, TraceCache, TraceCacheConfig, TraceCacheStats};
