//! Structured event tracing for the trace-weave front end and simulator.
//!
//! The paper's figures are end-of-run aggregates; this crate exposes the
//! *sequence of events* behind them — trace-cache hits and misses,
//! fill-unit finalizes, packing decisions with their cost-regulation
//! verdicts, bias-table promotions and demotions, mispredicts and their
//! repair, cache misses, retirement — each stamped with the cycle it
//! happened on and a global sequence number.
//!
//! The design contract is **zero overhead when disabled**:
//!
//! * [`Tracer`] is a trait, and the simulator's hot paths are generic
//!   over it. The default [`NoopTracer`] is a zero-sized type whose
//!   `emit` is an empty inline function; every emit site guards event
//!   *construction* behind the associated constant [`Tracer::ENABLED`],
//!   so with tracing off the events are never even built and the whole
//!   layer monomorphizes away (the `core/tests/alloc_free.rs` counting
//!   allocator gate still holds).
//! * The enabled path, [`RingTracer`], records into a **preallocated
//!   bounded ring buffer** with drop accounting — never an unbounded
//!   `Vec`. Once the buffer is full, further events are counted as
//!   dropped rather than stored.
//! * Aggregates that must survive ring drops — per-event-type counts and
//!   the [`Timeline`] interval metrics — are folded at emit time, before
//!   capacity or filtering applies.
//!
//! Sinks (Chrome/Perfetto `trace_event` export, report folding, interval
//! timelines as JSON) live in `tc-sim::harness`, which owns the
//! workspace's hand-rolled JSON layer; this crate stays dependency-light
//! so `tc-core` can emit from its innermost loops.

mod event;
mod timeline;
mod tracer;

pub use event::{
    DemotionCause, EventKind, ExecPhase, FaultLocus, FetchOrigin, PackVerdict, SegEndReason,
    TraceEvent, EVENT_KIND_COUNT,
};
pub use timeline::{IntervalStats, Timeline};
pub use tracer::{EventFilter, NoopTracer, RingTracer, TraceRecord, TraceSummary, Tracer};
