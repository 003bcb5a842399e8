//! The out-of-order execution engine model.
//!
//! Models the paper's §3 HPS-style core as a timestamp-based dataflow
//! window:
//!
//! * 16 universal functional units, each notionally fronted by a 64-entry
//!   reservation station (node table) — modeled as a shared 1024-entry
//!   instruction window with a 16-slot-per-cycle FU calendar;
//! * four pipeline stages (fetch, issue, schedule, execute), each at
//!   least one cycle;
//! * a memory scheduler that, in the *conservative* mode, never lets a
//!   memory operation bypass a store with an unknown address, and in the
//!   *perfect* mode (the paper's §6 "ideal, aggressive execution
//!   engine") speculates every load/store dependence correctly;
//! * in-order retirement, 16 instructions per cycle.
//!
//! Rather than stepping cycle by cycle, the engine computes per
//! instruction *timestamps* (ready → execute → done → retire) under
//! resource constraints — equivalent scheduling, much faster. Branch
//! *resolution time* (the quantity behind the paper's Figure 15) is the
//! branch's `done` timestamp.
//!
//! Deliberate simplifications (documented in `DESIGN.md`): wrong-path and
//! inactive-issue instructions do not consume functional units, and
//! checkpoint construction (≤3/cycle) is implied by the ≤3 blocks a
//! fetch can deliver.

mod calendar;
mod config;
mod engine;
mod memdep;
mod ring;

pub use calendar::FuCalendar;
pub use config::EngineConfig;
pub use engine::{EngineStats, ExecutionEngine, IssueTimes};
pub use memdep::MemDepTracker;
pub use ring::Ring;
