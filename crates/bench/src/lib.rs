//! The paper's evaluation and the simulator's timing harnesses.
//!
//! The experiment machinery (memoizing parallel runner, table renderer,
//! statistics helpers) lives in `tc_sim::harness`. This crate adds:
//!
//! * [`paper`] — every table and figure of the paper's evaluation plus
//!   the ablations, run as `tw paper <experiment|all|ablations>`:
//!
//!   ```text
//!   tw paper all
//!   tw paper fig10 --insts 2000000 --jobs 8
//!   ```
//!
//! * [`suite`] and [`compare`] — the benchmark × configuration
//!   wall-clock matrix behind `tw bench` and its artifact diff.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod compare;
pub mod paper;
pub mod suite;
