//! The parallel matrix runner.
//!
//! Every multi-cell experiment is a set of independent `(benchmark,
//! configuration)` cells; the simulator is single-threaded and
//! deterministic, so the cells can run on worker threads with results
//! collected back into caller order — parallel output is bit-identical
//! to serial output (asserted by the `harness` integration tests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tc_workloads::{Benchmark, Workload, WorkloadId};

use crate::config::SimConfig;
use crate::processor::Processor;
use crate::report::SimReport;

/// Upper bound on any requested worker-thread count. Values past this
/// are typos or hostile input, not machines: spawning a million scoped
/// threads aborts the process long before it simulates anything.
pub const MAX_JOBS: usize = 1024;

/// The default worker-thread count: the machine's available
/// parallelism.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs every cell on up to `jobs` worker threads and returns the
/// reports in the order the cells were given.
///
/// Cells name workloads from either family — anything convertible to a
/// [`WorkloadId`] (a bare [`Benchmark`] still works). Each distinct
/// workload is built once and shared (read-only) across threads.
/// `jobs == 1` degenerates to a serial loop over the same code path.
#[must_use]
pub fn run_matrix<W: Into<WorkloadId> + Copy>(
    cells: &[(W, SimConfig)],
    jobs: usize,
) -> Vec<SimReport> {
    run_matrix_with(cells, jobs, simulate)
}

/// [`run_matrix`] with `run` as the per-cell function in place of a
/// plain simulation (`tw compare --timeline` passes a traced run).
#[must_use]
pub fn run_matrix_with<W: Into<WorkloadId> + Copy, R: Send>(
    cells: &[(W, SimConfig)],
    jobs: usize,
    run: impl Fn(SimConfig, &Workload) -> R + Sync,
) -> Vec<R> {
    let cells: Vec<(WorkloadId, SimConfig)> = cells
        .iter()
        .map(|(w, c)| ((*w).into(), c.clone()))
        .collect();
    let mut workloads = HashMap::new();
    build_workloads(&mut workloads, &cells);
    run_cells(&cells, &workloads, jobs, run)
}

fn simulate(config: SimConfig, workload: &Workload) -> SimReport {
    Processor::new(config).run(workload)
}

/// Builds every cell's workload not yet in `workloads`.
fn build_workloads(
    workloads: &mut HashMap<&'static str, Workload>,
    cells: &[(WorkloadId, SimConfig)],
) {
    for (bench, _) in cells {
        workloads
            .entry(bench.name())
            .or_insert_with(|| bench.build());
    }
}

/// The one worker pool: `jobs` scoped threads take cells in order from
/// a shared counter and store each result in the cell's slot.
fn run_cells<R: Send>(
    cells: &[(WorkloadId, SimConfig)],
    workloads: &HashMap<&'static str, Workload>,
    jobs: usize,
    run: impl Fn(SimConfig, &Workload) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, cells.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((bench, config)) = cells.get(i) else {
                    break;
                };
                let result = run(config.clone(), &workloads[bench.name()]);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Ok(Some(result)) => result,
            // Scoped workers fill every slot or propagate their panic
            // before the scope returns.
            _ => unreachable!("scoped worker left its result slot empty"),
        })
        .collect()
}

/// The memoizing experiment runner: many figures share configurations,
/// so each `(benchmark, configuration, budget)` cell simulates once per
/// process; cache misses within one request execute in parallel.
///
/// This is the engine behind `tw paper`. The per-runner instruction
/// budget is applied to every cell, and results are keyed by
/// `(benchmark, SimConfig::label())` — the label uniquely identifies a
/// configuration.
pub struct MatrixRunner {
    insts: u64,
    jobs: usize,
    workloads: HashMap<&'static str, Workload>,
    cache: HashMap<(&'static str, String), SimReport>,
}

impl MatrixRunner {
    /// Creates a runner with a per-cell dynamic instruction budget and
    /// a worker-thread count (minimum 1).
    #[must_use]
    pub fn new(insts: u64, jobs: usize) -> MatrixRunner {
        MatrixRunner {
            insts,
            jobs: jobs.max(1),
            workloads: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// Ensures every cell is simulated, running the misses in parallel.
    pub fn prefetch<W: Into<WorkloadId> + Copy>(&mut self, cells: &[(W, SimConfig)]) {
        let mut missing: Vec<(WorkloadId, SimConfig)> = Vec::new();
        let mut queued: std::collections::HashSet<(&'static str, String)> =
            std::collections::HashSet::new();
        for (bench, config) in cells {
            let bench: WorkloadId = (*bench).into();
            let key = (bench.name(), config.label());
            if !self.cache.contains_key(&key) && queued.insert(key) {
                missing.push((bench, config.clone().with_max_insts(self.insts)));
            }
        }
        if missing.is_empty() {
            return;
        }
        build_workloads(&mut self.workloads, &missing);
        let reports = run_cells(&missing, &self.workloads, self.jobs, simulate);
        for ((bench, config), report) in missing.into_iter().zip(reports) {
            self.cache.insert((bench.name(), config.label()), report);
        }
    }

    /// Runs (or recalls) one cell.
    pub fn run<W: Into<WorkloadId> + Copy>(&mut self, bench: W, config: &SimConfig) -> &SimReport {
        let bench: WorkloadId = bench.into();
        let key = (bench.name(), config.label());
        if !self.cache.contains_key(&key) {
            self.prefetch(std::slice::from_ref(&(bench, config.clone())));
        }
        &self.cache[&key]
    }

    /// Runs the whole suite under one configuration (in parallel where
    /// uncached), returning cloned reports in suite order.
    pub fn run_suite(&mut self, config: &SimConfig) -> Vec<SimReport> {
        let cells: Vec<(Benchmark, SimConfig)> = Benchmark::ALL
            .iter()
            .map(|&b| (b, config.clone()))
            .collect();
        self.prefetch(&cells);
        let label = config.label();
        Benchmark::ALL
            .iter()
            .map(|b| self.cache[&(b.name(), label.clone())].clone())
            .collect()
    }
}
