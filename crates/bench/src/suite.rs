//! The `tw bench` wall-clock suite.
//!
//! Times whole-processor simulation (`Processor::run`) for every cell of
//! a benchmark × configuration matrix and reports simulator throughput:
//! nanoseconds of host time per simulated cycle and simulated
//! instructions per second. Configurations come from the harness preset
//! registry, so the suite automatically tracks new presets.
//!
//! Each cell builds its workload once, then runs `samples` timed
//! repetitions and keeps the fastest (the simulator is deterministic, so
//! repetitions differ only in host noise; the minimum is the standard
//! low-noise estimator). Results serialize to the `tw-bench/v1` JSON
//! schema consumed by `tw bench --check` and `scripts/verify.sh`.

use std::time::Instant;

use tc_sim::harness::{presets, Json};
use tc_sim::{Processor, PromotionPlan, SimConfig, SimReport};
use tc_workloads::{Benchmark, RvBench, WorkloadId};

/// Schema identifier stamped into every emitted suite artifact.
pub const SCHEMA: &str = "tw-bench/v1";

/// One timed benchmark × configuration cell.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Benchmark name (registry canonical).
    pub benchmark: &'static str,
    /// Configuration preset name.
    pub config: &'static str,
    /// Instructions actually retired by the simulation.
    pub instructions: u64,
    /// Cycles actually simulated.
    pub cycles: u64,
    /// Fastest sample's wall-clock time, in nanoseconds.
    pub wall_ns: u64,
    /// Total dynamic instructions traversed (equals `instructions` for
    /// full-timing cells; larger when the cell fast-forwards/samples).
    pub stream_insts: u64,
    /// Effective fetch rate of the simulated run — the fidelity metric
    /// `tw bench --compare` gates alongside throughput.
    pub fetch_rate: f64,
    /// Conditional misprediction rate of the run, in `[0, 1]`.
    pub mispredict_rate: f64,
    /// Fraction of conditional-branch executions that ran promoted.
    pub promo_coverage: f64,
}

impl BenchCell {
    /// Host nanoseconds per simulated cycle (lower is faster).
    #[must_use]
    pub fn ns_per_cycle(&self) -> f64 {
        self.wall_ns as f64 / self.cycles.max(1) as f64
    }

    /// Simulated instructions retired per host second.
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        self.instructions as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Effective millions of instructions per host second — counts the
    /// whole traversed stream, which is what fast-forward and sampling
    /// accelerate.
    #[must_use]
    pub fn effective_mips(&self) -> f64 {
        self.stream_insts as f64 * 1e3 / self.wall_ns.max(1) as f64
    }
}

/// One preset's sampled-vs-full accuracy and throughput probe: the same
/// benchmark and stream budget run once in full timing and once under
/// the derived sampling spec ([`probe_spec`]), so the artifact records
/// what sampling costs in fidelity and buys in wall-clock per preset.
#[derive(Debug, Clone)]
pub struct SamplingProbe {
    /// Configuration preset name.
    pub config: &'static str,
    /// Benchmark probed.
    pub benchmark: &'static str,
    /// Full-timing wall time, nanoseconds.
    pub full_wall_ns: u64,
    /// Sampled-run wall time, nanoseconds.
    pub sampled_wall_ns: u64,
    /// Instructions the full run retired.
    pub full_insts: u64,
    /// Total stream the sampled run traversed.
    pub sampled_stream: u64,
    /// Full-timing effective fetch rate.
    pub full_fetch_rate: f64,
    /// Sampled effective fetch rate.
    pub sampled_fetch_rate: f64,
    /// Full-timing conditional misprediction rate, in `[0, 1]`.
    pub full_mispredict_rate: f64,
    /// Sampled conditional misprediction rate, in `[0, 1]`.
    pub sampled_mispredict_rate: f64,
    /// Promoted branches fetched per issued instruction, full timing.
    pub full_promo_coverage: f64,
    /// Promoted branches fetched per issued instruction, sampled.
    pub sampled_promo_coverage: f64,
}

impl SamplingProbe {
    /// Wall-clock speedup of the sampled run over full timing at a
    /// matched stream budget (this is the effective-throughput ratio).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.full_wall_ns as f64 / self.sampled_wall_ns.max(1) as f64
    }

    /// Full-timing effective MIPS.
    #[must_use]
    pub fn full_mips(&self) -> f64 {
        self.full_insts as f64 * 1e3 / self.full_wall_ns.max(1) as f64
    }

    /// Sampled effective MIPS (whole traversed stream over wall time).
    #[must_use]
    pub fn sampled_mips(&self) -> f64 {
        self.sampled_stream as f64 * 1e3 / self.sampled_wall_ns.max(1) as f64
    }

    /// Sampled-vs-full effective-fetch-rate delta, percent.
    #[must_use]
    pub fn fetch_rate_delta_pct(&self) -> f64 {
        if self.full_fetch_rate == 0.0 {
            0.0
        } else {
            (self.sampled_fetch_rate - self.full_fetch_rate) / self.full_fetch_rate * 100.0
        }
    }

    /// Sampled-vs-full misprediction-rate delta, percentage points.
    #[must_use]
    pub fn mispredict_delta_pp(&self) -> f64 {
        (self.sampled_mispredict_rate - self.full_mispredict_rate) * 100.0
    }

    /// Sampled-vs-full promotion-coverage delta, percentage points.
    #[must_use]
    pub fn promo_coverage_delta_pp(&self) -> f64 {
        (self.sampled_promo_coverage - self.full_promo_coverage) * 100.0
    }
}

/// The sampling spec the probes use for a given stream budget: 2%
/// measured, 4% functional warm-up ahead of each window, the rest
/// fast-forwarded (the SMARTS-style regime where sampling pays off;
/// warming runs at only ~2x timing speed, so denser specs cap the
/// speedup well below the >=10x the fast-forward interpreter affords).
/// The period is clamped to the stream budget so short (smoke) runs
/// still land at least one measure window instead of fast-forwarding
/// the whole stream.
#[must_use]
pub fn probe_spec(insts: u64) -> (u64, u64, u64) {
    let measure = (insts / 200).max(500);
    let warmup = 2 * measure;
    let period = (64 * measure).min(insts).max(warmup + measure);
    (warmup, measure, period)
}

/// A completed suite run.
#[derive(Debug, Clone)]
pub struct BenchSuite {
    /// Instruction budget given to every cell.
    pub insts_per_cell: u64,
    /// Timed repetitions per cell (fastest kept).
    pub samples: u32,
    /// All cells, in benchmark-major order.
    pub cells: Vec<BenchCell>,
    /// One sampled-vs-full probe per preset in the matrix.
    pub probes: Vec<SamplingProbe>,
}

/// The full matrix: every workload of both families × every registry
/// preset.
#[must_use]
pub fn full_matrix() -> Vec<(WorkloadId, &'static str)> {
    WorkloadId::all()
        .into_iter()
        .flat_map(|b| presets().iter().map(move |p| (b, p.name)))
        .collect()
}

/// The smoke matrix: one small benchmark per family under the
/// instruction-cache baseline and the headline trace-cache front end.
/// Exercises both fetch paths and both workload families in seconds;
/// used by `tw bench --smoke` and CI.
#[must_use]
pub fn smoke_matrix() -> Vec<(WorkloadId, &'static str)> {
    vec![
        (WorkloadId::Synth(Benchmark::Compress), "icache"),
        (WorkloadId::Synth(Benchmark::Compress), "headline"),
        (WorkloadId::Rv(RvBench::Crc), "headline"),
    ]
}

/// Runs one timed cell, with `plan` (if any) attached to the
/// configuration (the `tw bench --plan auto` path).
///
/// # Panics
///
/// Panics if `config_name` is not in the preset registry.
#[must_use]
pub fn run_cell<W: Into<WorkloadId>>(
    benchmark: W,
    config_name: &'static str,
    insts: u64,
    samples: u32,
    plan: Option<&PromotionPlan>,
) -> BenchCell {
    let benchmark: WorkloadId = benchmark.into();
    let mut config: SimConfig = tc_sim::harness::lookup(config_name)
        .unwrap_or_else(|| panic!("unknown configuration preset {config_name:?}"))
        .with_max_insts(insts);
    if let Some(plan) = plan {
        config = config.with_promotion_plan(plan.clone());
    }
    let (report, wall_ns) = timed_run(&config, &benchmark.build(), samples);
    BenchCell {
        benchmark: benchmark.name(),
        config: config_name,
        instructions: report.instructions,
        cycles: report.cycles,
        wall_ns,
        stream_insts: report
            .sampling
            .as_ref()
            .map_or(report.instructions, |s| s.total_stream),
        fetch_rate: report.effective_fetch_rate(),
        mispredict_rate: report.cond_mispredict_rate(),
        promo_coverage: report.promo_coverage(),
    }
}

/// Runs `samples` (at least one) repetitions of one simulation and
/// returns the last report with the fastest wall time in nanoseconds.
fn timed_run(
    config: &SimConfig,
    workload: &tc_workloads::Workload,
    samples: u32,
) -> (SimReport, u64) {
    let run = || {
        let start = Instant::now();
        let report = Processor::new(config.clone()).run(workload);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (report, elapsed.max(1))
    };
    let (mut report, mut best_ns) = run();
    for _ in 1..samples {
        let (r, ns) = run();
        (report, best_ns) = (r, best_ns.min(ns));
    }
    (report, best_ns)
}

/// Runs one preset's sampled-vs-full probe on [`Benchmark::Compress`]
/// with a `insts`-instruction stream budget, timing `samples`
/// repetitions of each side and keeping the fastest.
///
/// # Panics
///
/// Panics if `config_name` is not in the preset registry.
#[must_use]
pub fn run_probe(config_name: &'static str, insts: u64, samples: u32) -> SamplingProbe {
    let base: SimConfig = tc_sim::harness::lookup(config_name)
        .unwrap_or_else(|| panic!("unknown configuration preset {config_name:?}"))
        .with_max_insts(insts);
    let (warmup, measure, period) = probe_spec(insts);
    let workload = Benchmark::Compress.build();
    let (full, full_wall_ns) = timed_run(&base, &workload, samples);
    let sampled_config = base.with_sampling(warmup, measure, period);
    let (sampled, sampled_wall_ns) = timed_run(&sampled_config, &workload, samples);
    let sampled_stream = sampled
        .sampling
        .as_ref()
        .map_or(sampled.instructions, |s| s.total_stream);
    SamplingProbe {
        config: config_name,
        benchmark: Benchmark::Compress.name(),
        full_wall_ns,
        sampled_wall_ns,
        full_insts: full.instructions,
        sampled_stream,
        full_fetch_rate: full.effective_fetch_rate(),
        sampled_fetch_rate: sampled.effective_fetch_rate(),
        full_mispredict_rate: full.cond_mispredict_rate(),
        sampled_mispredict_rate: sampled.cond_mispredict_rate(),
        full_promo_coverage: full.promo_coverage(),
        sampled_promo_coverage: sampled.promo_coverage(),
    }
}

/// Runs one probe per distinct preset in `matrix`, preserving first-seen
/// order, invoking `progress` after each finished probe.
pub fn run_sampling_probes(
    matrix: &[(WorkloadId, &'static str)],
    insts: u64,
    samples: u32,
    mut progress: impl FnMut(&SamplingProbe, usize, usize),
) -> Vec<SamplingProbe> {
    let mut configs: Vec<&'static str> = Vec::new();
    for &(_, config) in matrix {
        if !configs.contains(&config) {
            configs.push(config);
        }
    }
    let total = configs.len();
    let mut probes = Vec::with_capacity(total);
    for (i, config) in configs.into_iter().enumerate() {
        let probe = run_probe(config, insts, samples);
        progress(&probe, i + 1, total);
        probes.push(probe);
    }
    probes
}

/// Runs a whole matrix, invoking `progress` after each finished cell.
/// Each cell's configuration gets `plan_for(benchmark)` attached
/// (`None` runs the cell plain). The provider is called once per cell,
/// so memoize expensive plan construction per benchmark.
pub fn run_suite(
    matrix: &[(WorkloadId, &'static str)],
    insts: u64,
    samples: u32,
    mut plan_for: impl FnMut(WorkloadId) -> Option<PromotionPlan>,
    mut progress: impl FnMut(&BenchCell, usize, usize),
) -> BenchSuite {
    let mut cells = Vec::with_capacity(matrix.len());
    for (i, &(benchmark, config_name)) in matrix.iter().enumerate() {
        let plan = plan_for(benchmark);
        let cell = run_cell(benchmark, config_name, insts, samples, plan.as_ref());
        progress(&cell, i + 1, matrix.len());
        cells.push(cell);
    }
    BenchSuite {
        insts_per_cell: insts,
        samples,
        cells,
        probes: Vec::new(),
    }
}

/// Serializes a suite to the `tw-bench/v1` schema.
#[must_use]
pub fn suite_to_json(suite: &BenchSuite) -> Json {
    Json::Object(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("insts_per_cell", Json::UInt(suite.insts_per_cell)),
        ("samples", Json::UInt(u64::from(suite.samples))),
        (
            "cells",
            Json::Array(
                suite
                    .cells
                    .iter()
                    .map(|c| {
                        Json::Object(vec![
                            ("benchmark", Json::Str(c.benchmark.to_string())),
                            ("config", Json::Str(c.config.to_string())),
                            ("instructions", Json::UInt(c.instructions)),
                            ("cycles", Json::UInt(c.cycles)),
                            ("wall_ns", Json::UInt(c.wall_ns)),
                            ("ns_per_cycle", Json::Float(c.ns_per_cycle())),
                            ("instrs_per_sec", Json::Float(c.instrs_per_sec())),
                            ("stream_insts", Json::UInt(c.stream_insts)),
                            ("effective_mips", Json::Float(c.effective_mips())),
                            ("fetch_rate", Json::Float(c.fetch_rate)),
                            ("mispredict_rate", Json::Float(c.mispredict_rate)),
                            ("promo_coverage", Json::Float(c.promo_coverage)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sampling_probes",
            Json::Array(
                suite
                    .probes
                    .iter()
                    .map(|p| {
                        Json::Object(vec![
                            ("config", Json::Str(p.config.to_string())),
                            ("benchmark", Json::Str(p.benchmark.to_string())),
                            ("full_wall_ns", Json::UInt(p.full_wall_ns)),
                            ("sampled_wall_ns", Json::UInt(p.sampled_wall_ns)),
                            ("full_insts", Json::UInt(p.full_insts)),
                            ("sampled_stream", Json::UInt(p.sampled_stream)),
                            ("full_mips", Json::Float(p.full_mips())),
                            ("sampled_mips", Json::Float(p.sampled_mips())),
                            ("speedup", Json::Float(p.speedup())),
                            ("full_fetch_rate", Json::Float(p.full_fetch_rate)),
                            ("sampled_fetch_rate", Json::Float(p.sampled_fetch_rate)),
                            (
                                "fetch_rate_delta_pct",
                                Json::Float(p.fetch_rate_delta_pct()),
                            ),
                            ("full_mispredict_rate", Json::Float(p.full_mispredict_rate)),
                            (
                                "sampled_mispredict_rate",
                                Json::Float(p.sampled_mispredict_rate),
                            ),
                            ("mispredict_delta_pp", Json::Float(p.mispredict_delta_pp())),
                            ("full_promo_coverage", Json::Float(p.full_promo_coverage)),
                            (
                                "sampled_promo_coverage",
                                Json::Float(p.sampled_promo_coverage),
                            ),
                            (
                                "promo_coverage_delta_pp",
                                Json::Float(p.promo_coverage_delta_pp()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks that `text` parses as JSON and is a `tw-bench/v1` artifact
/// with at least one populated cell.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn check_artifact(text: &str) -> Result<(), String> {
    tc_sim::harness::parse_json(text)?;
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    if !compact.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    if !compact.contains("\"benchmark\":") || !compact.contains("\"ns_per_cycle\":") {
        return Err("no populated cells found".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_produces_populated_well_formed_artifact() {
        let mut suite = run_suite(&smoke_matrix(), 5_000, 1, |_| None, |_, _, _| {});
        suite.probes = run_sampling_probes(&smoke_matrix(), 100_000, 1, |_, _, _| {});
        assert_eq!(suite.cells.len(), smoke_matrix().len());
        for cell in &suite.cells {
            assert!(cell.instructions > 0);
            assert!(cell.cycles > 0);
            assert!(cell.wall_ns > 0);
            assert!(cell.ns_per_cycle() > 0.0);
            assert!(cell.instrs_per_sec() > 0.0);
            assert_eq!(
                cell.stream_insts, cell.instructions,
                "cells run full timing"
            );
            assert!(cell.effective_mips() > 0.0);
            assert!(cell.fetch_rate > 0.0);
            assert!(cell.mispredict_rate >= 0.0 && cell.mispredict_rate <= 1.0);
            assert!(cell.promo_coverage >= 0.0 && cell.promo_coverage <= 1.0);
        }
        assert_eq!(suite.probes.len(), 2, "one probe per distinct preset");
        for probe in &suite.probes {
            assert!(probe.full_insts >= 100_000);
            assert!(
                probe.sampled_stream >= 100_000,
                "sampling traverses the whole stream budget"
            );
            assert!(probe.speedup() > 1.0, "sampling must beat full timing");
            assert!(probe.full_fetch_rate > 0.0);
            assert!(probe.sampled_fetch_rate > 0.0);
        }
        let text = suite_to_json(&suite).pretty();
        check_artifact(&text).expect("smoke artifact is valid");
        assert!(text.contains("\"effective_mips\""));
        assert!(text.contains("\"sampling_probes\""));
    }

    #[test]
    fn full_matrix_covers_every_workload_and_preset() {
        let matrix = full_matrix();
        assert_eq!(
            matrix.len(),
            WorkloadId::COUNT * tc_sim::harness::presets().len()
        );
        assert!(matrix.iter().any(|(w, _)| w.family() == "rv32i"));
    }

    #[test]
    fn smoke_matrix_spans_both_families_and_fetch_paths() {
        let matrix = smoke_matrix();
        assert!(matrix.iter().any(|(w, _)| w.family() == "synthetic"));
        assert!(matrix.iter().any(|(w, _)| w.family() == "rv32i"));
        assert!(matrix.iter().any(|(_, c)| *c == "icache"));
        assert!(matrix.iter().any(|(_, c)| *c == "headline"));
    }

    #[test]
    fn check_artifact_rejects_foreign_or_empty_json() {
        assert!(check_artifact("{\"schema\":\"other/v9\"}").is_err());
        let empty = format!("{{\"schema\":\"{SCHEMA}\",\"cells\":[]}}");
        assert!(check_artifact(&empty).is_err(), "no cells");
        assert!(check_artifact("{\"cells\":[").is_err(), "malformed");
    }
}
