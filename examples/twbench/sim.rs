//! The three simulation workloads (`tc-full`, `ic-rv`, `sampled`): each
//! times `Processor::run_from` over one seeded region per program.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tc_isa::{BlockCache, Machine};
use tc_sim::harness::{lookup, report_to_json};
use tc_sim::{Processor, SimConfig, SimReport};
use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
use tc_workloads::{Benchmark, RvBench, Workload, WorkloadId};

use crate::host::{self, HostSpeed};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{fnv1a, ratio, Summary};
use crate::{replay, serve, Options};

/// SMARTS window of the `sampled` workload: functional warming, timed
/// measure, and period, in instructions.
pub const SAMPLE: (u64, u64, u64) = (8_000, 2_000, 100_000);

/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;

/// The seed whose regions give the simulated metrics (`ipc`,
/// `eff_fetch_rate`, `cond_mispredict_pct`) whatever `--seed` is: they
/// then read the same on every run of one model, so their bound is 0
/// and any change in them is a change of the model.
pub const FIXED_SEED: u64 = 0;

/// A fetch validates a whole bundle before the budget is re-checked,
/// so a run may overshoot its budget by less than one fetch width.
const MAX_OVERSHOOT: u64 = 16;

/// One simulation workload: which programs, under which preset, over
/// how long a region, starting where.
pub struct SimWorkload {
    pub name: &'static str,
    preset: &'static str,
    programs: Vec<WorkloadId>,
    /// Stream instructions per region.
    len: u64,
    /// Region starts are drawn uniformly from `[0, max_offset)`.
    max_offset: u64,
    /// Whether the workload itself runs sampled (otherwise full timing).
    sampled: bool,
    /// The sampling window, scaled with the region.
    sample: (u64, u64, u64),
}

impl SimWorkload {
    /// The paper's machine on the 15 synthetic programs. `div` shrinks
    /// every length (smoke runs).
    pub fn tc_full(div: u64) -> SimWorkload {
        SimWorkload {
            name: "tc-full",
            preset: "headline",
            programs: Benchmark::ALL.iter().map(|&b| b.into()).collect(),
            len: 1_000_000 / div,
            // `go` halts after 1.25M instructions: the region must fit.
            max_offset: 250_000 / div,
            sampled: false,
            sample: scaled(SAMPLE, div),
        }
    }

    /// The i-cache reference machine on the 10 RV32I programs.
    pub fn ic_rv(div: u64) -> SimWorkload {
        SimWorkload {
            name: "ic-rv",
            preset: "icache",
            programs: RvBench::ALL.iter().map(|&r| r.into()).collect(),
            len: 2_000_000 / div,
            // `rv/dispatch` halts after 6.8M instructions.
            max_offset: 4_000_000 / div,
            sampled: false,
            sample: scaled(SAMPLE, div),
        }
    }

    /// Sampled simulation of the headline machine over a long stream.
    pub fn sampled(div: u64) -> SimWorkload {
        let programs = [
            "gcc",
            "perl",
            "vortex",
            "gnuchess",
            "rv/qsort",
            "rv/crc",
            "rv/matmul",
            "rv/listchase",
        ];
        SimWorkload {
            name: "sampled",
            preset: "headline",
            programs: programs
                .iter()
                .map(|n| WorkloadId::from_name(n).expect("registered workload"))
                .collect(),
            len: 4_000_000 / div,
            // `gcc` halts after 6.5M instructions.
            max_offset: 2_000_000 / div,
            sampled: true,
            sample: scaled(SAMPLE, div),
        }
    }

    /// Region starts, one per program, drawn from the seed.
    pub fn offsets(&self, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ fnv1a(self.name.as_bytes()));
        self.programs
            .iter()
            .map(|_| rng.gen_range(0..self.max_offset.max(1)))
            .collect()
    }

    /// Builds every program and positions a machine at its region start;
    /// also returns the time spent building programs.
    pub fn prepare(&self, offsets: &[u64]) -> Result<(Vec<Region>, Duration), String> {
        let base = preset(self.preset).with_max_insts(self.len);
        let config = if self.sampled {
            let (warmup, measure, period) = self.sample;
            base.with_sampling(warmup, measure, period)
        } else {
            base
        };
        let mut build = Duration::ZERO;
        let regions = self
            .programs
            .iter()
            .zip(offsets)
            .map(|(&id, &offset)| {
                let t = Instant::now();
                let workload = id.build();
                build += t.elapsed();
                Region::new(id, workload, config.clone(), offset, self.sample)
            })
            .collect::<Result<_, _>>()?;
        Ok((regions, build))
    }
}

fn scaled((warmup, measure, period): (u64, u64, u64), div: u64) -> (u64, u64, u64) {
    (warmup / div, (measure / div).max(1), period / div)
}

/// The registry preset `name`.
pub fn preset(name: &str) -> SimConfig {
    lookup(name).expect("preset is registered")
}

/// One program positioned at the start of its seeded region.
pub struct Region {
    pub id: WorkloadId,
    pub workload: Workload,
    pub blocks: BlockCache,
    /// Architectural state at the region start.
    pub start: Machine,
    /// The workload's own configuration; `max_insts` is the region's
    /// stream length.
    pub config: SimConfig,
    /// Sampling window used to measure sampling error on this region.
    pub sample: (u64, u64, u64),
}

impl Region {
    pub fn new(
        id: WorkloadId,
        workload: Workload,
        config: SimConfig,
        offset: u64,
        sample: (u64, u64, u64),
    ) -> Result<Region, String> {
        let blocks = BlockCache::new(workload.program());
        let mut interp = workload.interpreter();
        let skipped = interp.fast_forward(&blocks, offset);
        if skipped != offset || interp.error().is_some() {
            return Err(format!(
                "{} stopped after {skipped} of {offset} instructions ({:?})",
                id.name(),
                interp.error()
            ));
        }
        let start = interp.machine().clone();
        drop(interp);
        Ok(Region {
            id,
            workload,
            blocks,
            start,
            config,
            sample,
        })
    }

    pub fn len(&self) -> u64 {
        self.config.max_insts
    }

    /// Simulates the region under `config` from a fresh processor;
    /// returns the report and the time taken.
    pub fn simulate(&self, config: &SimConfig) -> (SimReport, Duration) {
        let machine = self.start.clone();
        let t = Instant::now();
        let report = Processor::new(config.clone()).run_from(&self.workload, machine);
        (black_box(report), t.elapsed())
    }

    /// Why `report` is not a correct run of this region, if it is not.
    pub fn check(&self, report: &SimReport) -> Option<String> {
        let ran = report
            .sampling
            .map_or(report.instructions, |s| s.total_stream);
        let want = self.len();
        if !(want..want + MAX_OVERSHOOT).contains(&ran) {
            return Some(format!("ran {ran} instructions for a budget of {want}"));
        }
        if report.sanitizer.errors > 0 {
            return Some(format!("{} sanitizer violations", report.sanitizer.errors));
        }
        if report.accounting.total() > report.cycles + 1 {
            return Some(format!(
                "accounts for {} cycles of {}",
                report.accounting.total(),
                report.cycles
            ));
        }
        None
    }
}

/// Simulated statistics summed over reports, so each ratio is
/// Σ numerator ÷ Σ denominator.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub instructions: f64,
    pub cycles: f64,
    pub correct_fetched: f64,
    pub productive_fetches: f64,
    pub cond_mispredicted: f64,
    pub cond_total: f64,
}

impl SimTotals {
    pub fn add(&mut self, r: &SimReport) {
        self.instructions += r.instructions as f64;
        self.cycles += r.cycles as f64;
        self.correct_fetched += r.fetch.correct_instructions as f64;
        self.productive_fetches += r.fetch.productive_fetches as f64;
        self.cond_mispredicted += (r.cond_mispredicts + r.promoted_faults) as f64;
        self.cond_total += (r.cond_branches + r.promoted_executed + r.promoted_faults) as f64;
    }

    pub fn merge(&mut self, other: &SimTotals) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.correct_fetched += other.correct_fetched;
        self.productive_fetches += other.productive_fetches;
        self.cond_mispredicted += other.cond_mispredicted;
        self.cond_total += other.cond_total;
    }

    pub fn report_to(&self, out: &mut Report) {
        out.add("ipc", ratio(self.instructions, self.cycles), "inst/cycle");
        out.add(
            "eff_fetch_rate",
            ratio(self.correct_fetched, self.productive_fetches),
            "inst/fetch",
        );
        out.add(
            "cond_mispredict_pct",
            100.0 * ratio(self.cond_mispredicted, self.cond_total),
            "%",
        );
    }
}

/// Folds report JSON into a digest of simulated results.
pub fn digest_reports<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    reports.into_iter().fold(0, |acc, r| {
        acc.rotate_left(5) ^ fnv1a(report_to_json(r).render().as_bytes())
    })
}

/// Runs `setup` `setups` times, each between two calibration readings,
/// reporting the median time scaled to the reference host as `setup_s`,
/// and returns the last result (earlier ones are dropped first).
pub fn timed_setups<T>(
    out: &mut Report,
    speed: &mut HostSpeed,
    setups: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        drop(last.take());
        speed.mark();
        let t = Instant::now();
        let value = setup()?;
        let elapsed = t.elapsed().as_secs_f64();
        times.push(elapsed / speed.factor());
        last = Some(value);
    }
    out.timing("setup_s", Summary::of(&times), "s");
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Runs one simulation workload, untraced or traced.
pub fn run(
    wl: &SimWorkload,
    opts: &Options,
    speed: &mut HostSpeed,
    spans: &mut Spans,
    out: &mut Report,
) {
    let listing = |offsets: &[u64]| {
        wl.programs
            .iter()
            .zip(offsets)
            .map(|(id, off)| format!("{}@{off}", id.name()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let offsets = wl.offsets(opts.seed);
    println!(
        "twbench: {} preset {} region {} offsets {}",
        wl.name,
        wl.preset,
        wl.len,
        listing(&offsets)
    );
    if !opts.trace {
        let fixed = wl.offsets(FIXED_SEED);
        println!("twbench: {} fixed offsets {}", wl.name, listing(&fixed));
        match wl.prepare(&fixed) {
            Ok((regions, _)) => fixed_pass(&regions, out),
            Err(e) => out.fail("fixed regions", &e),
        }
    }

    let mut build_ms = Vec::new();
    let prepared = timed_setups(out, speed, SETUPS, || {
        let (regions, build) = wl.prepare(&offsets)?;
        build_ms.push(build.as_secs_f64() * 1e3);
        Ok(regions)
    });
    out.timing("workloads.build_ms", Summary::of(&build_ms), "ms");
    let regions = match prepared {
        Ok(regions) => regions,
        Err(e) => {
            out.fail("setup", &e);
            return;
        }
    };

    if opts.trace {
        let cpu = host::CpuMeter::start();
        out.digest = replay::profile(&regions, opts, spans, out);
        out.add("host.cpu_share", cpu.share(1), "ratio");
        serve::probe(&regions, wl.preset, opts, spans, out);
    } else {
        timed_passes(&regions, opts, speed, out);
    }
}

/// The untimed pass over the fixed regions, before set-up: it lets
/// caches and the allocator settle and gives the simulated metrics.
fn fixed_pass(regions: &[Region], out: &mut Report) {
    let mut totals = SimTotals::default();
    for region in regions {
        let (report, _) = region.simulate(&region.config);
        out.check(region.id.name(), region.check(&report));
        totals.add(&report);
    }
    totals.report_to(out);
}

/// The untraced measurement: timed passes over the seeded regions until
/// `--seconds` have passed (at least two whole passes). Every pass must
/// reproduce the first pass's reports exactly.
///
/// The host's speed moves by up to half for seconds at a time, so each
/// region's time is scaled by the calibration readings on either side
/// of it, and the region's time is its quiet time over passes.
fn timed_passes(regions: &[Region], opts: &Options, speed: &mut HostSpeed, out: &mut Report) {
    let stream = |r: &SimReport| r.sampling.map_or(r.instructions, |s| s.total_stream) as f64;
    let budget = Duration::from_secs_f64(opts.seconds);
    let cpu = host::CpuMeter::start();
    let started = Instant::now();
    // The first pass's reports, and their JSON.
    let mut first: Vec<SimReport> = Vec::with_capacity(regions.len());
    let mut first_json: Vec<String> = Vec::with_capacity(regions.len());
    // Seconds per pass, per region, scaled to the reference host.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); regions.len()];
    speed.mark();
    // The last pass stops where the budget runs out, so a run overshoots
    // its budget by at most one region.
    'passes: for pass in 0.. {
        for (i, region) in regions.iter().enumerate() {
            if pass >= 2 && started.elapsed() >= budget {
                break 'passes;
            }
            let (report, dt) = region.simulate(&region.config);
            times[i].push(dt.as_secs_f64() / speed.factor());
            let json = report_to_json(&report).render();
            let problem = region.check(&report).or_else(|| {
                first_json
                    .get(i)
                    .is_some_and(|first| *first != json)
                    .then(|| "report differs from the first pass".to_string())
            });
            out.check(region.id.name(), problem);
            if first.len() == i {
                first.push(report);
                first_json.push(json);
            }
        }
    }
    out.add("host.cpu_share", cpu.share(1), "ratio");
    out.digest = digest_reports(&first);
    let insts: f64 = first.iter().map(stream).sum();
    let pass: f64 = times.iter().map(|t| host::quiet_time(t)).sum();
    out.add("sim_mips", insts / pass / 1e6, "Minst/s");
    out.add("ops_per_s", regions.len() as f64 / pass, "1/s");
    let op_ms: Vec<f64> = times.iter().flatten().map(|t| t * 1e3).collect();
    out.timing("op_ms", Summary::of(&op_ms), "ms");
}
