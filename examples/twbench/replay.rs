//! The traced run's per-layer attribution. Each layer's public calls are
//! replayed from outside over a region's instruction records, with a
//! span around every chunk, and one `Processor::run_from` pass over the
//! same region is timed beside them. What the timing loop spends beyond
//! the replayed layers (wrong-path fetch, repair, bookkeeping) is the
//! remainder `sim.other_ns_per_inst`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tc_cache::MemoryHierarchy;
use tc_core::{FrontEnd, InlineVec, NextPc, MAX_SEGMENT_BRANCHES, MAX_SEGMENT_INSTS};
use tc_engine::ExecutionEngine;
use tc_isa::{ExecRecord, Interpreter, Program};
use tc_sim::harness::report_to_json;
use tc_sim::{ExecutionMode, SimConfig, SimReport};

use crate::report::Report;
use crate::sim::{digest_reports, Region};
use crate::spans::Spans;
use crate::stats::{ratio, Summary};
use crate::Options;

/// Records materialised per replay chunk.
const CHUNK: usize = 1 << 16;

/// Instructions the engine replay issues per simulated cycle (the
/// machine's fetch width).
const ISSUE_PER_CYCLE: u64 = 16;

/// Host nanoseconds and work of one replay round, summed over regions.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    interp_ns: u64,
    fastpath_ns: u64,
    retire_ns: u64,
    /// The fetch walk, including the `retire` calls that fill the trace
    /// cache it fetches from.
    walk_ns: u64,
    warm_ns: u64,
    issue_ns: u64,
    data_ns: u64,
    run_ns: u64,
    insts: u64,
    fetch_calls: u64,
    data_accesses: u64,
    run_insts: u64,
    run_cycles: u64,
}

impl Round {
    fn per(num: u64, den: u64) -> f64 {
        ratio(num as f64, den as f64)
    }
}

/// Replays every layer over every region until `--seconds` have passed
/// (at least one round), then reports per-layer costs, simulated
/// counters, and sampling error. Returns the digest of the regions'
/// own-mode reports.
pub fn profile(regions: &[Region], opts: &Options, spans: &mut Spans, out: &mut Report) -> u64 {
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut full: Vec<SimReport> = Vec::with_capacity(regions.len());
    while rounds.is_empty() || started.elapsed() < budget {
        let round_start = spans.now();
        let round_id = spans.open();
        let mut round = Round::default();
        for (i, region) in regions.iter().enumerate() {
            let (report, problem) = replay_region(region, spans, round_id, &mut round);
            let problem = problem.or_else(|| region.check(&report));
            let problem = match full.get(i) {
                None => {
                    full.push(report);
                    problem
                }
                Some(first) => problem.or_else(|| {
                    (report_to_json(&report).render() != report_to_json(first).render())
                        .then(|| "report differs from the first round".to_string())
                }),
            };
            out.check(region.id.name(), problem);
        }
        spans.close(round_id, "replay.round", round_start, 0);
        rounds.push(round);
    }
    report_layers(&rounds, out);
    report_counters(&full, out);
    sampling_error(regions, &full, out)
}

/// The full-timing form of a region's configuration.
fn full_timing(config: &SimConfig) -> SimConfig {
    SimConfig {
        mode: ExecutionMode::FullTiming,
        ..config.clone()
    }
}

/// Replays one region through every layer and times one full-timing
/// pass over it. Returns that pass's report and any replay problem.
fn replay_region(
    region: &Region,
    spans: &mut Spans,
    parent: u64,
    round: &mut Round,
) -> (SimReport, Option<String>) {
    let config = full_timing(&region.config);
    let program = region.workload.program();
    let len = region.len();
    let region_start = spans.now();
    let region_id = spans.open();
    let mut problem = None;

    let mut fast = Interpreter::with_machine(program, region.start.clone());
    let t = spans.now();
    let skipped = fast.fast_forward(&region.blocks, len);
    round.fastpath_ns += span(spans, "isa.fastpath", t, region_id);
    if skipped != len {
        problem = Some(format!("fast-forwarded {skipped} of {len} instructions"));
    }

    let mut interp = Interpreter::with_machine(program, region.start.clone());
    let mut retire = FrontEnd::new(config.front_end);
    let mut walk = Walk::new(&config);
    let mut warm = FrontEnd::new(config.front_end);
    let mut issue = Issue::new(&config);
    let mut data = MemoryHierarchy::new(config.hierarchy);
    let mut recs: Vec<ExecRecord> = Vec::with_capacity(CHUNK);
    let mut left = len;
    while left > 0 {
        let want = left.min(CHUNK as u64) as usize;
        recs.clear();
        let t = spans.now();
        recs.extend(interp.by_ref().take(want));
        round.interp_ns += span(spans, "isa.interp", t, region_id);
        if recs.len() < want {
            problem = Some(format!("stream ended {left} instructions early"));
            break;
        }
        left -= want as u64;
        round.insts += want as u64;

        let t = spans.now();
        for rec in &recs {
            retire.retire(rec);
        }
        round.retire_ns += span(spans, "core.retire", t, region_id);

        let t = spans.now();
        walk.run(program, &recs);
        round.walk_ns += span(spans, "core.fetch", t, region_id);

        let t = spans.now();
        for rec in &recs {
            warm.warm(rec);
        }
        round.warm_ns += span(spans, "core.warm", t, region_id);

        let t = spans.now();
        issue.run(&recs);
        round.issue_ns += span(spans, "engine.issue", t, region_id);

        let t = spans.now();
        for rec in &recs {
            if let Some(addr) = rec.mem_addr {
                black_box(data.data_access(addr * 8)); // word -> byte address
                round.data_accesses += 1;
            }
        }
        round.data_ns += span(spans, "cache.data", t, region_id);
    }
    black_box((
        retire.stats(),
        warm.stats(),
        issue.engine.stats(),
        data.dcache_stats(),
    ));
    round.fetch_calls += walk.calls;

    let t = spans.now();
    let (report, _) = region.simulate(&config);
    round.run_ns += span(spans, "sim.run", t, region_id);
    round.run_insts += report.instructions;
    round.run_cycles += report.cycles;
    spans.close(region_id, region.id.name(), region_start, parent);
    (report, problem)
}

/// Closes a span that started at `start` now; returns its length in ns.
fn span(spans: &mut Spans, name: &'static str, start: u64, parent: u64) -> u64 {
    let end = spans.now();
    spans.record(name, start, end, parent);
    end - start
}

/// A correct-path walk of `FrontEnd::fetch`: fetch at the next record,
/// advance past the records the bundle matches, retire them (which
/// fills the trace cache), train the predictors, and repair history
/// after a misprediction.
struct Walk {
    fe: FrontEnd,
    mem: MemoryHierarchy,
    calls: u64,
}

impl Walk {
    fn new(config: &SimConfig) -> Walk {
        Walk {
            fe: FrontEnd::new(config.front_end),
            mem: MemoryHierarchy::new(config.hierarchy),
            calls: 0,
        }
    }

    fn run(&mut self, program: &Program, recs: &[ExecRecord]) {
        let mut i = 0;
        while i < recs.len() {
            let bundle = self.fe.fetch(recs[i].pc, program, &mut self.mem);
            self.calls += 1;
            let mut outcomes: InlineVec<bool, MAX_SEGMENT_BRANCHES> = InlineVec::new();
            let mut history: InlineVec<bool, MAX_SEGMENT_INSTS> = InlineVec::new();
            let mut mispredicted = false;
            let first = i;
            for fi in bundle.active() {
                let Some(rec) = recs.get(i).filter(|r| r.pc == fi.pc) else {
                    break;
                };
                self.fe.retire(rec);
                i += 1;
                if rec.is_cond_branch() {
                    history.push(rec.taken);
                    if !fi.promoted {
                        outcomes.push(rec.taken);
                    }
                    if fi.pred_taken.unwrap_or(!rec.taken) != rec.taken {
                        mispredicted = true;
                        break;
                    }
                }
            }
            if i == first {
                self.fe.retire(&recs[i]);
                i += 1;
            }
            if let (false, NextPc::Indirect { pc, .. }, Some(next)) =
                (mispredicted, bundle.next_pc, recs.get(i))
            {
                self.fe.train_indirect(pc, next.pc);
            }
            self.fe.train(&bundle.pred, &outcomes);
            if mispredicted {
                self.fe.restore_history(bundle.pred.history.snapshot());
                for &taken in &history {
                    self.fe.push_history(taken);
                }
            }
        }
    }
}

/// Issues records into the engine, `ISSUE_PER_CYCLE` per cycle,
/// stalling on a full window.
struct Issue {
    engine: ExecutionEngine,
    mem: MemoryHierarchy,
    cycle: u64,
    issued: u64,
}

impl Issue {
    fn new(config: &SimConfig) -> Issue {
        Issue {
            engine: ExecutionEngine::new(config.engine),
            mem: MemoryHierarchy::new(config.hierarchy),
            cycle: 0,
            issued: 0,
        }
    }

    fn run(&mut self, recs: &[ExecRecord]) {
        for rec in recs {
            while let Some(oldest) = self
                .engine
                .earliest_retire()
                .filter(|_| !self.engine.has_room())
            {
                self.cycle = self.cycle.max(oldest);
                self.engine.drain_retired(self.cycle);
            }
            black_box(self.engine.issue(rec, self.cycle, &mut self.mem));
            self.issued += 1;
            if self.issued.is_multiple_of(ISSUE_PER_CYCLE) {
                self.cycle += 1;
                self.engine.drain_retired(self.cycle);
            }
        }
    }
}

fn report_layers(rounds: &[Round], out: &mut Report) {
    let dist = |f: &dyn Fn(&Round) -> f64| Summary::of(&rounds.iter().map(f).collect::<Vec<_>>());
    let per_inst = |ns: fn(&Round) -> u64| dist(&|r| Round::per(ns(r), r.insts));
    out.timing(
        "isa.interp_ns_per_inst",
        per_inst(|r| r.interp_ns),
        "ns/inst",
    );
    out.timing(
        "isa.fastpath_ns_per_inst",
        per_inst(|r| r.fastpath_ns),
        "ns/inst",
    );
    out.timing(
        "core.retire_ns_per_inst",
        per_inst(|r| r.retire_ns),
        "ns/inst",
    );
    out.timing(
        "core.fetch_ns_per_call",
        dist(&|r| Round::per(r.walk_ns.saturating_sub(r.retire_ns), r.fetch_calls)),
        "ns/call",
    );
    out.add(
        "core.fetch_calls_per_kinst",
        1e3 * Round::per(rounds[0].fetch_calls, rounds[0].insts),
        "1/kinst",
    );
    out.timing("core.warm_ns_per_inst", per_inst(|r| r.warm_ns), "ns/inst");
    out.timing(
        "engine.issue_ns_per_inst",
        per_inst(|r| r.issue_ns),
        "ns/inst",
    );
    out.timing(
        "cache.data_ns_per_access",
        dist(&|r| Round::per(r.data_ns, r.data_accesses)),
        "ns/access",
    );
    out.timing(
        "sim.run_ns_per_inst",
        dist(&|r| Round::per(r.run_ns, r.run_insts)),
        "ns/inst",
    );
    out.timing(
        "sim.ns_per_cycle",
        dist(&|r| Round::per(r.run_ns, r.run_cycles)),
        "ns/cycle",
    );
    out.timing(
        "sim.other_ns_per_inst",
        dist(&|r| {
            Round::per(r.run_ns, r.run_insts)
                - Round::per(r.interp_ns + r.walk_ns + r.issue_ns, r.insts)
        }),
        "ns/inst",
    );
}

/// Simulated counters of the full-timing reports, each a ratio of sums.
fn report_counters(full: &[SimReport], out: &mut Report) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| full.iter().map(f).sum::<u64>() as f64;
    let pct = |num: f64, den: f64| 100.0 * ratio(num, den);
    let tc =
        |f: fn(&tc_core::TraceCacheStats) -> u64| sum(&|r| r.trace_cache.as_ref().map_or(0, f));
    let cond_all = sum(&|r| r.cond_branches + r.promoted_executed + r.promoted_faults);
    let promoted = sum(&|r| r.promoted_executed + r.promoted_faults);
    let cycles = sum(&|r| r.cycles);
    let insts = sum(&|r| r.instructions);

    out.add(
        "core.tc_hit_pct",
        pct(tc(|s| s.hits), tc(|s| s.hits + s.misses)),
        "%",
    );
    // Share of fill attempts dropped as duplicates of a resident segment.
    out.add(
        "core.tc_dup_fill_pct",
        pct(
            tc(|s| s.duplicate_fills),
            tc(|s| s.fills + s.duplicate_fills),
        ),
        "%",
    );
    out.add("core.promo_coverage_pct", pct(promoted, cond_all), "%");
    out.add(
        "core.promoted_fault_pct",
        pct(sum(&|r| r.promoted_faults), promoted),
        "%",
    );
    out.add(
        "core.promotions",
        sum(&|r| r.promotions.map_or(0, |p| p.0)),
        "count",
    );
    out.add(
        "core.demotions",
        sum(&|r| r.promotions.map_or(0, |p| p.1)),
        "count",
    );
    let preds = |k: usize| sum(&|r| r.fetch.predictions_used[k]);
    out.add(
        "predict.preds_per_fetch",
        ratio(
            preds(1) + 2.0 * preds(2) + 3.0 * preds(3),
            (0..4).map(preds).sum(),
        ),
        "1/fetch",
    );
    out.add(
        "predict.indirect_mispredict_pct",
        pct(
            sum(&|r| r.indirect_mispredicts),
            sum(&|r| r.indirect_executed),
        ),
        "%",
    );
    out.add(
        "engine.wait_cycles_per_inst",
        ratio(sum(&|r| r.engine.wait_cycles), sum(&|r| r.engine.issued)),
        "cycle/inst",
    );
    for (name, f) in [
        (
            "cache.icache_miss_pct",
            (|r: &SimReport| r.icache) as fn(&SimReport) -> tc_cache::CacheStats,
        ),
        ("cache.dcache_miss_pct", |r: &SimReport| r.dcache),
        ("cache.l2_miss_pct", |r: &SimReport| r.l2),
    ] {
        out.add(
            name,
            pct(sum(&|r| f(r).misses), sum(&|r| f(r).accesses())),
            "%",
        );
    }
    let acct = |f: fn(&tc_sim::CycleAccounting) -> u64| pct(sum(&|r| f(&r.accounting)), cycles);
    out.add("sim.acct.useful_pct", acct(|a| a.useful_fetch), "%");
    out.add("sim.acct.branch_miss_pct", acct(|a| a.branch_misses), "%");
    out.add("sim.acct.cache_miss_pct", acct(|a| a.cache_misses), "%");
    out.add("sim.acct.full_window_pct", acct(|a| a.full_window), "%");
    out.add(
        "sim.acct.trap_misfetch_pct",
        acct(|a| a.traps + a.misfetches),
        "%",
    );
    out.add(
        "sim.acct.unattributed_pct",
        pct(cycles - sum(&|r| r.accounting.total()), cycles),
        "%",
    );
    out.add(
        "sim.salvaged_per_kinst",
        1e3 * ratio(sum(&|r| r.salvaged), insts),
        "1/kinst",
    );
}

/// Runs each region sampled and compares against its full-timing report.
/// Regions shorter than one sampling period are not sampled. Returns the
/// digest of each region's own-mode report.
fn sampling_error(regions: &[Region], full: &[SimReport], out: &mut Report) -> u64 {
    let (mut windows, mut timed, mut stream, mut insts, mut cycles) = (0, 0, 0, 0, 0);
    let mut errs: [Vec<f64>; 4] = Default::default();
    let mut own = Vec::with_capacity(regions.len());
    for (region, f) in regions.iter().zip(full) {
        let own_sampled = matches!(region.config.mode, ExecutionMode::Sample { .. });
        let (warmup, measure, period) = region.sample;
        if region.len() < period {
            own.push(f.clone());
            continue;
        }
        let config = if own_sampled {
            region.config.clone()
        } else {
            full_timing(&region.config).with_sampling(warmup, measure, period)
        };
        let (s, _) = region.simulate(&config);
        out.check(region.id.name(), region.check(&s));
        let stats = s.sampling.unwrap_or_default();
        windows += stats.windows;
        timed += stats.measured + stats.warmed;
        stream += stats.total_stream;
        insts += s.instructions;
        cycles += s.cycles;
        let rel = |a: f64, b: f64| 100.0 * ratio((a - b).abs(), b);
        errs[0].push(rel(s.ipc(), f.ipc()));
        errs[1].push(rel(s.effective_fetch_rate(), f.effective_fetch_rate()));
        errs[2].push(100.0 * (s.cond_mispredict_rate() - f.cond_mispredict_rate()).abs());
        errs[3].push(100.0 * (coverage(&s) - coverage(f)).abs());
        own.push(if own_sampled { s } else { f.clone() });
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    out.add("sample.windows", windows as f64, "count");
    out.add(
        "sample.timed_pct",
        100.0 * ratio(timed as f64, stream as f64),
        "%",
    );
    out.add(
        "sample.ipc",
        ratio(insts as f64, cycles as f64),
        "inst/cycle",
    );
    out.add("sample.ipc_err_pct", mean(&errs[0]), "%");
    out.add("sample.fetch_err_pct", mean(&errs[1]), "%");
    out.add("sample.mispredict_err_pp", mean(&errs[2]), "pp");
    out.add("sample.promo_err_pp", mean(&errs[3]), "pp");
    digest_reports(&own)
}

/// Share of dynamic conditional branches that were promoted.
fn coverage(r: &SimReport) -> f64 {
    let promoted = r.promoted_executed + r.promoted_faults;
    ratio(promoted as f64, (r.cond_branches + promoted) as f64)
}
