//! Golden determinism test: the allocation-free fetch/fill hot path is
//! a pure restructuring, so every simulation result must be
//! bit-identical to the pre-change simulator.
//!
//! The fixtures under `tests/golden/` were captured from the simulator
//! *before* the hot path was restructured, via
//!
//! ```text
//! tw sim --bench <name> --config <baseline|headline> --insts 25000 --json
//! ```
//!
//! and are compared against the current code's full pretty-printed JSON
//! report, which covers every exported counter and derived metric. Do
//! not regenerate these fixtures from the current code — refreshing them
//! from the simulator under test would turn the determinism gate into a
//! tautology. Regenerate only when a change *intends* to alter
//! simulation results, and say so in the commit.

use tc_core::TraceCacheConfig;
use tc_sim::harness::{build_plan, plan_to_json, report_to_json};
use tc_sim::{simulate, FaultLocus, FaultPlan, SimConfig};
use tc_workloads::{Benchmark, RvBench, WorkloadId};

/// Instruction budget the preset fixtures were captured at.
const INSTS: u64 = 25_000;

/// Builds the capture configuration: the fixtures were emitted by the
/// release `tw` binary, where the invariant sanitizer defaults off, so
/// it is disabled explicitly here (tests compile with
/// `debug_assertions`, which would otherwise flip the default and the
/// `sanitizer.enabled` field).
fn capture_config(base: SimConfig, insts: u64) -> SimConfig {
    let mut config = base.with_max_insts(insts);
    config.front_end.sanitize = false;
    config
}

fn check<W: Into<WorkloadId>>(bench: W, config_name: &str, config: SimConfig, fixture: &str) {
    let bench: WorkloadId = bench.into();
    let report = simulate(bench, &config);
    let rendered = format!("{}\n", report_to_json(&report).pretty());
    assert_eq!(
        rendered,
        fixture,
        "{} / {config_name}: report differs from the pre-change capture",
        bench.name()
    );
}

macro_rules! golden {
    ($($name:ident, $bench:ident, $file:literal;)*) => {
        $(
            #[test]
            fn $name() {
                let (config_name, config) = if $file.ends_with("-baseline.json") {
                    ("baseline", SimConfig::baseline())
                } else {
                    ("headline", SimConfig::headline_perf())
                };
                check(
                    Benchmark::$bench,
                    config_name,
                    capture_config(config, INSTS),
                    include_str!(concat!("golden/", $file)),
                );
            }
        )*
    };
}

golden! {
    compress_baseline, Compress, "compress-baseline.json";
    compress_headline, Compress, "compress-headline.json";
    gcc_baseline, Gcc, "gcc-baseline.json";
    gcc_headline, Gcc, "gcc-headline.json";
    go_baseline, Go, "go-baseline.json";
    go_headline, Go, "go-headline.json";
    ijpeg_baseline, Ijpeg, "ijpeg-baseline.json";
    ijpeg_headline, Ijpeg, "ijpeg-headline.json";
    li_baseline, Li, "li-baseline.json";
    li_headline, Li, "li-headline.json";
    m88ksim_baseline, M88ksim, "m88ksim-baseline.json";
    m88ksim_headline, M88ksim, "m88ksim-headline.json";
    perl_baseline, Perl, "perl-baseline.json";
    perl_headline, Perl, "perl-headline.json";
    vortex_baseline, Vortex, "vortex-baseline.json";
    vortex_headline, Vortex, "vortex-headline.json";
    gnuchess_baseline, Gnuchess, "gnuchess-baseline.json";
    gnuchess_headline, Gnuchess, "gnuchess-headline.json";
    gs_baseline, Ghostscript, "gs-baseline.json";
    gs_headline, Ghostscript, "gs-headline.json";
    pgp_baseline, Pgp, "pgp-baseline.json";
    pgp_headline, Pgp, "pgp-headline.json";
    python_baseline, Python, "python-baseline.json";
    python_headline, Python, "python-headline.json";
    gnuplot_baseline, Gnuplot, "gnuplot-baseline.json";
    gnuplot_headline, Gnuplot, "gnuplot-headline.json";
    ss_baseline, SimOutorder, "ss-baseline.json";
    ss_headline, SimOutorder, "ss-headline.json";
    tex_baseline, Tex, "tex-baseline.json";
    tex_headline, Tex, "tex-headline.json";
}

/// The compiled `rv/` family goes through the same determinism gate:
/// the fixtures were captured from the release `tw` binary the same
/// way as the synthetic ones, one RV workload under both presets.
macro_rules! golden_rv {
    ($($name:ident, $bench:ident, $file:literal;)*) => {
        $(
            #[test]
            fn $name() {
                let (config_name, config) = if $file.ends_with("-baseline.json") {
                    ("baseline", SimConfig::baseline())
                } else {
                    ("headline", SimConfig::headline_perf())
                };
                check(
                    RvBench::$bench,
                    config_name,
                    capture_config(config, INSTS),
                    include_str!(concat!("golden/", $file)),
                );
            }
        )*
    };
}

golden_rv! {
    rv_crc_baseline, Crc, "rv-crc-baseline.json";
    rv_crc_headline, Crc, "rv-crc-headline.json";
}

/// Instruction budget of the fixtures below: long enough to leave the
/// warm-up loops and exercise eviction, wrong-path fetch and fault
/// recovery.
const WIDE_INSTS: u64 = 100_000;

/// Fixtures for paths the preset fixtures above miss, by file stem: the
/// i-cache machine (wrong-path fetch through the i-cache), a
/// path-associative trace cache, an eviction-heavy 64-entry trace
/// cache, fault injection (which forces the sanitizer on), and a
/// two-entry return stack under return-stack faults (return
/// misfetches and return mispredicts: a drop-oldest stack only ever
/// runs empty, so wrong return targets need a clobbered entry). They
/// were captured from this function's configurations, at
/// [`WIDE_INSTS`], before the code each one guards was restructured:
/// the trace cache and the cache tag stores, and for the return-stack
/// fixture the timing loop's target check.
fn wide_config(stem: &str) -> (WorkloadId, SimConfig) {
    let headline = SimConfig::headline_perf();
    let (bench, config): (WorkloadId, SimConfig) = match stem {
        "rv-crc-icache" => (RvBench::Crc.into(), SimConfig::icache()),
        "gcc-headline-passoc" => (Benchmark::Gcc.into(), headline.with_path_associativity()),
        "go-headline-tc64" => {
            let mut config = headline;
            config.front_end.trace_cache = Some(TraceCacheConfig::with_entries(64));
            (Benchmark::Go.into(), config)
        }
        "compress-headline-faults" => {
            let config = capture_config(headline, WIDE_INSTS);
            let faults = config.with_fault_plan(FaultPlan::with_rate(1, 1e-2));
            return (Benchmark::Compress.into(), faults);
        }
        "li-baseline-ras2-faults" => {
            let config = capture_config(SimConfig::baseline().with_finite_ras(2), WIDE_INSTS);
            let faults = FaultPlan::with_rate(1, 1e-2).targeting(&[FaultLocus::Ras]);
            return (Benchmark::Li.into(), config.with_fault_plan(faults));
        }
        _ => unreachable!("no wide fixture {stem}"),
    };
    (bench, capture_config(config, WIDE_INSTS))
}

macro_rules! golden_wide {
    ($($name:ident, $stem:literal;)*) => {
        $(
            #[test]
            fn $name() {
                let (bench, config) = wide_config($stem);
                check(bench, $stem, config, include_str!(concat!("golden/", $stem, "-100k.json")));
            }
        )*
    };
}

golden_wide! {
    rv_crc_icache_100k, "rv-crc-icache";
    gcc_headline_passoc_100k, "gcc-headline-passoc";
    go_headline_tc64_100k, "go-headline-tc64";
    compress_headline_faults_100k, "compress-headline-faults";
    li_baseline_ras2_faults_100k, "li-baseline-ras2-faults";
}

/// Fixtures for the execution modes the full-timing fixtures above do
/// not reach, by file stem: sampled simulation on the paper's machine
/// and on the i-cache machine (fast-forward, functional warm-up and the
/// pipeline drain between windows), and a fast-forward followed by a
/// timed region. They were captured from the release `tw` binary with
/// the flags noted beside each configuration, before the oracle and
/// retire queues were merged into one record queue.
fn mode_config(stem: &str) -> (WorkloadId, SimConfig) {
    let headline = SimConfig::headline_perf();
    let (bench, config): (WorkloadId, SimConfig) = match stem {
        // tw sim --bench gcc --config headline --insts 400000
        //   --sample 2000/100000 --warmup 8000 --json
        "gcc-headline-sampled-400k" => (
            Benchmark::Gcc.into(),
            headline
                .with_sampling(8_000, 2_000, 100_000)
                .with_max_insts(400_000),
        ),
        // tw sim --bench perl --config headline --insts 100000
        //   --fast-forward 200000 --json
        "perl-headline-ff200k-100k" => (
            Benchmark::Perl.into(),
            headline.with_fast_forward(200_000).with_max_insts(100_000),
        ),
        // tw sim --bench rv/qsort --config icache --insts 300000
        //   --sample 2000/25000 --warmup 4000 --json
        "rv-qsort-icache-sampled-300k" => (
            RvBench::Qsort.into(),
            SimConfig::icache()
                .with_sampling(4_000, 2_000, 25_000)
                .with_max_insts(300_000),
        ),
        _ => unreachable!("no mode fixture {stem}"),
    };
    let max_insts = config.max_insts;
    (bench, capture_config(config, max_insts))
}

macro_rules! golden_modes {
    ($($name:ident, $stem:literal;)*) => {
        $(
            #[test]
            fn $name() {
                let (bench, config) = mode_config($stem);
                check(bench, $stem, config, include_str!(concat!("golden/", $stem, ".json")));
            }
        )*
    };
}

golden_modes! {
    gcc_headline_sampled_400k, "gcc-headline-sampled-400k";
    perl_headline_ff200k_100k, "perl-headline-ff200k-100k";
    rv_qsort_icache_sampled_300k, "rv-qsort-icache-sampled-300k";
}

/// Promotion-plan fixtures, captured from the release `tw` binary with
/// `tw analyze --workload <name> --insts 450000 --json` while the
/// profiler still replayed the stream in 200k-instruction chunks, so
/// they pin the counts across what were two chunk boundaries.
macro_rules! golden_plans {
    ($($name:ident, $bench:expr, $stem:literal;)*) => {
        $(
            #[test]
            fn $name() {
                let bench: WorkloadId = $bench.into();
                let plan = build_plan(&bench.build(), 450_000).unwrap();
                assert_eq!(
                    format!("{}\n", plan_to_json(&plan).pretty()),
                    include_str!(concat!("golden/", $stem, ".json")),
                    "{}: plan differs from the captured one",
                    bench.name()
                );
            }
        )*
    };
}

golden_plans! {
    plan_li_450k, Benchmark::Li, "plan-li-450k";
    plan_go_450k, Benchmark::Go, "plan-go-450k";
    plan_rv_qsort_450k, RvBench::Qsort, "plan-rv-qsort-450k";
}
