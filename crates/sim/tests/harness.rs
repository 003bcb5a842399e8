//! Integration tests for the experiment-harness layer: registry
//! round-trips, parallel-vs-serial determinism of the matrix runner, and
//! the JSON report schema.

use tc_sim::harness::{
    lookup, parse_json, preset, presets, report_to_json, run_matrix, standard_five, Json,
    MatrixRunner, STANDARD_FIVE,
};
use tc_sim::{simulate, SimConfig};
use tc_workloads::{Benchmark, RvBench, WorkloadId};

// --- registry ---------------------------------------------------------

#[test]
fn every_registry_name_round_trips() {
    for p in presets() {
        let by_name = lookup(p.name).expect("name resolves");
        assert_eq!(by_name.label(), p.build().label(), "{}", p.name);
        for alias in p.aliases {
            let by_alias = lookup(alias).expect("alias resolves");
            assert_eq!(by_alias.label(), by_name.label(), "{alias} != {}", p.name);
        }
    }
    assert!(lookup("no-such-config").is_none());
    assert!(preset("no-such-config").is_none());
}

#[test]
fn registry_labels_are_unique() {
    let mut labels: Vec<String> = presets().iter().map(|p| p.build().label()).collect();
    labels.sort();
    let before = labels.len();
    labels.dedup();
    assert_eq!(
        labels.len(),
        before,
        "two presets build the same configuration"
    );
}

#[test]
fn standard_five_covers_figure_10() {
    let five = standard_five();
    assert_eq!(five.len(), STANDARD_FIVE.len());
    for ((name, config), expected) in five.iter().zip(STANDARD_FIVE) {
        assert_eq!(*name, expected);
        assert_eq!(
            config.label(),
            lookup(expected).expect("registered").label()
        );
    }
}

// --- matrix runner ----------------------------------------------------

/// Mixed-family cells (two synthetic benchmarks and one translated
/// RV32I workload) under the five standard configurations: the
/// parallel run must be bit-identical to the serial run, in the same
/// order. Reports are compared through their full JSON rendering, which
/// covers every exported counter.
#[test]
fn parallel_matrix_is_bit_identical_to_serial() {
    let workloads = [
        WorkloadId::Synth(Benchmark::Compress),
        WorkloadId::Synth(Benchmark::Li),
        WorkloadId::Rv(RvBench::Crc),
    ];
    let cells: Vec<(WorkloadId, SimConfig)> = workloads
        .into_iter()
        .flat_map(|bench| {
            standard_five()
                .into_iter()
                .map(move |(_, config)| (bench, config.with_max_insts(30_000)))
        })
        .collect();
    let serial = run_matrix(&cells, 1);
    let parallel = run_matrix(&cells, 4);
    assert_eq!(serial.len(), cells.len());
    assert_eq!(parallel.len(), cells.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            report_to_json(s).render(),
            report_to_json(p).render(),
            "cell {i} ({} / {}) differs between serial and parallel runs",
            cells[i].0.name(),
            cells[i].1.label()
        );
    }
}

/// Determinism survives an attached promotion plan: a plan-carrying
/// matrix (per-branch bias overrides + per-class attribution) is
/// bit-identical between serial and parallel runs.
#[test]
fn planned_matrix_is_bit_identical_to_serial() {
    let bench = Benchmark::Compress;
    let plan = tc_sim::harness::build_plan(&bench.build(), 100_000).unwrap();
    let cells: Vec<(Benchmark, SimConfig)> = standard_five()
        .into_iter()
        .map(|(_, config)| {
            (
                bench,
                config
                    .with_max_insts(30_000)
                    .with_promotion_plan(plan.clone()),
            )
        })
        .collect();
    let serial = run_matrix(&cells, 1);
    let parallel = run_matrix(&cells, 4);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert!(s.plan.is_some(), "plan stats attached");
        assert_eq!(
            report_to_json(s).render(),
            report_to_json(p).render(),
            "planned cell {i} ({}) differs between serial and parallel runs",
            cells[i].1.label()
        );
    }
}

/// The matrix runner's worker threads really run the cells (results are
/// collected in caller order regardless of completion order).
#[test]
fn run_matrix_preserves_caller_order() {
    let cells = vec![
        (Benchmark::Li, SimConfig::baseline().with_max_insts(20_000)),
        (
            Benchmark::Compress,
            SimConfig::icache().with_max_insts(20_000),
        ),
        (Benchmark::Li, SimConfig::icache().with_max_insts(20_000)),
    ];
    let reports = run_matrix(&cells, 3);
    assert_eq!(reports[0].benchmark, "li");
    assert_eq!(reports[0].config, "tc");
    assert_eq!(reports[1].benchmark, "compress");
    assert_eq!(reports[2].benchmark, "li");
    assert_eq!(reports[2].config, "icache");
}

/// The memoizing runner returns the same report for repeated cells and
/// agrees with a direct simulation at the same budget.
#[test]
fn matrix_runner_memoizes() {
    let mut runner = MatrixRunner::new(20_000, 2);
    let config = SimConfig::baseline();
    let first = runner.run(Benchmark::Compress, &config).clone();
    let again = runner.run(Benchmark::Compress, &config).clone();
    assert_eq!(
        report_to_json(&first).render(),
        report_to_json(&again).render()
    );
    let direct = simulate(Benchmark::Compress, &config.with_max_insts(20_000));
    assert_eq!(first.cycles, direct.cycles);
    assert_eq!(first.instructions, direct.instructions);
}

// --- JSON report schema ----------------------------------------------

fn keys(v: &Json) -> Vec<&'static str> {
    match v {
        Json::Object(fields) => fields.iter().map(|(k, _)| *k).collect(),
        _ => panic!("expected object"),
    }
}

/// Golden test: the top-level key set of a report is stable, contains
/// the headline metrics and the six cycle-accounting categories, and
/// every numeric leaf is finite.
#[test]
fn json_report_schema_is_stable() {
    let report = simulate(
        Benchmark::Compress,
        &SimConfig::baseline().with_max_insts(30_000),
    );
    let json = report_to_json(&report);

    assert_eq!(
        keys(&json),
        [
            "benchmark",
            "config",
            "instructions",
            "cycles",
            "ipc",
            "effective_fetch_rate",
            "cond_mispredict_rate",
            "avg_resolution_time",
            "cond_branches",
            "cond_mispredicts",
            "promoted_executed",
            "promoted_faults",
            "indirect_executed",
            "indirect_mispredicts",
            "return_mispredicts",
            "salvaged",
            "accounting",
            "fetch",
            "trace_cache",
            "promotions",
            "caches",
            "engine",
            "sanitizer",
        ]
    );
    assert_eq!(
        keys(json.get("sanitizer").expect("sanitizer object")),
        [
            "enabled",
            "checked_fills",
            "checked_hits",
            "errors",
            "warnings"
        ]
    );
    assert_eq!(
        keys(json.get("accounting").expect("accounting object")),
        [
            "useful_fetch",
            "branch_misses",
            "cache_misses",
            "full_window",
            "traps",
            "misfetches",
            "unaccounted",
        ]
    );

    fn assert_finite(v: &Json, path: &str) {
        match v {
            Json::Float(f) => assert!(f.is_finite(), "non-finite float at {path}"),
            Json::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    assert_finite(item, &format!("{path}[{i}]"));
                }
            }
            Json::Object(fields) => {
                for (k, item) in fields {
                    assert_finite(item, &format!("{path}.{k}"));
                }
            }
            Json::Null | Json::Bool(_) | Json::UInt(_) | Json::Str(_) => {}
        }
    }
    assert_finite(&json, "report");

    // Both renderings parse as JSON.
    parse_json(&json.render()).expect("compact render is well-formed");
    parse_json(&json.pretty()).expect("pretty render is well-formed");

    // Headline metrics agree with the report's accessors.
    match json.get("ipc") {
        Some(Json::Float(v)) => assert!((v - report.ipc()).abs() < 1e-12),
        other => panic!("ipc not a float: {other:?}"),
    }
    match json.get("effective_fetch_rate") {
        Some(Json::Float(v)) => {
            assert!((v - report.effective_fetch_rate()).abs() < 1e-12);
        }
        other => panic!("effective_fetch_rate not a float: {other:?}"),
    }
}

/// `trace_cache` and `promotions` are null exactly when the front end
/// has no such structure.
#[test]
fn json_optional_sections_track_config() {
    let icache = simulate(
        Benchmark::Compress,
        &SimConfig::icache().with_max_insts(20_000),
    );
    let json = report_to_json(&icache);
    assert!(matches!(json.get("trace_cache"), Some(Json::Null)));
    assert!(matches!(json.get("promotions"), Some(Json::Null)));

    let promo = simulate(
        Benchmark::Compress,
        &SimConfig::promotion(64).with_max_insts(20_000),
    );
    let json = report_to_json(&promo);
    assert!(matches!(json.get("trace_cache"), Some(Json::Object(_))));
    assert!(matches!(json.get("promotions"), Some(Json::Object(_))));
}

// --- invariant sanitizer ----------------------------------------------

/// With the sanitizer on (set explicitly, so the test checks the same
/// thing in every build profile), a healthy simulation validates every
/// fill and trace-cache hit without a single violation.
#[test]
fn sanitizer_runs_clean_on_a_real_workload() {
    let mut config = SimConfig::baseline().with_max_insts(30_000);
    config.front_end.sanitize = true;
    let report = simulate(Benchmark::Compress, &config);
    assert!(report.sanitizer.enabled, "sanitizer is on in debug builds");
    assert!(report.sanitizer.checked_fills > 0, "fills were validated");
    assert!(report.sanitizer.checked_hits > 0, "hits were validated");
    assert_eq!(report.sanitizer.errors, 0);
    assert_eq!(report.sanitizer.warnings, 0);
}

/// Promotion configurations also run violation-free (stale-bias
/// warnings would show up here).
#[test]
fn sanitizer_runs_clean_with_promotion_and_packing() {
    let mut config = SimConfig::headline_perf().with_max_insts(30_000);
    config.front_end.sanitize = true;
    let report = simulate(Benchmark::Li, &config);
    assert!(report.sanitizer.checked_fills > 0);
    assert_eq!(report.sanitizer.errors, 0);
}

/// The sanitizer is a pure observer: toggling it must leave every other
/// field of the report bit-identical. Compared through the full JSON
/// rendering with the `sanitizer` section (the only legitimate
/// difference) removed.
#[test]
fn sanitizer_toggle_leaves_simulation_results_bit_identical() {
    fn strip_sanitizer(json: Json) -> Json {
        match json {
            Json::Object(fields) => Json::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| *k != "sanitizer")
                    .collect(),
            ),
            other => other,
        }
    }
    for (bench, config) in [
        (Benchmark::Compress, SimConfig::baseline()),
        (Benchmark::Li, SimConfig::headline_perf()),
    ] {
        let mut on = config.clone().with_max_insts(25_000);
        on.front_end.sanitize = true;
        let mut off = on.clone();
        off.front_end.sanitize = false;
        let with_sanitizer = strip_sanitizer(report_to_json(&simulate(bench, &on)));
        let without_sanitizer = strip_sanitizer(report_to_json(&simulate(bench, &off)));
        assert_eq!(
            with_sanitizer.render(),
            without_sanitizer.render(),
            "{} / {}: the sanitizer perturbed simulation results",
            bench.name(),
            config.label()
        );
    }
}

/// Explicitly disabled, the sanitizer is inert and reports all-zero
/// counters.
#[test]
fn sanitizer_can_be_disabled() {
    let mut config = SimConfig::baseline().with_max_insts(20_000);
    config.front_end.sanitize = false;
    let report = simulate(Benchmark::Compress, &config);
    assert!(!report.sanitizer.enabled);
    assert_eq!(report.sanitizer.checked_fills, 0);
    assert_eq!(report.sanitizer.checked_hits, 0);
}
