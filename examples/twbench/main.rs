//! `twbench`: the trace-weave benchmark.
//!
//! Four seeded workloads, each run in a fresh child process:
//!
//! * `tc-full` — full timing of the 15 synthetic programs on the
//!   paper's headline machine (promotion + cost-regulated packing);
//! * `ic-rv` — full timing of the 10 RV32I programs on the i-cache
//!   reference machine, which has no trace cache, fill unit or bias
//!   table;
//! * `sampled` — SMARTS-style sampled simulation over long streams;
//! * `serve` — the HTTP daemon under a closed-loop request mix.
//!
//! ```text
//! cargo run --release --offline --example twbench -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--repeat N] [--smoke]
//! ```
//!
//! (`BENCHMARK.json`'s command builds the same sources from this
//! directory's own manifest.) `--seconds` defaults to `run_seconds` in
//! `BENCHMARK.json`.
//!
//! Every metric prints as `workload metric value unit`, timings with
//! their median, quartiles and sample count. The last line is one JSON
//! object with the metrics `BENCHMARK.json` lists for the mode (its
//! `end_to_end` list untraced, its `per_layer` list with `--trace`).
//! Any failed correctness check prints `twbench: FAIL ...` on stderr
//! and makes the exit code 1.

mod host;
mod replay;
mod report;
mod serve;
mod sim;
mod spans;
mod spec;
mod stats;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tc_sim::harness::{parse_json, Value};

use crate::report::{fmt, Report};
use crate::spans::Spans;
use crate::stats::Summary;

const WORKLOADS: [&str; 4] = ["tc-full", "ic-rv", "sampled", "serve"];

/// `--smoke` shrinks every region and instruction count by this factor
/// and times each workload for `SMOKE_SECONDS`.
const SMOKE_DIV: u64 = 50;
const SMOKE_SECONDS: f64 = 0.3;

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Divisor applied to every region and instruction count.
    pub div: u64,
}

struct Cli {
    workloads: Vec<&'static str>,
    opts: Options,
    /// `--seconds`, when given; otherwise `run_seconds`.
    seconds: Option<f64>,
    repeat: usize,
    smoke: bool,
    /// Set in a child process: the one workload it runs.
    child: Option<&'static str>,
}

fn usage() -> String {
    "usage: twbench [--workload tc-full|ic-rv|sampled|serve]... [--seed S] [--seconds T] \
     [--trace [0|1]] [--repeat N] [--smoke]"
        .to_string()
}

fn workload_name(raw: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .find(|w| **w == raw)
        .copied()
        .ok_or_else(|| format!("unknown workload {raw:?}; {}", usage()))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        opts: Options {
            seed: 1,
            seconds: 0.0,
            trace: false,
            div: 1,
        },
        seconds: None,
        repeat: 1,
        smoke: false,
        child: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag}: missing value"))
        };
        let bad = |what: &str| format!("{flag}: want {what}");
        match flag {
            "--workload" => {
                for w in value()?.split(',') {
                    cli.workloads.push(workload_name(w)?);
                }
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cli.seconds = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                cli.opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                cli.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("a positive count"))?;
            }
            "--smoke" => cli.smoke = true,
            // `--child` and `--div` are how the parent process hands one
            // workload to a child.
            "--child" => cli.child = Some(workload_name(value()?)?),
            "--div" => {
                cli.opts.div = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("a positive count"))?;
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}; {}", usage())),
        }
        i += 1;
    }
    if cli.workloads.is_empty() || cli.smoke {
        cli.workloads = WORKLOADS.to_vec();
    }
    if cli.smoke {
        cli.opts.div = SMOKE_DIV;
        cli.seconds = Some(SMOKE_SECONDS);
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("twbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match spec::load(&spec::default_path()) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("twbench: {e}");
            return ExitCode::from(2);
        }
    };
    if spec.workloads != WORKLOADS {
        eprintln!(
            "twbench: BENCHMARK.json lists workloads {:?}, the program runs {WORKLOADS:?}",
            spec.workloads
        );
        return ExitCode::from(2);
    }
    cli.opts.seconds = cli.seconds.unwrap_or(spec.run_seconds);
    match cli.child {
        Some(workload) => run_child(workload, cli.opts, &spec),
        None => run_parent(&cli, &spec),
    }
}

/// Runs one workload in this process and prints its result.
fn run_child(workload: &'static str, opts: Options, spec: &spec::BenchSpec) -> ExitCode {
    println!(
        "twbench: workload {workload} seed {} seconds {} trace {} nproc {} cpu {:?}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::nproc(),
        host::cpu_model()
    );
    let slice = Duration::from_secs_f64((opts.seconds / 2000.0).clamp(0.001, 0.01));
    let mut speed = host::HostSpeed::new(slice);

    let mut out = Report::new(workload);
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, opts.trace, 0);
    let sim_workload = match workload {
        "tc-full" => Some(sim::SimWorkload::tc_full(opts.div)),
        "ic-rv" => Some(sim::SimWorkload::ic_rv(opts.div)),
        "sampled" => Some(sim::SimWorkload::sampled(opts.div)),
        _ => None,
    };
    match sim_workload {
        Some(wl) => sim::run(&wl, &opts, &mut speed, &mut spans, &mut out),
        None => serve::run(&opts, &mut speed, &mut spans, &mut out),
    }
    let wall_ns = epoch.elapsed().as_nanos() as f64;
    out.add("peak_rss_mb", host::peak_rss_mib(), "MiB");

    speed.mark();
    println!(
        "twbench: sim_mips, ops_per_s and setup_s are scaled to a calibration rate of {} Mops/s",
        host::REFERENCE_MOPS
    );
    out.timing("host.calib_mops", Summary::of(speed.readings()), "Mops/s");

    if opts.trace {
        let cost = spans::record_cost_ns();
        out.add(
            "trace.overhead_pct",
            100.0 * spans.spans.len() as f64 * cost / wall_ns,
            "%",
        );
        for (name, count, total, own) in spans::self_times(&spans.spans) {
            println!(
                "{workload} span {name} count {count} total_ms {} self_ms {}",
                fmt(total as f64 / 1e6),
                fmt(own as f64 / 1e6)
            );
        }
        let path = spec
            .dir
            .join("out")
            .join(format!("{workload}-seed{}.trace.json", opts.seed));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&spans.spans).render()));
        match written {
            Ok(()) => println!("twbench: spans written to {}", path.display()),
            Err(e) => out.fail("spans", &format!("cannot write {}: {e}", path.display())),
        }
    }

    out.print_lines();
    let result = out.result_json(spec.metrics(opts.trace));
    println!("{result}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What the parent learned from one child run.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    ok: bool,
    /// The child's result line, verbatim.
    line: String,
    result: Option<Value>,
    digest: Option<String>,
}

/// Spawns one child for `workload`, relays its output, and collects
/// its result line.
fn spawn_child(workload: &'static str, opts: Options) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--div", &opts.div.to_string()])
        // One malloc arena: with glibc's default of one per thread, the
        // daemon's peak memory depended on which of its threads happened
        // to share arenas, not on what they allocated.
        .env("MALLOC_ARENA_MAX", "1")
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {workload}: {e}"))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let (mut line, mut digest) = (String::new(), None);
    for text in BufReader::new(stdout).lines() {
        let text = text.map_err(|e| format!("reading {workload}: {e}"))?;
        if text.starts_with("{\"correct\"") {
            line = text;
            continue;
        }
        if let Some(d) = text.strip_prefix(&format!("{workload} digest ")) {
            digest = Some(d.to_string());
        }
        println!("{text}");
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    let result = parse_json(&line).ok();
    let correct = result
        .as_ref()
        .and_then(|r| r.get("correct"))
        .and_then(Value::as_bool);
    Ok(ChildRun {
        workload,
        trace: opts.trace,
        ok: status.success() && correct == Some(true),
        line,
        result,
        digest,
    })
}

fn run_parent(cli: &Cli, spec: &spec::BenchSpec) -> ExitCode {
    let started = Instant::now();
    let mut plan = Vec::new();
    for _ in 0..cli.repeat {
        for &w in &cli.workloads {
            if cli.smoke {
                plan.push((w, false));
                plan.push((w, true));
            } else {
                plan.push((w, cli.opts.trace));
            }
        }
    }
    let mut runs = Vec::with_capacity(plan.len());
    for (workload, trace) in plan {
        match spawn_child(workload, Options { trace, ..cli.opts }) {
            Ok(run) => runs.push(run),
            Err(e) => {
                eprintln!("twbench: FAIL {workload} spawn {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut ok = runs.iter().all(|r| r.ok);
    if let [only] = runs.as_slice() {
        println!("{}", only.line);
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if cli.repeat > 1 {
        print_repeat_summary(&runs, spec);
    }
    if cli.smoke {
        for w in &cli.workloads {
            let digests: Vec<_> = runs
                .iter()
                .filter(|r| r.workload == *w)
                .map(|r| &r.digest)
                .collect();
            if digests.windows(2).any(|p| p[0] != p[1] || p[0].is_none()) {
                eprintln!("twbench: FAIL {w} digest simulated results differ between traced and untraced runs");
                ok = false;
            }
        }
        println!(
            "twbench: smoke finished in {:.1} s",
            started.elapsed().as_secs_f64()
        );
    }
    println!("{}", aggregate_json(&runs, ok));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The value of `metric` in a child's result line.
fn metric_value(run: &ChildRun, metric: &str) -> Option<f64> {
    run.result
        .as_ref()?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// For each workload and end-to-end metric over repeated runs: the
/// median, the interquartile range, and the worst deviation from the
/// median against the metric's bound.
fn print_repeat_summary(runs: &[ChildRun], spec: &spec::BenchSpec) {
    for w in WORKLOADS {
        for m in &spec.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == w && !r.trace)
                .filter_map(|r| metric_value(r, &m.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let s = Summary::of(&values);
            // Deviation in the metric's worse direction only.
            let worse = |v: f64| {
                if m.higher_is_better {
                    s.median - v
                } else {
                    v - s.median
                }
            };
            let worst = values
                .iter()
                .map(|&v| stats::ratio(worse(v).max(0.0), s.median.abs()))
                .fold(0.0, f64::max);
            let bound = m.bound.unwrap_or(0.0);
            println!(
                "repeat {w} {} median {} {} iqr {} ({:.2}% of median) worst {:.2}% bound {:.0}% n {} {}",
                m.name,
                fmt(s.median),
                m.unit,
                fmt(s.q3 - s.q1),
                100.0 * s.rel_iqr(),
                100.0 * worst,
                100.0 * bound,
                s.n,
                if worst <= bound { "within" } else { "EXCEEDS" }
            );
        }
    }
}

/// The result line of a multi-run invocation: totals, and each metric's
/// median across runs as `workload.metric`. A child that left no result
/// counts as one attempted operation that failed.
fn aggregate_json(runs: &[ChildRun], ok: bool) -> String {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values: Vec<(String, Vec<f64>, String)> = Vec::new();
    for run in runs {
        let Some(result) = &run.result else {
            attempted += 1;
            failed += 1;
            continue;
        };
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let key = format!("{}.{name}", run.workload);
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Value::as_f64),
                m.get("unit").and_then(Value::as_str),
            ) else {
                continue;
            };
            match values.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, vs, _)) => vs.push(v),
                None => values.push((key, vec![v], unit.to_string())),
            }
        }
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(k, vs, unit)| {
            format!(
                "\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                fmt(Summary::of(vs).median)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        ok && failed == 0,
        metrics.join(",")
    )
}
