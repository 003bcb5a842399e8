//! `tw`: the trace-weave command-line simulator.
//!
//! Each subcommand is one [`Command`] in [`COMMANDS`], whose synopsis
//! declares its operands and flags once. That declaration drives
//! parsing, the usage text (`tw help`) and the flag contract in
//! `tests/cli.rs`; a flag a subcommand does not declare is a usage
//! error.
//!
//! Every failure path returns a [`TwError`]: one `tw: <message>` line
//! on stderr, exit code 2 for usage errors and 1 for runtime errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::env;
use std::process::ExitCode;

use trace_weave::bench::{compare, paper, suite};
use trace_weave::fault::{FaultLocus, FaultPlan};
use trace_weave::sim::harness::{
    self, presets, report_to_json, reports_to_json, run_matrix, run_matrix_with, run_traced,
    timeline_table, MatrixRunner, TraceOptions, TwError,
};
use trace_weave::sim::{SimConfig, SimReport, DEFAULT_MAX_INSTS};
use trace_weave::trace::EventFilter;
use trace_weave::workloads::{Benchmark, RvBench, WorkloadId};

/// How a flag's value is checked; every value is checked before the
/// subcommand runs.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    /// Free text: a path, an address, a list checked later.
    Text,
    /// An unsigned integer in `min..=max`.
    Uint(u64, u64),
    Positive,
    NonNegative,
    /// `MEASURE/PERIOD` with `0 < MEASURE <= PERIOD`.
    Sample,
    /// A comma list of cycle numbers.
    Cycles,
    /// Two paths.
    Pair,
    Workload,
    Preset,
}

/// A flag a subcommand may declare.
struct Flag {
    /// Every accepted spelling.
    names: &'static [&'static str],
    /// The value placeholder usage shows (empty for a switch).
    meta: &'static str,
    kind: Kind,
}

const fn flag(names: &'static [&'static str], meta: &'static str, kind: Kind) -> Flag {
    Flag { names, meta, kind }
}

const ANY: Kind = Kind::Uint(0, u64::MAX);
const COUNT: Kind = Kind::Uint(1, u64::MAX);

/// Every flag any subcommand takes. A synopsis may use any spelling.
const FLAGS: &[Flag] = &[
    flag(&["--bench", "--workload"], "NAME", Kind::Workload),
    flag(&["--config", "--preset"], "NAME", Kind::Preset),
    flag(&["--insts"], "N", ANY),
    flag(&["--jobs"], "N", Kind::Uint(1, harness::MAX_JOBS as u64)),
    flag(&["--json"], "", Kind::Switch),
    flag(&["--out"], "FILE", Kind::Text),
    flag(&["--plan"], "FILE|auto", Kind::Text),
    flag(&["--perfect-mem"], "", Kind::Switch),
    flag(&["--timeline"], "", Kind::Switch),
    flag(&["--interval"], "N", COUNT),
    flag(&["--fast-forward"], "N", ANY),
    flag(&["--sample"], "M/K", Kind::Sample),
    flag(&["--warmup"], "W", ANY),
    flag(&["--from"], "FILE", Kind::Text),
    flag(&["--seed", "--fault-seed"], "S", ANY),
    flag(&["--rate", "--fault-rate"], "R", Kind::Positive),
    flag(&["--at-cycles"], "C1,C2,...", Kind::Cycles),
    flag(&["--targets"], "LIST", Kind::Text),
    flag(&["--check"], "FILE", Kind::Text),
    flag(&["--events"], "FILTER", Kind::Text),
    flag(&["--limit"], "N", ANY),
    flag(&["--all"], "", Kind::Switch),
    flag(&["--asm"], "FILE", Kind::Text),
    flag(&["--smoke"], "", Kind::Switch),
    flag(&["--samples"], "N", Kind::Uint(1, u32::MAX as u64)),
    flag(&["--compare"], "OLD.json NEW.json", Kind::Pair),
    flag(&["--tolerance"], "PCT", Kind::NonNegative),
    flag(&["--addr"], "HOST:PORT", Kind::Text),
    flag(&["--port"], "N", Kind::Uint(0, u16::MAX as u64)),
    flag(&["--queue-depth"], "N", COUNT),
    flag(&["--cache-entries"], "N", COUNT),
    flag(&["--cache-dir"], "DIR", Kind::Text),
    flag(&["--max-conns"], "N", COUNT),
    flag(&["--max-body"], "BYTES", COUNT),
    flag(&["--max-insts"], "N", COUNT),
];

/// The [`FLAGS`] entry spelled `name`.
fn find_flag(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.names.contains(&name))
}

/// One subcommand. Its synopsis lists operands (`FILE`) and flags,
/// `!` marking a required flag, in the order usage shows them.
struct Command {
    /// `sim`, or `checkpoint save` for a two-word subcommand.
    name: &'static str,
    synopsis: &'static str,
    about: &'static str,
    run: fn(&Args) -> Result<ExitCode, TwError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        synopsis: "",
        about: "list benchmarks and configurations",
        run: cmd_list,
    },
    Command {
        name: "sim",
        synopsis: "--bench! --config! --insts --perfect-mem --json --timeline --interval \
                   --plan --fast-forward --sample --warmup",
        about: "simulate one benchmark under one configuration; --fast-forward skips N \
                instructions functionally before timing, or --sample times M of every K \
                instructions, warming the front end for W before each window; --plan \
                attaches a tw-plan/v1 promotion plan (auto = build it now); --timeline \
                prints the interval timeline",
        run: cmd_sim,
    },
    Command {
        name: "checkpoint save",
        synopsis: "--workload! --insts --out",
        about: "fast-forward N instructions functionally and write the architectural \
                state as a tw-ckpt/v1 file (default <name>.ckpt.json)",
        run: cmd_checkpoint_save,
    },
    Command {
        name: "checkpoint restore",
        synopsis: "--from! --config! --insts --json",
        about: "resume a saved state under a configuration and report; bit-identical \
                to tw sim --fast-forward at the saved position",
        run: cmd_checkpoint_restore,
    },
    Command {
        name: "compare",
        synopsis: "--bench! --insts --jobs --perfect-mem --json --timeline --interval \
                   --plan --fault-rate --fault-seed --at-cycles --targets",
        about: "compare the five standard configurations on one benchmark; --fault-rate \
                or --at-cycles attaches a fault plan to every cell",
        run: cmd_compare,
    },
    Command {
        name: "analyze",
        synopsis: "--workload --insts --json --out --check",
        about: "profile a workload, classify every static conditional branch \
                (strongly-biased / phase-biased / history-predictable / \
                data-dependent) and emit a tw-plan/v1 promotion plan; --check \
                validates a plan file instead",
        run: cmd_analyze,
    },
    Command {
        name: "faults",
        synopsis: "--workload! --preset --seed --rate --at-cycles --targets --insts --json",
        about: "simulate one cell (default preset headline) under a deterministic \
                fault plan and report the fault counters; LIST is a comma list of \
                loci (tc-segment, tc-evict, bias, predictor, ras, fill-stall)",
        run: cmd_faults,
    },
    Command {
        name: "trace",
        synopsis: "--workload! --preset! --insts --events --interval --limit --out",
        about: "run one cell with the event tracer attached and write a Chrome/Perfetto \
                trace_event file (default trace.json); FILTER is a comma list of event \
                kinds or categories (tc, fill, promote, mispredict, cache, machine, \
                retire, fault, or all)",
        run: cmd_trace,
    },
    Command {
        name: "lint",
        synopsis: "--workload --all --asm --json",
        about: "statically verify workload programs (both families by default) or a \
                text-assembly file; exits 1 on error-severity findings",
        run: cmd_lint,
    },
    Command {
        name: "rv",
        synopsis: "FILE",
        about: "decode and translate a flat RV32I image (.rv.bin) and print a front-end \
                summary",
        run: cmd_rv,
    },
    Command {
        name: "bench",
        synopsis: "--smoke --insts --samples --out --plan --json --check --compare \
                   --tolerance",
        about: "time the simulator over the benchmark x configuration matrix and write a \
                tw-bench/v1 artifact (default BENCH_frontend.json); --check validates an \
                artifact; --compare diffs two and exits 1 when a cell's ns/cycle \
                regressed more than PCT percent (default 10)",
        run: cmd_bench,
    },
    Command {
        name: "serve",
        synopsis: "--addr --port --jobs --queue-depth --cache-entries --cache-dir \
                   --max-conns --max-body --max-insts --insts",
        about: "run the simulation service (POST /v1/{sim,compare,faults,trace,analyze}, \
                GET /healthz /v1/stats /v1/presets /v1/workloads, POST /v1/shutdown) with \
                a content-addressed result cache; default address 127.0.0.1:0, the \
                chosen port is printed; --cache-dir persists results across restarts",
        run: cmd_serve,
    },
    Command {
        name: "paper",
        synopsis: "NAME --insts --jobs",
        about: "regenerate the paper's tables and figures: NAME is one experiment or a \
                group (listed below); each cell runs N instructions (default 2000000)",
        run: cmd_paper,
    },
];

impl Command {
    /// The declared flags as `(spelling, required)`, in usage order.
    fn flags(&self) -> impl Iterator<Item = (&'static str, bool)> {
        self.synopsis
            .split_whitespace()
            .filter(|t| t.starts_with('-'))
            .map(|t| (t.trim_end_matches('!'), t.ends_with('!')))
    }

    fn operands(&self) -> impl Iterator<Item = &'static str> {
        self.synopsis
            .split_whitespace()
            .filter(|t| !t.starts_with('-'))
    }

    /// The declared flag that `spelled` (any spelling) names, with the
    /// spelling the synopsis uses.
    fn flag(&self, spelled: &str) -> Option<(&'static str, &'static Flag)> {
        self.flags()
            .filter_map(|(name, _)| Some((name, find_flag(name)?)))
            .find(|(_, f)| f.names.contains(&spelled))
    }
}

/// A checked flag value.
enum Value {
    Switch,
    Text(String),
    Uint(u64),
    Real(f64),
    Sample(u64, u64),
    Cycles(Vec<u64>),
    Pair(String, String),
    Workload(WorkloadId),
    Config(Box<SimConfig>),
}

/// One parsed command line.
struct Args {
    command: &'static Command,
    operands: Vec<String>,
    values: Vec<(&'static Flag, Value)>,
}

impl Args {
    /// Resolves the subcommand and checks every argument against its
    /// declaration: each flag is declared and has its values, then the
    /// operand count, each value, and the required flags.
    fn parse(args: &[String]) -> Result<Args, TwError> {
        let first = args.first().map_or("", String::as_str);
        let second = args.get(1).map_or("", String::as_str);
        let (command, rest) = if let Some(c) = COMMANDS.iter().find(|c| c.name == first) {
            (c, &args[1..])
        } else if let Some(c) = COMMANDS
            .iter()
            .find(|c| c.name.split_once(' ') == Some((first, second)))
        {
            (c, &args[2..])
        } else {
            let subs: Vec<String> = COMMANDS
                .iter()
                .filter_map(|c| c.name.strip_prefix(first)?.strip_prefix(' '))
                .map(|sub| format!("`{sub}`"))
                .collect();
            return Err(TwError::usage(if subs.is_empty() {
                format!("unknown command `{first}`")
            } else {
                format!("{first}: expected {} subcommand", subs.join(" or "))
            }));
        };
        let name = command.name;

        let mut operands = Vec::new();
        let mut raw = Vec::new();
        let mut i = 0;
        while let Some(arg) = rest.get(i) {
            i += 1;
            if !arg.starts_with('-') {
                operands.push(arg.clone());
                continue;
            }
            let Some((_, flag)) = command.flag(arg) else {
                return Err(TwError::usage(format!("{name}: unknown flag `{arg}`")));
            };
            let arity = match flag.kind {
                Kind::Switch => 0,
                Kind::Pair => 2,
                _ => 1,
            };
            let Some(values) = rest.get(i..i + arity) else {
                return Err(TwError::usage(format!("{arg}: missing {}", flag.meta)));
            };
            raw.push((flag, arg, values));
            i += arity;
        }
        let declared: Vec<&str> = command.operands().collect();
        if let Some(extra) = operands.get(declared.len()) {
            return Err(TwError::usage(format!(
                "{name}: unexpected argument `{extra}`"
            )));
        }
        if let Some(missing) = declared.get(operands.len()) {
            return Err(TwError::usage(format!("{name}: missing {missing}")));
        }
        let mut values = Vec::new();
        for (flag, spelled, args) in raw {
            values.push((flag, check(flag.kind, spelled, args)?));
        }
        let args = Args {
            command,
            operands,
            values,
        };
        match command
            .flags()
            .find(|&(f, required)| required && args.get(f).is_none())
        {
            Some((missing, _)) => Err(TwError::usage(format!("missing {missing}"))),
            None => Ok(args),
        }
    }

    /// The last value given for the flag spelled `name` (any spelling).
    fn get(&self, name: &str) -> Option<&Value> {
        debug_assert!(
            self.command.flag(name).is_some(),
            "{}: reads undeclared flag {name}",
            self.command.name
        );
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f.names.contains(&name))
            .map(|(_, v)| v)
    }

    fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn text(&self, name: &str) -> Option<&str> {
        match self.get(name) {
            Some(Value::Text(s)) => Some(s),
            _ => None,
        }
    }

    fn uint(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Value::Uint(n)) => Some(*n),
            _ => None,
        }
    }

    fn insts_or(&self, default: u64) -> u64 {
        self.uint("--insts").unwrap_or(default)
    }

    fn jobs(&self) -> usize {
        self.uint("--jobs")
            .map_or_else(harness::default_jobs, |n| n as usize)
    }

    fn workload(&self) -> Result<WorkloadId, TwError> {
        match self.get("--workload") {
            Some(Value::Workload(w)) => Ok(*w),
            _ => Err(self.missing("--workload")),
        }
    }

    fn config(&self) -> Result<SimConfig, TwError> {
        match self.get("--config") {
            Some(Value::Config(c)) => Ok((**c).clone()),
            _ => Err(self.missing("--config")),
        }
    }

    /// The usage error for an absent flag, in the synopsis's spelling.
    fn missing(&self, name: &str) -> TwError {
        let shown = self.command.flag(name).map_or(name, |(shown, _)| shown);
        TwError::usage(format!("missing {shown}"))
    }

    /// Applies `--fast-forward` / `--sample` / `--warmup` to a
    /// configuration, validating the combination.
    fn apply_mode(&self, config: SimConfig) -> Result<SimConfig, TwError> {
        let warmup = self.uint("--warmup");
        let sample = match self.get("--sample") {
            Some(Value::Sample(measure, period)) => Some((*measure, *period)),
            _ => None,
        };
        match (self.uint("--fast-forward"), sample) {
            (Some(_), Some(_)) => Err(TwError::usage(
                "--fast-forward and --sample are mutually exclusive",
            )),
            (_, None) if warmup.is_some() => Err(TwError::usage("--warmup requires --sample")),
            (Some(skip), None) => Ok(config.with_fast_forward(skip)),
            (None, Some((measure, period))) => {
                let warmup =
                    warmup.unwrap_or_else(|| (period - measure).min(measure.saturating_mul(2)));
                if warmup.checked_add(measure).is_none_or(|used| used > period) {
                    return Err(TwError::usage(format!(
                        "--warmup {warmup} + measure {measure} exceeds the {period}-instruction period"
                    )));
                }
                Ok(config.with_sampling(warmup, measure, period))
            }
            (None, None) => Ok(config),
        }
    }

    /// The fault plan requested by `--rate`/`--at-cycles`/`--targets`:
    /// `None` when neither a rate nor cycles were given.
    fn fault_plan(&self) -> Result<Option<FaultPlan>, TwError> {
        let seed = self.uint("--seed").unwrap_or(1);
        let plan = match (self.get("--rate"), self.get("--at-cycles")) {
            (Some(Value::Real(rate)), None) => FaultPlan::with_rate(seed, *rate),
            (None, Some(Value::Cycles(cycles))) => FaultPlan::at_cycles(seed, cycles.clone()),
            (None, None) => return Ok(None),
            _ => {
                return Err(TwError::usage(
                    "--rate and --at-cycles are mutually exclusive",
                ))
            }
        };
        Ok(Some(match self.text("--targets") {
            Some(spec) => plan.targeting(&parse_targets(spec)?),
            None => plan,
        }))
    }
}

/// Checks the value(s) given for a flag of `kind`, spelled `spelled`.
fn check(kind: Kind, spelled: &str, args: &[String]) -> Result<Value, TwError> {
    let raw = args.first().map_or("", String::as_str);
    let usage = |what: String| TwError::usage(format!("{spelled}: {what}"));
    let bad = || usage(format!("bad value {raw:?}"));
    let real = || {
        raw.parse::<f64>()
            .ok()
            .filter(|x| !x.is_nan())
            .ok_or_else(bad)
    };
    Ok(match kind {
        Kind::Switch => Value::Switch,
        Kind::Text => Value::Text(raw.to_string()),
        Kind::Uint(min, max) => {
            let n: u64 = raw.parse().map_err(|_| bad())?;
            if n < min {
                return Err(usage(format!("must be at least {min}")));
            }
            if n > max {
                return Err(usage(format!("{n} exceeds the cap of {max}")));
            }
            Value::Uint(n)
        }
        Kind::Positive => match real()? {
            x if x > 0.0 => Value::Real(x),
            _ => return Err(usage("must be positive".into())),
        },
        Kind::NonNegative => match real()? {
            x if x >= 0.0 => Value::Real(x),
            _ => return Err(usage("must be non-negative".into())),
        },
        Kind::Sample => {
            let Some((m, k)) = raw.split_once('/') else {
                return Err(usage(format!("expected MEASURE/PERIOD, got {raw:?}")));
            };
            let parse = |part: &str| {
                part.trim()
                    .parse::<u64>()
                    .map_err(|_| usage(format!("bad value {part:?}")))
            };
            let (measure, period) = (parse(m)?, parse(k)?);
            if measure == 0 || measure > period {
                return Err(usage("needs 0 < MEASURE <= PERIOD".into()));
            }
            Value::Sample(measure, period)
        }
        Kind::Cycles => {
            let mut cycles = Vec::new();
            for token in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                cycles.push(
                    token
                        .parse()
                        .map_err(|_| usage(format!("bad cycle {token:?}")))?,
                );
            }
            if cycles.is_empty() {
                return Err(usage("empty cycle list".into()));
            }
            Value::Cycles(cycles)
        }
        Kind::Pair => Value::Pair(raw.to_string(), args[1].clone()),
        Kind::Workload => Value::Workload(
            harness::find_bench(raw)
                .ok_or_else(|| TwError::usage(format!("unknown workload {raw:?}")))?,
        ),
        Kind::Preset => {
            Value::Config(Box::new(harness::lookup(raw).ok_or_else(|| {
                TwError::usage(format!("unknown configuration {raw:?}"))
            })?))
        }
    })
}

/// Greedy word wrap at 78 columns: `lead` starts the first line, later
/// lines are indented `indent` spaces, and no item is split.
fn wrap(lead: &str, indent: usize, items: impl IntoIterator<Item = String>) -> String {
    let mut line = lead.to_string();
    let mut out = String::new();
    let mut empty = lead.trim().is_empty();
    for item in items {
        if !empty && line.len() + 1 + item.len() > 78 {
            out += &line;
            out.push('\n');
            line = " ".repeat(indent);
        } else if !line.ends_with(' ') {
            line.push(' ');
        }
        line += &item;
        empty = false;
    }
    out + &line + "\n"
}

/// The usage text, built from [`COMMANDS`], [`FLAGS`], the registry and
/// [`paper::EXPERIMENTS`].
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for c in COMMANDS {
        let lead = format!("  tw {}", c.name);
        let items = c.synopsis.split_whitespace().map(|token| {
            let name = token.trim_end_matches('!');
            let Some(flag) = find_flag(name) else {
                return token.to_string();
            };
            let shown = format!("{name} {}", flag.meta).trim_end().to_string();
            if token.ends_with('!') {
                shown
            } else {
                format!("[{shown}]")
            }
        });
        text += &wrap(&lead, lead.len() + 1, items);
        text += &wrap(
            &" ".repeat(6),
            6,
            c.about.split_whitespace().map(String::from),
        );
    }
    let comma_list = |lead: &str, items: Vec<String>| {
        let last = items.len().saturating_sub(1);
        let items = items.into_iter().enumerate();
        wrap(
            lead,
            2,
            items.map(|(i, s)| if i < last { s + "," } else { s }),
        )
    };
    let aliases = FLAGS.iter().filter(|f| f.names.len() > 1);
    let mut groups: Vec<&str> = paper::EXPERIMENTS.iter().map(|(_, g, _)| *g).collect();
    groups.dedup();
    text += "\n";
    text += &comma_list("aliases:", aliases.map(|f| f.names.join(" = ")).collect());
    text += &comma_list(
        "configurations:",
        harness::STANDARD_FIVE.map(String::from).to_vec(),
    );
    text += &comma_list(
        "paper experiments:",
        paper::EXPERIMENTS.iter().map(|e| e.0.to_string()).collect(),
    );
    text += &comma_list(
        "paper groups:",
        groups.into_iter().map(String::from).collect(),
    );
    text + "\nworkloads are named bare for the synthetic suite (compress, gcc, ...)
and rv/<name> for compiled RV32I programs (rv/qsort, rv/dispatch, ...);
`tw list` prints both families\n"
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tw: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, TwError> {
    match args.first().map(String::as_str) {
        None => {
            eprint!("{}", usage());
            return Ok(ExitCode::from(2));
        }
        Some("help" | "--help" | "-h") => {
            eprint!("{}", usage());
            return Ok(ExitCode::SUCCESS);
        }
        Some(_) => {}
    }
    let args = Args::parse(args)?;
    (args.command.run)(&args)
}

fn cmd_list(_: &Args) -> Result<ExitCode, TwError> {
    println!("benchmarks (the paper's Table 1):");
    for b in Benchmark::ALL {
        println!("  {:12} ({})", b.name(), b.short_name());
    }
    println!("\nrv32i workloads (compiled code via the tc-rv front end):");
    for r in RvBench::ALL {
        println!("  {:12} ({})", r.name(), r.short_name());
    }
    println!("\nconfigurations:");
    for p in presets() {
        let aliases = if p.aliases.is_empty() {
            String::new()
        } else {
            format!("  (aliases: {})", p.aliases.join(", "))
        };
        println!("  {:12} {}{aliases}", p.name, p.summary);
    }
    Ok(ExitCode::SUCCESS)
}

/// `tw rv FILE`: parse, decode, and translate a flat RV32I image, then
/// print what the front end would hand the simulator. Malformed images
/// are *usage* errors (exit 2): the input contract, not the runtime,
/// was violated.
fn cmd_rv(a: &Args) -> Result<ExitCode, TwError> {
    let path = &a.operands[0];
    let bytes = std::fs::read(path).map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
    let image = trace_weave::rv::RvImage::parse(&bytes)
        .map_err(|e| TwError::usage(format!("{path}: {e}")))?;
    let t =
        trace_weave::rv::translate(&image).map_err(|e| TwError::usage(format!("{path}: {e}")))?;
    let expanded = t.program.len();
    println!("image              {path}");
    println!("rv instructions    {}", image.text.len());
    println!("translated instrs  {expanded}");
    println!(
        "expansion          {:.3}x",
        expanded as f64 / image.text.len().max(1) as f64
    );
    println!(
        "entry              rv byte {:#x} -> index {}",
        image.entry,
        t.program.entry()
    );
    println!(
        "data bytes         {} at base {:#x}",
        image.data.len(),
        image.data_base
    );
    println!(
        "memory             {} bytes ({} words)",
        image.mem_bytes, t.mem_words
    );
    println!("address-taken      {} target(s)", image.indirect.len());
    Ok(ExitCode::SUCCESS)
}

fn print_report(r: &SimReport) {
    println!("benchmark          {}", r.benchmark);
    println!("configuration      {}", r.config);
    println!("instructions       {}", r.instructions);
    println!("cycles             {}", r.cycles);
    println!("IPC                {:.3}", r.ipc());
    println!("eff fetch rate     {:.2}", r.effective_fetch_rate());
    println!(
        "cond mispredict    {:.2}%",
        r.cond_mispredict_rate() * 100.0
    );
    println!("promoted executed  {}", r.promoted_executed);
    println!("promoted faults    {}", r.promoted_faults);
    println!("avg resolution     {:.1} cycles", r.avg_resolution_time());
    if let Some(tc) = &r.trace_cache {
        println!("trace cache        {:.1}% miss", tc.miss_ratio() * 100.0);
    }
    if let Some(s) = &r.sampling {
        println!("stream division:");
        println!("  fast-forwarded   {}", s.fast_forwarded);
        println!("  warmed           {}", s.warmed);
        println!("  measured         {}", s.measured);
        println!("  windows          {}", s.windows);
        println!("  total stream     {}", s.total_stream);
        println!("  timed fraction   {:.2}%", s.timed_fraction() * 100.0);
    }
    if let Some(f) = &r.fault {
        println!("fault injection:");
        println!("  injected         {}", f.injected);
        println!("  detected         {}", f.detected);
        println!("  recovered        {}", f.recovered);
        println!("  escaped          {}", f.escaped);
        println!("  recovery cycles  {}", f.recovery_cycles);
    }
    if let Some(p) = &r.plan {
        println!(
            "promotion plan     {} ({} branches, {} never-promote, {} insts profiled)",
            p.workload, p.entries, p.never_promote, p.profiled_insts
        );
        for class in trace_weave::predict::BranchClass::ALL {
            let i = class.index();
            if p.class_branches[i] == 0 {
                continue;
            }
            println!(
                "  {:19} {:3} branches, {:9} execs, {:5.1}% promoted",
                class.name(),
                p.class_branches[i],
                p.class_execs[i],
                p.coverage(class) * 100.0
            );
        }
    }
    println!("cycle accounting:");
    for (label, cycles) in r.accounting.categories() {
        println!(
            "  {label:14} {:5.1}%",
            cycles as f64 / r.cycles.max(1) as f64 * 100.0
        );
    }
}

/// Parses a comma-separated `--targets` list into fault loci.
fn parse_targets(spec: &str) -> Result<Vec<FaultLocus>, TwError> {
    let mut loci = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        loci.push(FaultLocus::parse(token).map_err(TwError::usage)?);
    }
    if loci.is_empty() {
        return Err(TwError::usage("--targets: empty locus list"));
    }
    Ok(loci)
}

/// Resolves `--plan FILE|auto` for one benchmark: `auto` builds the
/// plan by profiling the benchmark now; a path loads and validates a
/// `tw-plan/v1` file, insisting it was derived for the same workload.
fn load_plan(
    a: &Args,
    bench: WorkloadId,
) -> Result<Option<trace_weave::sim::PromotionPlan>, TwError> {
    match a.text("--plan") {
        None => Ok(None),
        Some("auto") => {
            let workload = bench.build();
            Ok(Some(harness::build_plan(
                &workload,
                a.insts_or(DEFAULT_MAX_INSTS),
            )?))
        }
        Some(path) => {
            let text = harness::read_verified(path)?;
            let plan = harness::parse_plan(&text)?;
            if plan.workload != bench.name() {
                return Err(TwError::runtime(format!(
                    "{path}: plan was derived for {:?}, not {:?}",
                    plan.workload,
                    bench.name()
                )));
            }
            Ok(Some(plan))
        }
    }
}

/// Prints one report as JSON (`--json`) or as the text summary.
fn emit_report(a: &Args, report: &SimReport) {
    if a.switch("--json") {
        println!("{}", report_to_json(report).pretty());
    } else {
        print_report(report);
    }
}

/// Timeline-only trace options: aggregates fold at emit time, so no
/// events need to be stored.
fn timeline_options(a: &Args) -> TraceOptions {
    TraceOptions {
        filter: EventFilter::none(),
        interval: Some(
            a.uint("--interval")
                .unwrap_or(harness::DEFAULT_TRACE_INTERVAL),
        ),
        limit: 0,
    }
}

fn cmd_sim(a: &Args) -> Result<ExitCode, TwError> {
    let bench = a.workload()?;
    let mut config = a.config()?;
    if a.switch("--perfect-mem") {
        config = config.with_perfect_disambiguation();
    }
    let workload = bench.build();
    let mut config = a.apply_mode(config.with_max_insts(a.insts_or(DEFAULT_MAX_INSTS)))?;
    if let Some(plan) = load_plan(a, bench)? {
        config = config.with_promotion_plan(plan);
    }
    if !a.switch("--timeline") {
        emit_report(a, &trace_weave::sim::Processor::new(config).run(&workload));
        return Ok(ExitCode::SUCCESS);
    }
    let run = run_traced(config, &workload, &timeline_options(a));
    let Some(tl) = run.timeline.as_ref() else {
        return Err(TwError::runtime(
            "internal error: traced run produced no timeline",
        ));
    };
    if a.switch("--json") {
        println!(
            "{}",
            harness::Json::Object(vec![
                ("report", report_to_json(&run.report)),
                ("timeline", harness::timeline_to_json(tl)),
            ])
            .pretty()
        );
    } else {
        print_report(&run.report);
        println!("\ninterval timeline ({} cycles/window):", tl.interval());
        print!("{}", timeline_table(tl));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_checkpoint_save(a: &Args) -> Result<ExitCode, TwError> {
    let bench = a.workload()?;
    let workload = bench.build();
    let at = a.insts_or(DEFAULT_MAX_INSTS);
    let mut machine = workload.machine();
    let blocks = trace_weave::isa::BlockCache::new(workload.program());
    let ran = machine
        .fast_forward(workload.program(), &blocks, at)
        .map_err(|e| {
            TwError::runtime(format!(
                "{}: workload faulted during fast-forward: {e:?}",
                bench.name()
            ))
        })?;
    let ckpt = harness::Checkpoint::capture(&workload, &machine);
    let out = a
        .text("--out")
        .map_or_else(|| format!("{}.ckpt.json", bench.name()), str::to_string);
    let text = harness::stamp(&format!("{}\n", ckpt.to_json().pretty()));
    harness::write_atomic(std::path::Path::new(&out), &text)
        .map_err(|e| TwError::runtime(format!("{out}: {e}")))?;
    println!(
        "wrote {out}: {} at instruction {} ({} memory run(s){})",
        bench.name(),
        machine.retired(),
        ckpt.mem.len(),
        if machine.is_halted() { ", halted" } else { "" }
    );
    if ran < at {
        println!("note: workload completed after {ran} instructions");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_checkpoint_restore(a: &Args) -> Result<ExitCode, TwError> {
    let path = a.text("--from").ok_or_else(|| a.missing("--from"))?;
    let text = harness::read_verified(path)?;
    let ckpt = harness::parse_checkpoint(&text)?;
    let bench = harness::find_bench(&ckpt.workload).ok_or_else(|| {
        TwError::runtime(format!(
            "{path}: checkpoint names unknown workload {:?}",
            ckpt.workload
        ))
    })?;
    let workload = bench.build();
    let machine = ckpt.restore(&workload)?;
    // Resuming at position n under FastForward{n} skips nothing and
    // reports identically to an unresumed `tw sim --fast-forward n` run.
    let config = a
        .config()?
        .with_max_insts(a.insts_or(DEFAULT_MAX_INSTS))
        .with_fast_forward(ckpt.retired);
    emit_report(
        a,
        &trace_weave::sim::Processor::new(config).run_from(&workload, machine),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_faults(a: &Args) -> Result<ExitCode, TwError> {
    let bench = a.workload()?;
    // Fault campaigns default to the paper's headline front end.
    let config = if a.get("--preset").is_some() {
        a.config()?
    } else {
        harness::lookup("headline")
            .ok_or_else(|| TwError::runtime("registry is missing `headline`"))?
    };
    let plan = a
        .fault_plan()?
        .ok_or_else(|| TwError::usage("faults: one of --rate or --at-cycles is required"))?;
    let config = config
        .with_max_insts(a.insts_or(DEFAULT_MAX_INSTS))
        .with_fault_plan(plan);
    emit_report(
        a,
        &trace_weave::sim::Processor::new(config).run(&bench.build()),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(a: &Args) -> Result<ExitCode, TwError> {
    let bench = a.workload()?;
    let config = a.config()?;
    let filter = match a.text("--events").map(EventFilter::parse) {
        Some(Ok(filter)) => filter,
        Some(Err(e)) => return Err(TwError::usage(format!("--events: {e}"))),
        None => EventFilter::all(),
    };
    let options = TraceOptions {
        filter,
        interval: Some(
            a.uint("--interval")
                .unwrap_or(harness::DEFAULT_TRACE_INTERVAL),
        ),
        limit: a
            .uint("--limit")
            .map_or(harness::DEFAULT_TRACE_LIMIT, |n| n as usize),
    };
    let workload = bench.build();
    let run = run_traced(
        config.with_max_insts(a.insts_or(DEFAULT_MAX_INSTS)),
        &workload,
        &options,
    );
    let text = harness::chrome_trace_json(&run).pretty();
    if let Err(e) = harness::parse_json(&text) {
        return Err(TwError::runtime(format!(
            "internal error: emitted trace is malformed: {e}"
        )));
    }
    let out = a.text("--out").unwrap_or("trace.json");
    // Chrome/Perfetto consume this file directly, so it gets the atomic
    // write but not the CRC stamp.
    harness::write_atomic(std::path::Path::new(out), &format!("{text}\n"))
        .map_err(|e| TwError::runtime(format!("{out}: {e}")))?;
    println!(
        "{}: {} events emitted, {} recorded, {} dropped, {} filtered",
        out, run.summary.emitted, run.summary.recorded, run.summary.dropped, run.summary.filtered
    );
    println!(
        "load it in chrome://tracing or https://ui.perfetto.dev ({} cycles simulated)",
        run.report.cycles
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(a: &Args) -> Result<ExitCode, TwError> {
    let bench = a.workload()?;
    let fault_plan = a.fault_plan()?;
    let insts = a.insts_or(DEFAULT_MAX_INSTS);
    let promotion_plan = load_plan(a, bench)?;
    let cells: Vec<(WorkloadId, SimConfig)> = harness::standard_five()
        .into_iter()
        .map(|(_, config)| {
            let config = if a.switch("--perfect-mem") {
                config.with_perfect_disambiguation()
            } else {
                config
            };
            let config = match &fault_plan {
                Some(plan) => config.with_fault_plan(plan.clone()),
                None => config,
            };
            let config = match &promotion_plan {
                Some(plan) => config.with_promotion_plan(plan.clone()),
                None => config,
            };
            (bench, config.with_max_insts(insts))
        })
        .collect();
    let timeline = a.switch("--timeline");
    let (reports, timelines): (Vec<SimReport>, Vec<_>) = if timeline {
        // The timeline rides on the same simulation that produces the
        // report.
        let options = timeline_options(a);
        let mut reports = Vec::new();
        let mut timelines = Vec::new();
        for run in run_matrix_with(&cells, a.jobs(), |config, workload| {
            run_traced(config, workload, &options)
        }) {
            let Some(tl) = run.timeline else {
                return Err(TwError::runtime(
                    "internal error: traced run produced no timeline",
                ));
            };
            reports.push(run.report);
            timelines.push(tl);
        }
        (reports, timelines)
    } else {
        (run_matrix(&cells, a.jobs()), Vec::new())
    };
    if a.switch("--json") {
        if timeline {
            println!(
                "{}",
                harness::Json::Object(vec![
                    ("reports", reports_to_json(&reports)),
                    (
                        "timelines",
                        harness::Json::Array(
                            timelines.iter().map(harness::timeline_to_json).collect()
                        )
                    ),
                ])
                .pretty()
            );
        } else {
            println!("{}", reports_to_json(&reports).pretty());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let with_faults = fault_plan.is_some();
    if with_faults {
        println!(
            "{:12} {:>10} {:>8} {:>10} {:>12} {:>10}",
            "config", "eff fetch", "IPC", "mispred%", "resolution", "inj/esc"
        );
    } else {
        println!(
            "{:12} {:>10} {:>8} {:>10} {:>12}",
            "config", "eff fetch", "IPC", "mispred%", "resolution"
        );
    }
    for (name, r) in harness::STANDARD_FIVE.iter().zip(&reports) {
        let faults = match &r.fault {
            Some(fs) if with_faults => format!(" {:>6}/{:<3}", fs.injected, fs.escaped),
            _ => String::new(),
        };
        println!(
            "{:12} {:>10.2} {:>8.2} {:>9.2}% {:>11.1}c{faults}",
            name,
            r.effective_fetch_rate(),
            r.ipc(),
            r.cond_mispredict_rate() * 100.0,
            r.avg_resolution_time()
        );
    }
    for (name, tl) in harness::STANDARD_FIVE.iter().zip(&timelines) {
        println!(
            "\n{name} interval timeline ({} cycles/window):",
            tl.interval()
        );
        print!("{}", timeline_table(tl));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(a: &Args) -> Result<ExitCode, TwError> {
    let json = a.switch("--json");
    let bench = match a.get("--workload") {
        Some(Value::Workload(w)) => Some(*w),
        _ => None,
    };
    if let Some(path) = a.text("--asm") {
        if a.switch("--all") || bench.is_some() {
            return Err(TwError::usage(
                "--asm is mutually exclusive with --workload/--all",
            ));
        }
        let source =
            std::fs::read_to_string(path).map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
        let program = trace_weave::isa::assemble(&source)
            .map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
        let report = trace_weave::analyze::analyze(&program);
        if json {
            println!(
                "{}",
                harness::Json::Object(vec![
                    ("file", harness::Json::Str(path.to_string())),
                    ("instructions", harness::Json::UInt(program.len() as u64)),
                    ("errors", harness::Json::UInt(report.errors() as u64)),
                    ("warnings", harness::Json::UInt(report.warnings() as u64)),
                ])
                .pretty()
            );
        } else {
            for finding in &report.findings {
                println!("{path}: {finding}");
            }
            println!(
                "{path}: {} instruction(s), {} error(s), {} warning(s)",
                program.len(),
                report.errors(),
                report.warnings()
            );
        }
        return Ok(if report.errors() > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    if a.switch("--all") && bench.is_some() {
        return Err(TwError::usage(
            "--all and --workload are mutually exclusive",
        ));
    }
    let entries = match bench {
        Some(bench) => vec![harness::lint_benchmark(bench)],
        None => harness::lint_all(),
    };
    let errors = harness::lint_errors(&entries);
    if json {
        println!("{}", harness::lint_to_json(&entries).pretty());
    } else {
        print!("{}", harness::lint_table(&entries));
        for entry in &entries {
            for finding in &entry.report.findings {
                println!("{}: {finding}", entry.benchmark);
            }
        }
        println!(
            "{} workload(s), {errors} error(s), {} warning(s)",
            entries.len(),
            entries.iter().map(|e| e.report.warnings()).sum::<usize>()
        );
    }
    Ok(if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_analyze(a: &Args) -> Result<ExitCode, TwError> {
    if let Some(path) = a.text("--check") {
        let text = harness::read_verified(path)?;
        let plan = harness::parse_plan(&text)?;
        println!(
            "{path}: valid {} plan for {} ({} branches, {} never-promote)",
            harness::PLAN_SCHEMA,
            plan.workload,
            plan.len(),
            plan.never_promote()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let bench = a.workload()?;
    let workload = bench.build();
    let plan = harness::build_plan(&workload, a.insts_or(DEFAULT_MAX_INSTS))?;
    let text = harness::plan_to_json(&plan).pretty();
    if let Err(e) = harness::parse_json(&text) {
        return Err(TwError::runtime(format!(
            "internal error: emitted plan is malformed: {e}"
        )));
    }
    let out = a.text("--out");
    if let Some(out) = out {
        let stamped = harness::stamp(&format!("{text}\n"));
        harness::write_atomic(std::path::Path::new(out), &stamped)
            .map_err(|e| TwError::runtime(format!("{out}: {e}")))?;
    }
    if a.switch("--json") {
        println!("{text}");
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{}: {} static conditional branches, {} instructions profiled",
        plan.workload,
        plan.len(),
        plan.profiled_insts
    );
    let counts = plan.class_counts();
    for class in trace_weave::predict::BranchClass::ALL {
        println!("  {:19} {}", class.name(), counts[class.index()]);
    }
    println!("  {:19} {}", "never-promote", plan.never_promote());
    print!("{}", harness::plan_table(&plan));
    if let Some(out) = out {
        println!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(a: &Args) -> Result<ExitCode, TwError> {
    if let Some(Value::Pair(old_path, new_path)) = a.get("--compare") {
        let old_text = harness::read_verified(old_path)?;
        let new_text = harness::read_verified(new_path)?;
        let tolerance = match a.get("--tolerance") {
            Some(Value::Real(pct)) => *pct,
            _ => 10.0,
        };
        let cmp = compare::compare_artifacts(&old_text, &new_text, tolerance)
            .map_err(TwError::runtime)?;
        print!("{}", compare::render(&cmp));
        return Ok(if cmp.regressions().is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if let Some(path) = a.text("--check") {
        let text = harness::read_verified(path)?;
        suite::check_artifact(&text).map_err(|e| TwError::runtime(format!("{path}: {e}")))?;
        println!("{path}: valid {} artifact", suite::SCHEMA);
        return Ok(ExitCode::SUCCESS);
    }
    let smoke = a.switch("--smoke");
    let matrix = if smoke {
        suite::smoke_matrix()
    } else {
        suite::full_matrix()
    };
    let insts = a.insts_or(if smoke { 20_000 } else { 200_000 });
    let mut plans = std::collections::HashMap::new();
    match a.text("--plan") {
        None => {}
        Some("auto") => {
            for &(b, _) in &matrix {
                if !plans.contains_key(b.name()) {
                    plans.insert(b.name(), harness::build_plan(&b.build(), insts)?);
                }
            }
        }
        Some(other) => {
            return Err(TwError::usage(format!(
                "bench --plan: only `auto` is supported (one plan per benchmark), got {other:?}"
            )));
        }
    }
    let json = a.switch("--json");
    if !json {
        println!(
            "{:12} {:12} {:>12} {:>12} {:>14}",
            "benchmark", "config", "wall", "ns/cycle", "instrs/sec"
        );
    }
    let samples = a.uint("--samples").map_or(3, |n| n as u32);
    let mut suite = suite::run_suite(
        &matrix,
        insts,
        samples,
        |b| plans.get(b.name()).cloned(),
        |cell, done, total| {
            if !json {
                println!(
                    "{:12} {:12} {:>10.1}ms {:>12.1} {:>14.0}   [{done}/{total}]",
                    cell.benchmark,
                    cell.config,
                    cell.wall_ns as f64 / 1e6,
                    cell.ns_per_cycle(),
                    cell.instrs_per_sec(),
                );
            }
        },
    );
    if !json {
        println!("\nsampling probes ({insts} insts, compress, full vs sampled):");
        println!(
            "{:12} {:>8} {:>10} {:>11} {:>11} {:>11}",
            "config", "speedup", "eff MIPS", "fetch d%", "mispred dpp", "promo dpp"
        );
    }
    suite.probes = suite::run_sampling_probes(&matrix, insts, samples, |p, _, _| {
        if !json {
            println!(
                "{:12} {:>7.1}x {:>10.1} {:>+10.2}% {:>+11.3} {:>+11.3}",
                p.config,
                p.speedup(),
                p.sampled_mips(),
                p.fetch_rate_delta_pct(),
                p.mispredict_delta_pp(),
                p.promo_coverage_delta_pp(),
            );
        }
    });
    let artifact = suite::suite_to_json(&suite).pretty();
    if json {
        println!("{artifact}");
    }
    let out = a.text("--out").unwrap_or("BENCH_frontend.json");
    let stamped = harness::stamp(&format!("{artifact}\n"));
    harness::write_atomic(std::path::Path::new(out), &stamped)
        .map_err(|e| TwError::runtime(format!("{out}: {e}")))?;
    if !json {
        println!("wrote {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(a: &Args) -> Result<ExitCode, TwError> {
    let mut config = harness::ServeConfig {
        workers: a.jobs(),
        default_insts: a.insts_or(DEFAULT_MAX_INSTS),
        ..harness::ServeConfig::default()
    };
    match (a.text("--addr"), a.uint("--port")) {
        (Some(_), Some(_)) => {
            return Err(TwError::usage("--addr and --port are mutually exclusive"))
        }
        (Some(addr), None) => config.addr = addr.to_string(),
        (None, Some(port)) => config.addr = format!("127.0.0.1:{port}"),
        (None, None) => {}
    }
    let count = |name: &str, default: usize| a.uint(name).map_or(default, |n| n as usize);
    config.queue_depth = count("--queue-depth", config.queue_depth);
    config.cache_entries = count("--cache-entries", config.cache_entries);
    config.max_conns = count("--max-conns", config.max_conns);
    config.max_body = count("--max-body", config.max_body);
    config.max_insts = a.uint("--max-insts").unwrap_or(config.max_insts);
    config.cache_dir = a.text("--cache-dir").map(std::path::PathBuf::from);
    if config.default_insts > config.max_insts {
        return Err(TwError::usage(format!(
            "--insts {} exceeds --max-insts {}",
            config.default_insts, config.max_insts
        )));
    }
    let bind_addr = config.addr.clone();
    let cache_dir = config.cache_dir.clone();
    let workers = config.workers;
    let server = harness::Server::bind(config).map_err(|e| {
        // Startup touches two resources: the cache directory (when
        // configured) opens first, then the socket binds.
        match &cache_dir {
            Some(dir) => TwError::runtime(format!(
                "bind {bind_addr} (cache-dir {}): {e}",
                dir.display()
            )),
            None => TwError::runtime(format!("bind {bind_addr}: {e}")),
        }
    })?;
    let addr = server
        .local_addr()
        .map_err(|e| TwError::runtime(format!("local_addr: {e}")))?;
    // Scripts (verify.sh, the load helper) parse this line for the
    // resolved address; keep its shape stable.
    println!("tw serve listening on http://{addr} ({workers} worker(s))");
    let summary = server.run();
    println!(
        "tw serve: {} request(s) ({} client error(s), {} server error(s)), \
         {} job panic(s), {} connection(s) shed",
        summary.requests,
        summary.client_errors,
        summary.server_errors,
        summary.job_panics,
        summary.conns_shed
    );
    if summary.job_panics > 0 {
        return Err(TwError::runtime(format!(
            "{} job(s) panicked during this run",
            summary.job_panics
        )));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_paper(a: &Args) -> Result<ExitCode, TwError> {
    let name = &a.operands[0];
    let selected = paper::select(name)
        .ok_or_else(|| TwError::usage(format!("paper: unknown experiment {name:?}")))?;
    let mut runner = MatrixRunner::new(a.insts_or(DEFAULT_MAX_INSTS), a.jobs());
    paper::run(&selected, &mut runner);
    Ok(ExitCode::SUCCESS)
}
