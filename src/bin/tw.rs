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
use trace_weave::fault::FaultPlan;
use trace_weave::sim::harness::{
    self, presets, report_to_json, reports_to_json, run_matrix, run_matrix_with, run_traced,
    sim_config, timeline_table, MatrixRunner, TraceOptions, TwError, MAX_TRACE_LIMIT,
};
use trace_weave::sim::{ExecutionMode, Processor, SimConfig, SimReport, DEFAULT_MAX_INSTS};
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
    /// A number; its range is checked where it is used.
    Real,
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
    flag(&["--rate", "--fault-rate"], "R", Kind::Real),
    flag(&["--at-cycles"], "C1,C2,...", Kind::Cycles),
    flag(&["--targets"], "LIST", Kind::Text),
    flag(&["--check"], "FILE", Kind::Text),
    flag(&["--events"], "FILTER", Kind::Text),
    flag(&["--limit"], "N", Kind::Uint(0, MAX_TRACE_LIMIT as u64)),
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
    /// The word that selects it: `sim`.
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
        synopsis: "--bench --config! --insts --perfect-mem --json --timeline --interval \
                   --out --events --limit --plan --fast-forward --sample --warmup --from \
                   --fault-rate --fault-seed --at-cycles --targets",
        about: "simulate one benchmark under one configuration; --fast-forward skips N \
                instructions functionally before timing, or --sample times M of every K \
                instructions, warming the front end for W before each window; --from \
                resumes a tw checkpoint file, in place of --bench, on the workload it \
                names and at its saved position (bit-identical to --fast-forward to that \
                position); --plan attaches a tw-plan/v1 promotion plan (auto = build it \
                now); --timeline prints the interval timeline; --out writes a \
                Chrome/Perfetto trace_event file of the first --limit events (default \
                100000, at most 1000000) that FILTER passes (a comma list of event kinds \
                or categories: tc, fill, promote, mispredict, cache, machine, retire, \
                fault, or all, the default); --interval sets the timeline window in \
                cycles (default 10000); --fault-rate R (0 < R <= 1) or --at-cycles \
                attaches a deterministic fault plan (seed S, default 1) and the report \
                gains fault counters; LIST is a comma list of loci (tc-segment, tc-evict, \
                bias, predictor, ras, fill-stall), default all",
        run: cmd_sim,
    },
    Command {
        name: "checkpoint",
        synopsis: "--workload! --insts --out",
        about: "fast-forward N instructions functionally and write the architectural \
                state as a tw-ckpt/v1 file (default <name>.ckpt.json) for tw sim --from",
        run: cmd_checkpoint,
    },
    Command {
        name: "compare",
        synopsis: "--bench! --insts --jobs --perfect-mem --json --timeline --interval \
                   --plan --fault-rate --fault-seed --at-cycles --targets",
        about: "compare the five standard configurations on one benchmark; the fault \
                flags, as for sim, attach one fault plan to every cell",
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
        about: "run the simulation service (POST /v1/{sim,compare,analyze}, \
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
        let Some(command) = COMMANDS.iter().find(|c| c.name == first) else {
            return Err(TwError::usage(format!("unknown command `{first}`")));
        };
        let (name, rest) = (command.name, &args[1..]);

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

    /// The execution mode `--fast-forward` / `--sample` / `--warmup`
    /// describe, validating the combination.
    fn mode(&self) -> Result<ExecutionMode, TwError> {
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
            (Some(skip), None) => Ok(ExecutionMode::FastForward { skip }),
            (None, Some((measure, period))) => {
                let warmup =
                    warmup.unwrap_or_else(|| (period - measure).min(measure.saturating_mul(2)));
                if warmup.checked_add(measure).is_none_or(|used| used > period) {
                    return Err(TwError::usage(format!(
                        "--warmup {warmup} + measure {measure} exceeds the {period}-instruction period"
                    )));
                }
                Ok(ExecutionMode::Sample {
                    warmup,
                    measure,
                    period,
                })
            }
            (None, None) => Ok(ExecutionMode::FullTiming),
        }
    }

    /// The fault plan the fault flags describe, under the rule
    /// [`harness::fault_plan`] applies to every front door.
    fn fault_plan(&self) -> Result<Option<FaultPlan>, TwError> {
        let rate = match self.get("--rate") {
            Some(Value::Real(rate)) => Some(*rate),
            _ => None,
        };
        let cycles = match self.get("--at-cycles") {
            Some(Value::Cycles(cycles)) => Some(cycles.clone()),
            _ => None,
        };
        let targets: Option<Vec<&str>> = self.text("--targets").map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .collect()
        });
        harness::fault_plan(self.uint("--seed"), rate, cycles, targets.as_deref())
    }

    /// The trace `tw sim`'s trace flags describe, under the rule
    /// [`harness::trace_options`] applies to every front door; `--out`
    /// is what makes a run traced.
    fn trace_options(&self) -> Result<Option<TraceOptions>, TwError> {
        let traced = self.text("--out").is_some();
        if !traced && (self.get("--events").is_some() || self.get("--limit").is_some()) {
            return Err(TwError::usage("--events and --limit need --out"));
        }
        let filter = self
            .text("--events")
            .map(EventFilter::parse)
            .transpose()
            .map_err(|e| TwError::usage(format!("--events: {e}")))?;
        harness::trace_options(
            self.switch("--timeline"),
            traced,
            filter,
            self.uint("--interval"),
            self.uint("--limit"),
        )
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
        Kind::Real => Value::Real(real()?),
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
    die_on_broken_pipe();
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tw: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Restores the default `SIGPIPE` action, which the Rust runtime sets
/// to ignore: a closed stdout (`tw list | head -1`) then ends `tw` the
/// way it ends any Unix filter, instead of a panic in `println!`. The
/// daemon's socket writes are unaffected (std sends with
/// `MSG_NOSIGNAL`).
fn die_on_broken_pipe() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` is the C library's, which std links on every
        // Unix; installing the default action runs no Rust code.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
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

fn cmd_sim(a: &Args) -> Result<ExitCode, TwError> {
    let mode = a.mode()?;
    let fault = a.fault_plan()?;
    let trace = a.trace_options()?;
    let (bench, checkpoint) = match a.text("--from") {
        None => (a.workload()?, None),
        Some(_) if a.get("--bench").is_some() || mode != ExecutionMode::FullTiming => {
            return Err(TwError::usage(
                "--from resumes its file's workload at its position: drop --bench, \
                 --fast-forward and --sample",
            ))
        }
        Some(path) => {
            let ckpt = harness::parse_checkpoint(&harness::read_verified(path)?)?;
            let bench = harness::find_bench(&ckpt.workload).ok_or_else(|| {
                TwError::runtime(format!(
                    "{path}: checkpoint names unknown workload {:?}",
                    ckpt.workload
                ))
            })?;
            (bench, Some(ckpt))
        }
    };
    let workload = bench.build();
    // Resuming at position n under FastForward{n} skips nothing and
    // reports identically to an unresumed `--fast-forward n` run.
    let (machine, mode) = match &checkpoint {
        Some(ckpt) => (
            ckpt.restore(&workload)?,
            ExecutionMode::FastForward { skip: ckpt.retired },
        ),
        None => (workload.machine(), mode),
    };
    let config = sim_config(
        a.config()?,
        a.insts_or(DEFAULT_MAX_INSTS),
        a.switch("--perfect-mem"),
        fault.as_ref(),
        load_plan(a, bench)?.as_ref(),
        mode,
    );
    let Some(options) = trace else {
        emit_report(a, &Processor::new(config).run_from(&workload, machine));
        return Ok(ExitCode::SUCCESS);
    };
    let run = run_traced(config, &workload, machine, &options);
    if let Some(out) = a.text("--out") {
        let text = harness::chrome_trace_json(&run).pretty();
        if let Err(e) = harness::parse_json(&text) {
            return Err(TwError::runtime(format!(
                "internal error: emitted trace is malformed: {e}"
            )));
        }
        // Chrome/Perfetto consume this file directly, so it gets the
        // atomic write but not the CRC stamp.
        harness::write_atomic(std::path::Path::new(out), &format!("{text}\n"))
            .map_err(|e| TwError::runtime(format!("{out}: {e}")))?;
    }
    let tl = &run.timeline;
    if !a.switch("--timeline") {
        emit_report(a, &run.report);
    } else if a.switch("--json") {
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
    if let Some(out) = a.text("--out").filter(|_| !a.switch("--json")) {
        let s = &run.summary;
        println!(
            "wrote {out}: {} events emitted, {} recorded, {} dropped, {} filtered",
            s.emitted, s.recorded, s.dropped, s.filtered
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_checkpoint(a: &Args) -> Result<ExitCode, TwError> {
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

fn cmd_compare(a: &Args) -> Result<ExitCode, TwError> {
    let bench = a.workload()?;
    let fault_plan = a.fault_plan()?;
    let timeline = harness::trace_options(
        a.switch("--timeline"),
        false,
        None,
        a.uint("--interval"),
        None,
    )?;
    let insts = a.insts_or(DEFAULT_MAX_INSTS);
    let promotion_plan = load_plan(a, bench)?;
    let cells: Vec<(WorkloadId, SimConfig)> = harness::standard_five()
        .into_iter()
        .map(|(_, preset)| {
            let config = sim_config(
                preset,
                insts,
                a.switch("--perfect-mem"),
                fault_plan.as_ref(),
                promotion_plan.as_ref(),
                ExecutionMode::FullTiming,
            );
            (bench, config)
        })
        .collect();
    let (reports, timelines): (Vec<SimReport>, Vec<_>) = match &timeline {
        // The timeline rides on the same simulation that produces the
        // report.
        Some(options) => run_matrix_with(&cells, a.jobs(), |config, workload| {
            run_traced(config, workload, workload.machine(), options)
        })
        .into_iter()
        .map(|run| (run.report, run.timeline))
        .unzip(),
        None => (run_matrix(&cells, a.jobs()), Vec::new()),
    };
    if a.switch("--json") {
        if timeline.is_some() {
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
    // A request that omits `insts` runs the default, so it obeys the
    // range an explicit `insts` does.
    if config.default_insts == 0 || config.default_insts > config.max_insts {
        return Err(TwError::usage(format!(
            "--insts {} is outside 1..={} (--max-insts)",
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
