//! End-to-end CLI error-layer tests: every malformed input must exit
//! non-zero with a single `tw: <message>` diagnostic on stderr — no
//! panic, no backtrace, and the conventional exit-code split (2 for
//! usage errors, 1 for runtime failures).

use std::path::PathBuf;
use std::process::{Command, Output};

fn tw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tw"))
        .args(args)
        .output()
        .expect("tw binary runs")
}

fn stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).trim_end().to_string()
}

/// Asserts the failure contract: given exit code, one-line `tw:`
/// diagnostic, no panic artifacts.
fn assert_diagnostic(out: &Output, code: i32) {
    assert_eq!(
        out.status.code(),
        Some(code),
        "stderr: {}",
        stderr_line(out)
    );
    let err = stderr_line(out);
    assert_eq!(err.lines().count(), 1, "not a one-line diagnostic: {err:?}");
    assert!(err.starts_with("tw: "), "missing tw: prefix: {err:?}");
    assert!(!err.contains("panicked"), "panic leaked: {err:?}");
    assert!(!err.contains("RUST_BACKTRACE"), "backtrace leaked: {err:?}");
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tw-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path
}

#[test]
fn unknown_command_and_flags_are_usage_errors() {
    assert_diagnostic(&tw(&["frobnicate"]), 2);
    assert_diagnostic(&tw(&["sim", "--bogus-flag"]), 2);
    assert_diagnostic(&tw(&["sim", "--bench"]), 2); // missing value
    assert_diagnostic(&tw(&["sim", "--bench", "gcc", "--config", "nope"]), 2);
    assert_diagnostic(
        &tw(&[
            "sim", "--bench", "gcc", "--config", "headline", "--insts", "lots",
        ]),
        2,
    );
    let out = tw(&["faults", "--workload", "gcc", "--rate", "1e-3"]);
    assert_usage_error_only(&out);
    assert!(
        stderr_line(&out).contains("unknown command"),
        "{}",
        stderr_line(&out)
    );
    // Flags another subcommand declares are not accepted here.
    for args in [
        &[
            "sim", "--bench", "compress", "--config", "baseline", "--events", "tc",
        ][..],
        &["list", "--jobs", "2"],
        &[
            "sim", "--bench", "gcc", "--config", "baseline", "--jobs", "2",
        ],
        &["analyze", "--workload", "gcc", "--jobs", "2"],
        &["bench", "--smoke", "--jobs", "2"],
        &["bench", "--port", "1"],
        &["paper", "fig4", "--timeline"],
        &["compare", "--bench", "gcc", "--timeout-secs", "0"],
    ] {
        let out = tw(args);
        assert_usage_error_only(&out);
        assert!(
            stderr_line(&out).contains("unknown flag"),
            "{args:?}: {}",
            stderr_line(&out)
        );
    }
    assert_usage_error_only(&tw(&["paper", "fig99"]));
    assert_usage_error_only(&tw(&["paper"]));
}

/// A usage error that runs nothing: exit 2, one `tw:` line on stderr,
/// and nothing on stdout.
fn assert_usage_error_only(out: &Output) {
    assert_diagnostic(out, 2);
    assert!(
        out.stdout.is_empty(),
        "stdout not empty: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// One subcommand as `tw help` shows it.
struct Shown {
    /// The words that select it: `sim`, `checkpoint save`.
    words: Vec<String>,
    operands: usize,
    /// Each flag with the number of values it takes.
    flags: Vec<(String, usize)>,
}

/// Reads the subcommand synopses and the alias pairs out of `tw help`.
fn shown_usage() -> (Vec<Shown>, Vec<(String, String)>) {
    let help = tw(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8_lossy(&help.stderr).to_string();
    // A synopsis starts at `  tw ` and continues on lines indented
    // deeper than the six-space description.
    let mut synopses: Vec<String> = Vec::new();
    let mut open = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("  tw ") {
            synopses.push(rest.to_string());
            open = true;
        } else if open && line.starts_with("       ") {
            let last = synopses.last_mut().expect("synopsis open");
            last.push(' ');
            last.push_str(line.trim());
        } else {
            open = false;
        }
    }
    let commands = synopses
        .iter()
        .map(|synopsis| {
            let tokens: Vec<&str> = synopsis.split_whitespace().collect();
            let words: Vec<String> = tokens
                .iter()
                .take_while(|t| t.chars().all(|c| c.is_ascii_lowercase()))
                .map(|t| (*t).to_string())
                .collect();
            let operands = tokens[words.len()..]
                .iter()
                .take_while(|t| !t.starts_with('-') && !t.starts_with('['))
                .count();
            let mut flags: Vec<(String, usize)> = Vec::new();
            for token in &tokens[words.len() + operands..] {
                let bare = token.trim_start_matches('[');
                if bare.starts_with("--") {
                    flags.push((bare.trim_end_matches(']').to_string(), 0));
                } else {
                    flags.last_mut().expect("value follows a flag").1 += 1;
                }
            }
            Shown {
                words,
                operands,
                flags,
            }
        })
        .collect();
    let start = text.find("aliases:").expect("usage lists aliases");
    let end = start + text[start..].find("configurations:").expect("then presets");
    let aliases = text[start + "aliases:".len()..end]
        .split(',')
        .map(|pair| {
            let (a, b) = pair.split_once(" = ").expect("alias pair");
            (a.trim().to_string(), b.trim().to_string())
        })
        .collect();
    (commands, aliases)
}

/// The usage text and the parser agree: each subcommand accepts every
/// flag (and alias) its synopsis lists, with the value count shown, and
/// rejects every other flag any subcommand lists.
#[test]
fn every_subcommand_accepts_exactly_the_flags_its_usage_lists() {
    let (commands, aliases) = shown_usage();
    let names: Vec<String> = commands.iter().map(|c| c.words.join(" ")).collect();
    for want in [
        "sim",
        "checkpoint save",
        "checkpoint restore",
        "rv",
        "paper",
    ] {
        assert!(names.iter().any(|n| n == want), "{want} missing: {names:?}");
    }
    let mut all_flags: Vec<String> = Vec::new();
    for (a, b) in &aliases {
        all_flags.push(a.clone());
        all_flags.push(b.clone());
    }
    for c in &commands {
        all_flags.extend(c.flags.iter().map(|(f, _)| f.clone()));
    }
    all_flags.sort();
    all_flags.dedup();

    for c in &commands {
        let mut accepted = c.flags.clone();
        for (flag, arity) in &c.flags {
            for (a, b) in &aliases {
                if flag == a {
                    accepted.push((b.clone(), *arity));
                } else if flag == b {
                    accepted.push((a.clone(), *arity));
                }
            }
        }
        let mut prefix: Vec<&str> = c.words.iter().map(String::as_str).collect();
        prefix.extend(std::iter::repeat_n("x", c.operands));
        for (flag, arity) in &accepted {
            // Flags are matched before any value is checked, so a
            // placeholder value reaches the undeclared probe.
            let mut args = prefix.clone();
            args.push(flag);
            args.extend(std::iter::repeat_n("x", *arity));
            args.push("--undeclared-probe");
            let out = tw(&args);
            assert_usage_error_only(&out);
            assert!(
                stderr_line(&out).contains("`--undeclared-probe`"),
                "{args:?}: {}",
                stderr_line(&out)
            );
        }
        for flag in &all_flags {
            if accepted.iter().any(|(f, _)| f == flag) {
                continue;
            }
            let mut args = prefix.clone();
            args.push(flag);
            let out = tw(&args);
            assert_usage_error_only(&out);
            assert!(
                stderr_line(&out).contains(&format!("unknown flag `{flag}`")),
                "{args:?}: {}",
                stderr_line(&out)
            );
        }
    }
}

#[test]
fn malformed_asm_is_a_runtime_error_with_position() {
    let path = temp_file("bad.s", "li t0, 0\nfrobnicate t1\n");
    let out = tw(&["lint", "--asm", path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_diagnostic(&out, 1);
    let err = stderr_line(&out);
    assert!(
        err.contains("line 2:1"),
        "no position in diagnostic: {err:?}"
    );
    assert!(err.contains("frobnicate"), "no offending token: {err:?}");
}

#[test]
fn valid_asm_lints_clean() {
    let path = temp_file("good.s", ".entry main\nmain:\n  li t0, 3\n  halt\n");
    let out = tw(&["lint", "--asm", path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 instruction(s)"), "{stdout}");
}

#[test]
fn truncated_bench_artifact_is_a_runtime_error() {
    let good = r#"{"schema":"tw-bench/v1","cells":[{"benchmark":"gcc","config":"icache","ns_per_cycle":1.0}]}"#;
    let truncated = &good[..good.len() / 2];
    let good_path = temp_file("good.json", good);
    let bad_path = temp_file("trunc.json", truncated);
    let check = tw(&["bench", "--check", bad_path.to_str().expect("utf-8 path")]);
    let cmp = tw(&[
        "bench",
        "--compare",
        good_path.to_str().expect("utf-8 path"),
        bad_path.to_str().expect("utf-8 path"),
    ]);
    let missing = tw(&["bench", "--check", "/nonexistent/definitely-missing.json"]);
    let _ = std::fs::remove_file(&good_path);
    let _ = std::fs::remove_file(&bad_path);
    assert_diagnostic(&check, 1);
    assert_diagnostic(&cmp, 1);
    assert_diagnostic(&missing, 1);
}

#[test]
fn analyze_emits_a_valid_plan_and_sim_consumes_it() {
    // analyze → plan file → analyze --check → sim --plan, end to end.
    let out = tw(&[
        "analyze",
        "--workload",
        "compress",
        "--insts",
        "100000",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"tw-plan/v1\""), "{stdout}");
    assert!(stdout.contains("\"branches\""), "{stdout}");

    let path = temp_file("plan.json", &stdout);
    let p = path.to_str().expect("utf-8 path");
    let check = tw(&["analyze", "--check", p]);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&check)
    );
    let sim = tw(&[
        "sim",
        "--bench",
        "compress",
        "--config",
        "promo-pack",
        "--insts",
        "30000",
        "--plan",
        p,
        "--json",
    ]);
    let wrong = tw(&[
        "sim",
        "--bench",
        "gcc",
        "--config",
        "promo-pack",
        "--insts",
        "30000",
        "--plan",
        p,
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(sim.status.code(), Some(0), "stderr: {}", stderr_line(&sim));
    let sim_out = String::from_utf8_lossy(&sim.stdout);
    assert!(sim_out.contains("\"plan\""), "no plan stats: {sim_out}");
    // A plan profiled for compress must be rejected on gcc.
    assert_diagnostic(&wrong, 1);
}

#[test]
fn malformed_plans_are_runtime_errors() {
    let bad = temp_file("bad-plan.json", "{\"schema\": \"tw-plan/v9\"}");
    let p = bad.to_str().expect("utf-8 path");
    let check = tw(&["analyze", "--check", p]);
    let sim = tw(&[
        "sim",
        "--bench",
        "compress",
        "--config",
        "promotion",
        "--plan",
        p,
    ]);
    let _ = std::fs::remove_file(&bad);
    assert_diagnostic(&check, 1);
    assert_diagnostic(&sim, 1);
    let missing = tw(&["analyze", "--check", "/nonexistent/definitely-missing.json"]);
    assert_diagnostic(&missing, 1);
    // bench only accepts `--plan auto` (one plan per benchmark).
    assert_diagnostic(&tw(&["bench", "--smoke", "--plan", "plan.json"]), 2);
    // analyze without a workload is a usage error.
    assert_diagnostic(&tw(&["analyze"]), 2);
}

/// Every front door checks the fault flags by one rule: a seed or a
/// target list alone, a rate outside (0, 1], a rate with a cycle list,
/// and empty or unknown lists are usage errors that run nothing.
#[test]
fn fault_flags_follow_one_rule() {
    let sim = ["sim", "--bench", "gcc", "--config", "headline"];
    for (extra, reason) in [
        (&["--rate", "5"][..], "outside (0, 1]"),
        (&["--rate", "-1"], "outside (0, 1]"),
        (&["--fault-rate", "0"], "outside (0, 1]"),
        (&["--seed", "7"], "needs a fault rate"),
        (&["--rate", "1e-3", "--at-cycles", "5"], "not both"),
        (&["--at-cycles", ","], "empty fault cycle list"),
        (
            &["--rate", "1e-3", "--targets", ","],
            "empty fault target list",
        ),
        (&["--rate", "1e-4", "--targets", "bogus"], "bogus"),
    ] {
        let args: Vec<&str> = sim.iter().chain(extra).copied().collect();
        let out = tw(&args);
        assert_usage_error_only(&out);
        assert!(
            stderr_line(&out).contains(reason),
            "{args:?}: {}",
            stderr_line(&out)
        );
    }
    for extra in [&["--targets", "ras"][..], &["--fault-seed", "7"]] {
        let args: Vec<&str> = ["compare", "--bench", "gcc"]
            .iter()
            .chain(extra)
            .copied()
            .collect();
        let out = tw(&args);
        assert_usage_error_only(&out);
        assert!(
            stderr_line(&out).contains("needs a fault rate"),
            "{args:?}: {}",
            stderr_line(&out)
        );
    }
}

/// A fault campaign is a `sim` run: the fault golden, captured from the
/// former `tw faults` subcommand, comes out of `tw sim` byte for byte.
#[test]
fn sim_with_a_fault_rate_reproduces_the_faults_golden() {
    let out = tw(&[
        "sim", "--bench", "compress", "--config", "headline", "--insts", "100000", "--seed", "1",
        "--rate", "1e-2", "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let golden = include_str!("../crates/sim/tests/golden/compress-headline-faults-100k.json");
    assert!(
        out.stdout == golden.as_bytes(),
        "tw sim differs from the faults golden:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A reader that closes early ends `tw` quietly (exit 0 or SIGPIPE),
/// never with a panic. The read end closes before the command has
/// written anything, so its first write meets the closed pipe.
#[test]
fn closed_stdout_ends_tw_quietly() {
    use std::process::Stdio;
    for args in [
        &[
            "sim", "--bench", "gcc", "--config", "headline", "--insts", "20000", "--json",
        ][..],
        &["paper", "fig10", "--insts", "20000"],
        &["list"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tw"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tw binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("tw exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            let sigpipe = out.status.signal() == Some(13);
            assert!(
                out.status.success() || sigpipe,
                "{args:?}: {:?}",
                out.status
            );
        }
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
}

#[test]
fn sim_fault_runs_report_deterministic_counters() {
    let run = |seed: &str| {
        let out = tw(&[
            "sim", "--bench", "compress", "--config", "headline", "--seed", seed, "--rate", "1e-3",
            "--insts", "20000", "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains("\"fault\""), "no fault stats: {stdout}");
        assert!(stdout.contains("\"injected\""), "{stdout}");
        assert!(stdout.contains("\"escaped\""), "{stdout}");
        stdout
    };
    // Same seed twice: bit-identical output. Different seed: same shape.
    let a = run("11");
    let b = run("11");
    assert_eq!(a, b, "same seed+plan must reproduce exactly");
    let _ = run("12");
}

#[test]
fn jobs_flag_enforces_the_range_contract() {
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "0"]), 2);
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "1000000"]), 2);
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "-3"]), 2);
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "many"]), 2);
    let err = stderr_line(&tw(&["compare", "--bench", "gcc", "--jobs", "1000000"]));
    assert!(err.contains("cap"), "names the cap: {err}");
    assert_usage_error_only(&tw(&["paper", "fig4", "--jobs", "0"]));
}

#[test]
fn compare_timeline_output_does_not_depend_on_jobs() {
    let run = |jobs: &str| {
        let out = tw(&[
            "compare",
            "--bench",
            "li",
            "--insts",
            "50000",
            "--timeline",
            "--json",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
        out.stdout
    };
    let serial = run("1");
    assert!(!serial.is_empty());
    assert!(serial == run("3"), "--jobs 3 output differs from --jobs 1");
}

fn temp_bytes(name: &str, contents: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tw-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path
}

#[test]
fn rv_inspects_a_committed_image() {
    // Committed workload images live in the source tree; integration
    // tests run with the package root as the working directory.
    let out = tw(&["rv", "crates/rv/programs/crc.rv.bin"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rv instructions"), "{stdout}");
    assert!(stdout.contains("translated"), "{stdout}");
    assert!(stdout.contains("expansion"), "{stdout}");
}

#[test]
fn malformed_rv_images_are_structured_usage_errors() {
    // Not an image at all.
    let garbage = temp_bytes("garbage.rv.bin", b"ELF\x7fdefinitely not RV32");
    let out = tw(&["rv", garbage.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&garbage);
    assert_diagnostic(&out, 2);
    assert!(stderr_line(&out).contains("magic"), "{}", stderr_line(&out));

    // A valid image truncated mid-segment.
    let whole = std::fs::read("crates/rv/programs/fib.rv.bin").expect("committed image");
    let cut = temp_bytes("trunc.rv.bin", &whole[..whole.len() - 5]);
    let out = tw(&["rv", cut.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&cut);
    assert_diagnostic(&out, 2);
    assert!(
        stderr_line(&out).contains("truncated"),
        "{}",
        stderr_line(&out)
    );

    // Missing file is a runtime error; missing operand a usage error.
    assert_diagnostic(&tw(&["rv", "/nonexistent/definitely-missing.rv.bin"]), 1);
    assert_diagnostic(&tw(&["rv"]), 2);
    assert_diagnostic(&tw(&["rv", "a.rv.bin", "b.rv.bin"]), 2);
}

#[test]
fn rv_workloads_reach_the_sim_surface_by_family_name() {
    let out = tw(&[
        "sim", "--bench", "rv/crc", "--config", "headline", "--insts", "30000", "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"benchmark\": \"rv/crc\""), "{stdout}");
    // Unknown rv/ names get the same usage diagnostic as synthetic ones.
    assert_diagnostic(
        &tw(&["sim", "--bench", "rv/nope", "--config", "headline"]),
        2,
    );
}

#[test]
fn default_warmup_saturates_instead_of_overflowing() {
    // The default warm-up is min(period - measure, 2 * measure); with a
    // measure above u64::MAX / 2 the doubling must saturate, not panic
    // (debug) or wrap (release).
    let out = tw(&[
        "sim",
        "--bench",
        "compress",
        "--config",
        "headline",
        "--insts",
        "20000",
        "--sample",
        "10000000000000000000/18446744073709551615",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sample10000000000000000000/18446744073709551615w8446744073709551615"),
        "{stdout}"
    );
}

#[test]
fn serve_flags_are_validated_before_binding() {
    assert_diagnostic(&tw(&["serve", "--queue-depth", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--cache-entries", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--max-conns", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--max-body", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--max-insts", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--port", "99999"]), 2);
    assert_diagnostic(
        &tw(&["serve", "--addr", "127.0.0.1:0", "--port", "8080"]),
        2,
    );
    assert_diagnostic(
        &tw(&["serve", "--insts", "2000000", "--max-insts", "1000"]),
        2,
    );
    // An unbindable address is a runtime error (exit 1), not a panic.
    assert_diagnostic(&tw(&["serve", "--addr", "999.999.999.999:1"]), 1);
}

/// The durability contract end to end: artifacts written by `tw` are
/// CRC-stamped, a stamped artifact round-trips, and *any* corruption —
/// a flipped byte, a truncation — turns into an exit-1 one-liner that
/// names the crc32 mismatch instead of a confusing parse error (or
/// worse, silently wrong numbers).
#[test]
fn corrupted_checkpoint_fails_with_crc_diagnostic() {
    let out_path =
        std::env::temp_dir().join(format!("tw-cli-test-{}-ckpt.json", std::process::id()));
    let out_str = out_path.to_str().expect("utf-8 path");
    let save = tw(&[
        "checkpoint",
        "save",
        "--workload",
        "gcc",
        "--insts",
        "30000",
        "--out",
        out_str,
    ]);
    assert_eq!(
        save.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&save)
    );
    let text = std::fs::read_to_string(&out_path).expect("checkpoint written");
    assert!(text.contains("\"crc32\""), "artifact is stamped: {text}");

    // The intact artifact restores cleanly.
    let restore = tw(&[
        "checkpoint",
        "restore",
        "--from",
        out_str,
        "--config",
        "promo-pack",
        "--insts",
        "20000",
    ]);
    assert_eq!(
        restore.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&restore)
    );

    // One flipped byte in the payload: restore must refuse, naming the
    // CRC mismatch — before any parsing can misfire.
    let mut flipped = text.clone().into_bytes();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    std::fs::write(&out_path, &flipped).expect("corrupt rewrite");
    let out = tw(&[
        "checkpoint",
        "restore",
        "--from",
        out_str,
        "--config",
        "promo-pack",
    ]);
    assert_diagnostic(&out, 1);
    assert!(
        stderr_line(&out).contains("crc32 mismatch"),
        "diagnostic names the crc: {}",
        stderr_line(&out)
    );

    // Truncation: the stamp leads the artifact, so a half file is still
    // recognizably stamped and fails the same way.
    std::fs::write(&out_path, &text.as_bytes()[..text.len() / 2]).expect("truncate");
    let out = tw(&[
        "checkpoint",
        "restore",
        "--from",
        out_str,
        "--config",
        "promo-pack",
    ]);
    let _ = std::fs::remove_file(&out_path);
    assert_diagnostic(&out, 1);
    assert!(
        stderr_line(&out).contains("crc32 mismatch"),
        "diagnostic names the crc: {}",
        stderr_line(&out)
    );
}

#[test]
fn corrupted_plan_fails_with_crc_diagnostic() {
    let out_path =
        std::env::temp_dir().join(format!("tw-cli-test-{}-plan.json", std::process::id()));
    let out_str = out_path.to_str().expect("utf-8 path");
    let analyze = tw(&[
        "analyze",
        "--workload",
        "gcc",
        "--insts",
        "30000",
        "--out",
        out_str,
    ]);
    assert_eq!(
        analyze.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&analyze)
    );
    let text = std::fs::read_to_string(&out_path).expect("plan written");
    assert!(text.contains("\"crc32\""), "plan is stamped: {text}");
    let check = tw(&["analyze", "--check", out_str]);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&check)
    );

    let mut flipped = text.into_bytes();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    std::fs::write(&out_path, &flipped).expect("corrupt rewrite");
    let check = tw(&["analyze", "--check", out_str]);
    let sim = tw(&[
        "sim",
        "--bench",
        "gcc",
        "--config",
        "promo-pack",
        "--insts",
        "20000",
        "--plan",
        out_str,
    ]);
    let _ = std::fs::remove_file(&out_path);
    assert_diagnostic(&check, 1);
    assert_diagnostic(&sim, 1);
    assert!(
        stderr_line(&check).contains("crc32 mismatch"),
        "{}",
        stderr_line(&check)
    );
}

/// Artifacts from before the integrity envelope (no `crc32` field) are
/// still accepted — the stamp is additive, not a format break.
#[test]
fn legacy_unstamped_artifacts_are_still_accepted() {
    let good = r#"{"schema":"tw-bench/v1","cells":[{"benchmark":"gcc","config":"icache","ns_per_cycle":1.0}]}"#;
    let path = temp_file("legacy.json", good);
    let path_str = path.to_str().expect("utf-8 path");
    let check = tw(&["bench", "--check", path_str]);
    let cmp = tw(&["bench", "--compare", path_str, path_str]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&check)
    );
    assert_eq!(cmp.status.code(), Some(0), "stderr: {}", stderr_line(&cmp));
}

#[test]
fn corrupted_bench_artifact_names_the_crc_in_check_and_compare() {
    // A hand-stamped artifact (the same envelope `tw bench --out`
    // writes) with one payload byte flipped after stamping.
    let good = r#"{"schema":"tw-bench/v1","cells":[{"benchmark":"gcc","config":"icache","ns_per_cycle":1.0}]}"#;
    let stamped = trace_weave::sim::harness::stamp(good);
    let corrupt = stamped.replace("1.0", "9.0"); // flip payload bytes, keep JSON valid
    assert_ne!(stamped, corrupt, "corruption applied");
    let good_path = temp_file("stamped-good.json", &stamped);
    let bad_path = temp_file("stamped-bad.json", &corrupt);
    let good_str = good_path.to_str().expect("utf-8 path");
    let bad_str = bad_path.to_str().expect("utf-8 path");

    let ok = tw(&["bench", "--check", good_str]);
    assert_eq!(ok.status.code(), Some(0), "stderr: {}", stderr_line(&ok));

    let check = tw(&["bench", "--check", bad_str]);
    let cmp = tw(&["bench", "--compare", good_str, bad_str]);
    let _ = std::fs::remove_file(&good_path);
    let _ = std::fs::remove_file(&bad_path);
    assert_diagnostic(&check, 1);
    assert_diagnostic(&cmp, 1);
    for out in [&check, &cmp] {
        assert!(
            stderr_line(out).contains("crc32 mismatch"),
            "diagnostic names the crc: {}",
            stderr_line(out)
        );
    }
}
