//! `tw analyze`: profile-guided branch classification → promotion plan.
//!
//! The driver behind the `tw-plan/v1` artifact. It fuses two sources of
//! evidence about every static conditional branch of a workload:
//!
//! * **static** — `tc-analyze`'s loop/trip-count passes (back-edge
//!   structure, loop depth, static taken-probability of countable-loop
//!   latches);
//! * **dynamic** — a functional replay of the workload's instruction
//!   stream collecting per-branch direction, transition, and order-2
//!   history counts ([`DynProfile`]).
//!
//! [`tc_analyze::classify`] bins each branch into the four-class
//! predictability taxonomy and prescribes a promotion action; the result
//! is a [`PromotionPlan`] that `tw sim --plan` (and friends) attach via
//! [`crate::SimConfig::with_promotion_plan`].
//!
//! Profiling is one serial functional pass, so a plan depends only on
//! the workload and the instruction budget.

use std::collections::BTreeMap;

use tc_analyze::{analyze, classify, DynProfile};
use tc_isa::ControlKind;
use tc_predict::{BiasOverride, BranchClass, PlanAction};
use tc_workloads::Workload;

use crate::harness::error::TwError;
use crate::harness::json::Json;
use crate::harness::parse::{parse_json, Value};
use crate::harness::table::Table;
use crate::plan::{PlanEntry, PromotionPlan};

/// Schema tag of the promotion-plan artifact.
pub const PLAN_SCHEMA: &str = "tw-plan/v1";

/// Promotion thresholds must fit the bias-table counter width.
const MAX_THRESHOLD: u32 = 1023;

/// One branch's profile plus its last two outcomes (`last[1]` most
/// recent), which the transition and order-2 counts condition on.
#[derive(Default)]
struct BranchHistory {
    profile: DynProfile,
    last: [bool; 2],
}

impl BranchHistory {
    fn push(&mut self, outcome: bool) {
        let p = &mut self.profile;
        if p.executed >= 1 && self.last[1] != outcome {
            p.transitions += 1;
        }
        if p.executed >= 2 {
            let ctx = (usize::from(self.last[0]) << 1) | usize::from(self.last[1]);
            p.markov[ctx][usize::from(outcome)] += 1;
        }
        self.last = [self.last[1], outcome];
        p.executed += 1;
        p.taken += u64::from(outcome);
    }
}

/// Functionally profiles up to `max_insts` instructions of `workload`,
/// returning per-branch dynamic profiles (keyed by branch byte address)
/// and the instructions actually executed.
///
/// # Errors
///
/// Fails if the workload faults (registered workloads never do).
pub fn profile_branches(
    workload: &Workload,
    max_insts: u64,
) -> Result<(BTreeMap<u64, DynProfile>, u64), TwError> {
    let mut interp = workload.interpreter();
    let mut branches: BTreeMap<u64, BranchHistory> = BTreeMap::new();
    let profiled = interp.for_each_record(max_insts, |rec| {
        if rec.is_cond_branch() {
            branches
                .entry(rec.pc.byte_addr())
                .or_default()
                .push(rec.taken);
        }
    });
    if let Some(e) = interp.error() {
        return Err(TwError::runtime(format!(
            "{}: workload faulted while profiling: {e:?}",
            workload.name()
        )));
    }
    let profiles = branches
        .into_iter()
        .map(|(pc, b)| (pc, b.profile))
        .collect();
    Ok((profiles, profiled))
}

/// Runs the full analysis pipeline on `workload`: static passes +
/// functional profile + per-branch classification, producing the plan
/// `tw sim --plan` consumes.
///
/// # Errors
///
/// Propagates [`profile_branches`] failures.
pub fn build_plan(workload: &Workload, max_insts: u64) -> Result<PromotionPlan, TwError> {
    let (profiles, profiled) = profile_branches(workload, max_insts)?;
    let report = analyze(workload.program());
    let mut entries = Vec::new();
    for b in &report.taxonomy.branches {
        if b.kind != ControlKind::CondBranch {
            continue;
        }
        let pc = b.pc.byte_addr();
        let prof = profiles.get(&pc);
        let over = classify(b.static_taken_prob, prof);
        let p = prof.copied().unwrap_or_default();
        entries.push(PlanEntry {
            pc,
            over,
            executed: p.executed,
            taken: p.taken,
            transitions: p.transitions,
            bias: p.bias(),
            avg_run: p.avg_run(),
            markov_accuracy: p.markov_accuracy(),
            loop_depth: b.loop_depth,
            static_taken_prob: b.static_taken_prob,
        });
    }
    Ok(PromotionPlan {
        workload: workload.name().to_owned(),
        profiled_insts: profiled,
        entries,
    })
}

/// The `tw-plan/v1` JSON form of a plan. The key set is pinned by a
/// golden test; extend it additively.
#[must_use]
pub fn plan_to_json(plan: &PromotionPlan) -> Json {
    let counts = plan.class_counts();
    let branches = plan
        .entries
        .iter()
        .map(|e| {
            let (action, threshold) = match e.over.action {
                PlanAction::Never => ("never", Json::Null),
                PlanAction::Threshold(t) => ("promote", Json::UInt(u64::from(t))),
            };
            Json::Object(vec![
                ("pc", Json::UInt(e.pc)),
                ("class", Json::Str(e.over.class.name().to_owned())),
                ("action", Json::Str(action.to_owned())),
                ("threshold", threshold),
                ("executed", Json::UInt(e.executed)),
                ("taken", Json::UInt(e.taken)),
                ("transitions", Json::UInt(e.transitions)),
                ("bias", Json::Float(e.bias)),
                ("avg_run", Json::Float(e.avg_run)),
                ("markov_accuracy", Json::Float(e.markov_accuracy)),
                ("loop_depth", Json::UInt(e.loop_depth as u64)),
                (
                    "static_taken_prob",
                    e.static_taken_prob.map_or(Json::Null, Json::Float),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        ("schema", Json::Str(PLAN_SCHEMA.to_owned())),
        ("workload", Json::Str(plan.workload.clone())),
        ("profiled_instructions", Json::UInt(plan.profiled_insts)),
        ("static_branches", Json::UInt(plan.len() as u64)),
        (
            "classes",
            Json::Object(
                BranchClass::ALL
                    .into_iter()
                    .map(|c| (c.name(), Json::UInt(counts[c.index()])))
                    .collect(),
            ),
        ),
        ("branches", Json::Array(branches)),
    ])
}

fn want_u64(v: &Value, what: &str) -> Result<u64, TwError> {
    v.as_u64().ok_or_else(|| {
        let want = if v.as_f64().is_some() {
            "a non-negative integer"
        } else {
            "a number"
        };
        TwError::runtime(format!("plan: {what} is not {want}"))
    })
}

fn opt_u64(obj: &Value, key: &str, what: &str) -> Result<u64, TwError> {
    match obj.get(key) {
        Some(v) => want_u64(v, what),
        None => Ok(0),
    }
}

/// Parses and validates a `tw-plan/v1` document.
///
/// # Errors
///
/// Returns a one-line runtime [`TwError`] on malformed JSON, a wrong or
/// missing schema tag, unknown class or action names, or an
/// out-of-range promotion threshold.
pub fn parse_plan(text: &str) -> Result<PromotionPlan, TwError> {
    let doc = parse_json(text).map_err(|e| TwError::runtime(format!("plan: {e}")))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| TwError::runtime("plan: missing schema tag"))?;
    if schema != PLAN_SCHEMA {
        return Err(TwError::runtime(format!(
            "plan: schema {schema:?} is not {PLAN_SCHEMA:?}"
        )));
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| TwError::runtime("plan: missing workload name"))?
        .to_owned();
    let profiled_insts = opt_u64(&doc, "profiled_instructions", "profiled_instructions")?;
    let branches = doc
        .get("branches")
        .and_then(Value::as_array)
        .ok_or_else(|| TwError::runtime("plan: missing branches array"))?;
    let mut entries = Vec::with_capacity(branches.len());
    let mut last_pc: Option<u64> = None;
    for (i, b) in branches.iter().enumerate() {
        let pc = want_u64(
            b.get("pc")
                .ok_or_else(|| TwError::runtime(format!("plan: branch {i}: missing pc")))?,
            "branch pc",
        )?;
        if last_pc.is_some_and(|prev| prev >= pc) {
            return Err(TwError::runtime(format!(
                "plan: branch {i}: pc {pc:#x} out of order (duplicate or unsorted)"
            )));
        }
        last_pc = Some(pc);
        let class_name = b
            .get("class")
            .and_then(Value::as_str)
            .ok_or_else(|| TwError::runtime(format!("plan: branch {i}: missing class")))?;
        let class = BranchClass::from_name(class_name).ok_or_else(|| {
            TwError::runtime(format!("plan: branch {i}: unknown class {class_name:?}"))
        })?;
        let action_name = b
            .get("action")
            .and_then(Value::as_str)
            .ok_or_else(|| TwError::runtime(format!("plan: branch {i}: missing action")))?;
        let action = match action_name {
            "never" => PlanAction::Never,
            "promote" => {
                let t = want_u64(
                    b.get("threshold").ok_or_else(|| {
                        TwError::runtime(format!("plan: branch {i}: promote without threshold"))
                    })?,
                    "threshold",
                )?;
                if t < 1 || t > u64::from(MAX_THRESHOLD) {
                    return Err(TwError::runtime(format!(
                        "plan: branch {i}: threshold {t} outside 1..={MAX_THRESHOLD}"
                    )));
                }
                // The range check above caps `t` at MAX_THRESHOLD, but
                // convert checked anyway: a lossy cast here would turn a
                // future range-check regression into silent truncation.
                PlanAction::Threshold(u32::try_from(t).map_err(|_| {
                    TwError::runtime(format!(
                        "plan: branch {i}: threshold {t} does not fit in u32"
                    ))
                })?)
            }
            other => {
                return Err(TwError::runtime(format!(
                    "plan: branch {i}: unknown action {other:?}"
                )))
            }
        };
        let executed = opt_u64(b, "executed", "executed")?;
        let taken = opt_u64(b, "taken", "taken")?;
        if taken > executed {
            return Err(TwError::runtime(format!(
                "plan: branch {i}: taken {taken} exceeds executed {executed}"
            )));
        }
        entries.push(PlanEntry {
            pc,
            over: BiasOverride { class, action },
            executed,
            taken,
            transitions: opt_u64(b, "transitions", "transitions")?,
            bias: b.get("bias").and_then(Value::as_f64).unwrap_or(0.0),
            avg_run: b.get("avg_run").and_then(Value::as_f64).unwrap_or(0.0),
            markov_accuracy: b
                .get("markov_accuracy")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            loop_depth: usize::try_from(opt_u64(b, "loop_depth", "loop_depth")?).map_err(|_| {
                TwError::runtime(format!("plan: branch {i}: loop_depth does not fit"))
            })?,
            static_taken_prob: b.get("static_taken_prob").and_then(Value::as_f64),
        });
    }
    Ok(PromotionPlan {
        workload,
        profiled_insts,
        entries,
    })
}

/// A human summary of a plan: the class histogram plus the hottest
/// branches of each class.
#[must_use]
pub fn plan_table(plan: &PromotionPlan) -> String {
    let mut table = Table::new(&[
        "pc", "class", "action", "executed", "bias", "avg_run", "markov", "depth",
    ]);
    for e in &plan.entries {
        let action = match e.over.action {
            PlanAction::Never => "never".to_owned(),
            PlanAction::Threshold(t) => format!("promote@{t}"),
        };
        table.row(vec![
            format!("{:#x}", e.pc),
            e.over.class.name().to_owned(),
            action,
            e.executed.to_string(),
            format!("{:.3}", e.bias),
            format!("{:.1}", e.avg_run),
            format!("{:.3}", e.markov_accuracy),
            e.loop_depth.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_workloads::Benchmark;

    /// Counts `i` from 0 to 6: the parity branch goes T N T N T N and
    /// the loop branch T T T T T N.
    const PARITY_LOOP: &str = "\
.entry main
main:
    li   t0, 0
    li   t1, 6
loop:
    andi t2, t0, 1
    beqz t2, even
    nop
even:
    addi t0, t0, 1
    blt  t0, t1, loop
    halt
";

    #[test]
    fn profile_counts_a_known_outcome_sequence() {
        let program = tc_isa::assemble(PARITY_LOOP).unwrap();
        let workload = Workload::new("parity", program, 1024, vec![]);
        let (profiles, profiled) = profile_branches(&workload, 1_000).unwrap();
        // Two setup instructions, four per iteration, a nop on odd `i`.
        assert_eq!(profiled, 2 + 6 * 4 + 3);
        let got: Vec<DynProfile> = profiles.into_values().collect();
        let parity = DynProfile {
            executed: 6,
            taken: 3,
            transitions: 5,
            markov: [[0, 0], [2, 0], [0, 2], [0, 0]],
        };
        let exit = DynProfile {
            executed: 6,
            taken: 5,
            transitions: 1,
            markov: [[0, 0], [0, 0], [0, 0], [1, 3]],
        };
        assert_eq!(got, [parity, exit]);

        // The budget stops the pass after the seventh instruction: each
        // branch has executed once, taken.
        let (short, profiled) = profile_branches(&workload, 7).unwrap();
        assert_eq!(profiled, 7);
        let once = DynProfile {
            executed: 1,
            taken: 1,
            ..DynProfile::default()
        };
        assert_eq!(short.into_values().collect::<Vec<_>>(), [once, once]);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let workload = Benchmark::Compress.build();
        let plan = build_plan(&workload, 400_000).unwrap();
        assert!(!plan.is_empty());
        let text = plan_to_json(&plan).pretty();
        let back = parse_plan(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn plan_covers_every_static_conditional_branch() {
        let workload = Benchmark::Compress.build();
        let plan = build_plan(&workload, 200_000).unwrap();
        let report = analyze(workload.program());
        let cond = report
            .taxonomy
            .branches
            .iter()
            .filter(|b| b.kind == ControlKind::CondBranch)
            .count();
        assert_eq!(plan.len(), cond);
    }

    #[test]
    fn malformed_plans_are_rejected_with_one_line_errors() {
        let cases = [
            ("{", "plan:"),
            ("{\"schema\": \"tw-plan/v2\"}", "is not \"tw-plan/v1\""),
            ("{\"workload\": \"x\"}", "missing schema"),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\"}",
                "missing branches",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": [{}]}",
                "missing pc",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 8, \"class\": \"bogus\", \"action\": \"never\"}]}",
                "unknown class",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 8, \"class\": \"strongly_biased\", \"action\": \"promote\", \
                   \"threshold\": 4096}]}",
                "outside 1..=1023",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 8, \"class\": \"strongly_biased\", \"action\": \"promote\"}]}",
                "promote without threshold",
            ),
            (
                "{\"schema\": \"tw-plan/v1\", \"workload\": \"x\", \"branches\": \
                 [{\"pc\": 16, \"class\": \"data_dependent\", \"action\": \"never\"}, \
                  {\"pc\": 8, \"class\": \"data_dependent\", \"action\": \"never\"}]}",
                "out of order",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_plan(text).unwrap_err();
            assert!(
                err.message().contains(needle),
                "{text}: {:?} lacks {needle:?}",
                err.message()
            );
            assert!(!err.message().contains('\n'), "one-line diagnostic");
            assert_eq!(err.exit_code(), 1);
        }
    }

    #[test]
    fn counters_past_u32_round_trip_without_truncation() {
        // A >4G-execution counter must survive emit → parse exactly; a
        // stray `as u32` anywhere on the path would fold 2^32+1 to 1.
        for executed in [
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
        ] {
            let plan = PromotionPlan {
                workload: "compress".to_owned(),
                profiled_insts: executed,
                entries: vec![PlanEntry {
                    pc: 8,
                    over: BiasOverride {
                        class: BranchClass::StronglyBiased,
                        action: PlanAction::Threshold(8),
                    },
                    executed,
                    taken: executed - 1,
                    transitions: 2,
                    bias: 0.999,
                    avg_run: 12.0,
                    markov_accuracy: 0.98,
                    loop_depth: 1,
                    static_taken_prob: None,
                }],
            };
            let back = parse_plan(&plan_to_json(&plan).pretty()).unwrap();
            assert_eq!(
                back.entries[0].executed, executed,
                "truncated at {executed}"
            );
            assert_eq!(back.profiled_insts, executed);
        }
    }
}
