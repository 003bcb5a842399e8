//! The functional fast paths against `step`, on every registered
//! workload at scale.
//!
//! `Machine::fast_forward` must leave exactly the architectural state
//! that stepping leaves, and `Interpreter::for_each_record` must hand out
//! exactly the records `Iterator::next` yields. Both are checked here in
//! awkward chunk sizes over the first `INSTS` instructions of all 25
//! programs, so chunk boundaries fall inside blocks, on their tails and
//! many blocks apart. (Halts and faults are checked on toy programs in
//! `tc-isa`'s own tests.)

use tc_isa::{BlockCache, ExecRecord, Machine, Reg, StepOutcome};
use tc_workloads::{Workload, WorkloadId};

/// Instructions run per workload.
const INSTS: u64 = 200_000;

/// Chunk sizes, used in turn: single steps, sizes that end inside and
/// across short blocks, and long runs.
const CHUNKS: [u64; 9] = [1, 2, 3, 17, 4096, 5, 64, 1, 999];

fn workloads() -> Vec<Workload> {
    let all = WorkloadId::all();
    assert_eq!(all.len(), 25, "every registered workload");
    all.into_iter().map(WorkloadId::build).collect()
}

/// Asserts that two machines hold the same architectural state.
fn assert_same_state(name: &str, at: u64, slow: &Machine, fast: &Machine) {
    let here = format!("{name} after {at} instructions");
    assert_eq!(slow.pc(), fast.pc(), "{here}: pc");
    assert_eq!(slow.retired(), fast.retired(), "{here}: retired count");
    assert_eq!(slow.is_halted(), fast.is_halted(), "{here}: halt flag");
    for r in 0..Reg::COUNT {
        let reg = Reg::new(r as u8);
        assert_eq!(slow.reg(reg), fast.reg(reg), "{here}: register {reg}");
    }
    if slow.memory() != fast.memory() {
        let word = slow
            .memory()
            .iter()
            .zip(fast.memory())
            .position(|(a, b)| a != b);
        panic!("{here}: memory differs first at word {word:?}");
    }
}

#[test]
fn fast_forward_matches_step_on_every_workload() {
    for w in workloads() {
        let program = w.program();
        let blocks = BlockCache::new(program);
        let mut slow = w.machine();
        let mut fast = w.machine();
        let mut done = 0;
        for &chunk in CHUNKS.iter().cycle() {
            let want = chunk.min(INSTS - done);
            let ran = fast.fast_forward(program, &blocks, want).unwrap();
            for _ in 0..ran {
                let step = slow.step(program).unwrap();
                assert!(
                    matches!(step, StepOutcome::Executed(_)),
                    "{}: step halted before fast_forward",
                    w.name()
                );
            }
            if fast.is_halted() {
                assert_eq!(slow.step(program).unwrap(), StepOutcome::Halted);
            }
            done += ran;
            assert_same_state(w.name(), done, &slow, &fast);
            if ran < want || done == INSTS {
                break;
            }
        }
        assert_eq!(done, INSTS, "{}: stopped early", w.name());
    }
}

#[test]
fn for_each_record_matches_next_on_every_workload() {
    for w in workloads() {
        let mut by_next = w.interpreter();
        let mut batched = w.interpreter();
        let mut recs: Vec<ExecRecord> = Vec::new();
        let mut done = 0;
        for &chunk in CHUNKS.iter().cycle() {
            let want = chunk.min(INSTS - done);
            recs.clear();
            let ran = batched.for_each_record(want, |rec| recs.push(rec));
            assert_eq!(ran, recs.len() as u64, "{}: count", w.name());
            for (k, rec) in recs.iter().enumerate() {
                let at = done + k as u64;
                assert_eq!(
                    by_next.next().as_ref(),
                    Some(rec),
                    "{}: record {at}",
                    w.name()
                );
            }
            done += ran;
            assert_eq!(by_next.error(), batched.error(), "{}: error", w.name());
            assert_same_state(w.name(), done, by_next.machine(), batched.machine());
            if ran < want || done == INSTS {
                break;
            }
        }
        assert_eq!(done, INSTS, "{}: stopped early", w.name());
    }
}
