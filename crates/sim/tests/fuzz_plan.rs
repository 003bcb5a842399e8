//! Seeded never-panic fuzzing of the analysis → promotion-plan pipeline.
//!
//! Two attack surfaces, both must return `Err` (never panic) on
//! arbitrary input — no `catch_unwind`, the property is that the panic
//! path is unreachable:
//!
//! * the front half: mutated assembly sources that still assemble are
//!   run through the full `tw analyze` pipeline (static passes,
//!   functional profile, classification, `tw-plan/v1` emission and
//!   re-parse);
//! * the back half: mutated `tw-plan/v1` documents through
//!   `parse_plan`, which `tw sim --plan FILE` feeds with whatever is on
//!   disk.

use tc_isa::assemble;
use tc_sim::harness::{build_plan, parse_json, parse_plan, plan_to_json};
use tc_workloads::{Benchmark, Workload};

/// xoshiro256** seeded via SplitMix64 (Blackman & Vigna). Local copy:
/// the workspace builds offline with no external crates.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn seeded(seed: u64) -> Xoshiro {
        let mut s = seed;
        let mut split = || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro([split(), split(), split(), split()])
    }

    fn next(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.0;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let (mut n2, mut n3) = (s2 ^ s0, s3 ^ s1);
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.0 = [n0, n1, n2, n3];
        result
    }
}

fn mutate(rng: &mut Xoshiro, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    let edits = 1 + (rng.next() as usize % 8);
    for _ in 0..edits {
        if bytes.is_empty() {
            bytes.push(rng.next() as u8);
            continue;
        }
        let at = rng.next() as usize % bytes.len();
        match rng.next() % 4 {
            0 => bytes[at] = rng.next() as u8,
            1 => bytes.insert(at, rng.next() as u8),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

const VALID: &str = "\
# fuzz seed corpus: loops, calls, and branches of every shape
.entry main
main:
    li   t0, 0
    li   t1, 24
    li   t2, 0
outer:
    bge  t0, t1, done
    li   t3, 0
inner:
    bge  t3, t0, next
    add  t2, t2, t3
    andi t4, t2, 1
    beq  t4, zero, even
    addi t2, t2, 3
even:
    addi t3, t3, 1
    j    inner
next:
    call bump
    j    outer
bump:
    addi t0, t0, 1
    ret
done:
    halt
";

#[test]
fn analysis_pipeline_never_panics_on_mutated_source() {
    {
        let program = assemble(VALID).expect("fuzz corpus must start valid");
        let plan = build_plan(&Workload::new("fuzz", program, 1024, vec![]), 5_000)
            .expect("fuzz corpus must profile cleanly");
        assert!(!plan.is_empty(), "corpus must contain conditional branches");
    }
    let mut rng = Xoshiro::seeded(0x9a7e_11d5u64);
    let (mut planned, mut rejected) = (0u32, 0u32);
    for _ in 0..1_000 {
        let mutated = mutate(&mut rng, VALID.as_bytes());
        let source = String::from_utf8_lossy(&mutated);
        let Ok(program) = assemble(&source) else {
            rejected += 1;
            continue;
        };
        // A mutant that still assembles must survive the whole pipeline:
        // profile (bounded — mutants may loop forever or fault, both
        // fine), classify, emit, and re-parse its own emission.
        let workload = Workload::new("fuzz", program, 1024, vec![]);
        match build_plan(&workload, 5_000) {
            Ok(plan) => {
                planned += 1;
                let text = plan_to_json(&plan).pretty();
                parse_json(&text).expect("emitted plan must be well-formed JSON");
                assert_eq!(parse_plan(&text).expect("emitted plan must re-parse"), plan);
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.message().contains('\n'), "one-line diagnostic");
            }
        }
    }
    assert!(planned > 0, "every mutant was rejected");
    assert!(rejected > 0, "mutations never produced an invalid program");
}

#[test]
fn plan_reader_never_panics_on_mutated_input() {
    let workload = Benchmark::Compress.build();
    let valid = plan_to_json(&build_plan(&workload, 100_000).unwrap()).pretty();
    parse_plan(&valid).expect("fuzz corpus must start valid");

    let mut rng = Xoshiro::seeded(0x51a3_0cf7u64);
    let (mut ok, mut err) = (0u32, 0u32);
    for _ in 0..1_000 {
        let mutated = mutate(&mut rng, valid.as_bytes());
        let text = String::from_utf8_lossy(&mutated);
        match parse_plan(&text) {
            Ok(_) => ok += 1,
            Err(e) => {
                err += 1;
                assert!(!e.message().is_empty(), "error must carry a diagnostic");
                assert!(!e.message().contains('\n'), "one-line diagnostic");
                assert_eq!(e.exit_code(), 1);
            }
        }
    }
    assert_eq!(ok + err, 1_000);
    assert!(err > 0, "mutations never produced a parse error");
}
