//! Seeded never-panic fuzzing of the checkpoint reader.
//!
//! `tw sim --from` consumes checkpoint documents from disk, so
//! `parse_checkpoint` must return `Err` (never panic) on arbitrary
//! bytes, and a document that happens to parse must restore through
//! `Checkpoint::restore` without panicking either. This feeds 1 000
//! deterministic mutations of a valid `tw-ckpt/v1` document through
//! both; a panic anywhere fails the test — no `catch_unwind`.

use tc_isa::{BlockCache, Interpreter};
use tc_sim::harness::{parse_checkpoint, Checkpoint};
use tc_workloads::Benchmark;

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

#[test]
fn checkpoint_reader_never_panics_on_mutated_input() {
    // A real checkpoint as the fuzz corpus: go fast-forwarded a little
    // so registers and memory runs are populated (go's image keeps the
    // document small enough to parse a thousand mutants quickly).
    let workload = Benchmark::Go.build();
    let program = workload.program();
    let blocks = BlockCache::new(program);
    let mut interp = Interpreter::with_machine(program, workload.machine());
    assert_eq!(interp.fast_forward(&blocks, 10_000), 10_000);
    let valid = Checkpoint::capture(&workload, interp.machine())
        .to_json()
        .pretty();
    let round = parse_checkpoint(&valid).expect("fuzz corpus must start valid");
    round.restore(&workload).expect("fuzz corpus must restore");

    let mut rng = Xoshiro::seeded(0x0c4e_c401u64);
    let (mut parse_ok, mut parse_err) = (0u32, 0u32);
    for _ in 0..1_000 {
        let mutated = mutate(&mut rng, valid.as_bytes());
        let text = String::from_utf8_lossy(&mutated);
        match parse_checkpoint(&text) {
            Ok(ckpt) => {
                parse_ok += 1;
                // A structurally valid mutant must still restore (or be
                // rejected) without panicking.
                let _ = ckpt.restore(&workload);
            }
            Err(e) => {
                parse_err += 1;
                let line = format!("{e}");
                assert!(!line.is_empty(), "parse error must carry a diagnostic");
            }
        }
    }
    assert_eq!(parse_ok + parse_err, 1_000);
    assert!(parse_err > 0, "mutations never produced a parse error");
}
