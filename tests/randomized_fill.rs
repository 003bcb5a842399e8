//! Randomized tests on the fill unit: for any retired instruction stream
//! and any packing policy, the finalized segments must exactly partition
//! the stream — no instruction lost, duplicated, or reordered — and obey
//! every structural limit.
//!
//! Inputs come from the vendored seeded generator
//! (`trace_weave::workloads::rng`), so every run explores the same cases
//! and failures are reproducible from the reported seed.

use trace_weave::core::{FillUnit, PackingPolicy, TraceSegment};
use trace_weave::isa::{Addr, Cond, ExecRecord, Instr, Reg};
use trace_weave::predict::{BiasConfig, BiasTable};
use trace_weave::workloads::rng::{Rng, Xoshiro256PlusPlus};

/// Builds a well-formed retire stream from block descriptors: each block
/// is `size` straight-line instructions ending with a terminator chosen
/// by `kind`. Addresses are contiguous (branches jump forward past a
/// gap, mimicking taken branches).
fn stream_from_blocks(blocks: &[(u8, u8)]) -> Vec<ExecRecord> {
    let mut out = Vec::new();
    let mut pc = 0u32;
    for &(size, kind) in blocks {
        let size = usize::from(size % 14) + 1;
        for i in 0..size {
            let last = i == size - 1;
            let (instr, taken, next) = if !last {
                (Instr::Nop, false, pc + 1)
            } else {
                match kind % 5 {
                    // Taken conditional branch jumping forward.
                    0 => (
                        Instr::Branch {
                            cond: Cond::Eq,
                            rs1: Reg::T0,
                            rs2: Reg::T1,
                            target: Addr::new(pc + 7),
                        },
                        true,
                        pc + 7,
                    ),
                    // Not-taken conditional branch.
                    1 => (
                        Instr::Branch {
                            cond: Cond::Ne,
                            rs1: Reg::T0,
                            rs2: Reg::T1,
                            target: Addr::new(pc + 9),
                        },
                        false,
                        pc + 1,
                    ),
                    // Return (segment-ending).
                    2 => (Instr::Ret, false, pc + 3),
                    // Trap (segment-ending).
                    3 => (Instr::Trap { code: 1 }, false, pc + 1),
                    // Call (does NOT end a block; pad with a branch after).
                    _ => (
                        Instr::Branch {
                            cond: Cond::Lt,
                            rs1: Reg::T0,
                            rs2: Reg::T1,
                            target: Addr::new(pc + 5),
                        },
                        true,
                        pc + 5,
                    ),
                }
            };
            out.push(ExecRecord {
                pc: Addr::new(pc),
                instr,
                next_pc: Addr::new(next),
                taken,
                mem_addr: None,
            });
            pc = next;
        }
    }
    out
}

fn arb_blocks(r: &mut Xoshiro256PlusPlus, max_blocks: usize) -> Vec<(u8, u8)> {
    let n = r.gen_range(1..max_blocks);
    (0..n)
        .map(|_| (r.next_u32() as u8, (r.next_u32() >> 8) as u8))
        .collect()
}

fn policies() -> [PackingPolicy; 5] {
    [
        PackingPolicy::Atomic,
        PackingPolicy::Unregulated,
        PackingPolicy::Chunk(2),
        PackingPolicy::Chunk(4),
        PackingPolicy::CostRegulated,
    ]
}

/// Segments partition the retired stream exactly (up to the pending
/// tail the fill unit is still accumulating), for every policy, with
/// and without promotion.
#[test]
fn segments_partition_the_retire_stream() {
    for case in 0u64..64 {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(0xF111_0000 + case);
        let blocks = arb_blocks(&mut r, 80);
        let promote = r.gen_bool(0.5);
        let stream = stream_from_blocks(&blocks);
        for policy in policies() {
            let bias = promote.then(|| {
                BiasTable::new(BiasConfig {
                    entries: 256,
                    threshold: 4,
                    counter_bits: 8,
                    tagged: true,
                })
            });
            let mut fill = FillUnit::new(policy, bias);
            let mut rebuilt: Vec<(u32, bool)> = Vec::new();
            for rec in &stream {
                fill.retire(rec);
                for (insts, reason) in fill.finalized() {
                    // Structural limits.
                    let seg = TraceSegment::new(insts, reason);
                    assert!(!seg.is_empty() && seg.len() <= 16, "case {case}");
                    assert!(seg.dynamic_branch_count() <= 3, "case {case}");
                    for si in seg.insts() {
                        rebuilt.push((si.pc.raw(), si.taken));
                    }
                }
            }
            let expected: Vec<(u32, bool)> =
                stream.iter().map(|rec| (rec.pc.raw(), rec.taken)).collect();
            assert!(
                rebuilt.len() <= expected.len(),
                "case {case}, {policy}: more instructions out than in"
            );
            assert_eq!(
                &rebuilt[..],
                &expected[..rebuilt.len()],
                "case {case}: {policy} reordered or corrupted the stream"
            );
            // The un-finalized tail is bounded by one pending segment +
            // one open block.
            assert!(expected.len() - rebuilt.len() <= 32, "case {case}");
        }
    }
}

/// Embedded paths are internally consistent: within a segment, each
/// instruction's `embedded_next` equals the next instruction's pc.
#[test]
fn segments_are_logically_contiguous() {
    for case in 0u64..64 {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(0xF111_1000 + case);
        let blocks = arb_blocks(&mut r, 60);
        let stream = stream_from_blocks(&blocks);
        let mut fill = FillUnit::new(PackingPolicy::Unregulated, None);
        for rec in &stream {
            fill.retire(rec);
            for (insts, _) in fill.finalized() {
                for pair in insts.windows(2) {
                    assert_eq!(
                        pair[0].embedded_next(),
                        pair[1].pc,
                        "case {case}: segment path broken"
                    );
                }
            }
        }
    }
}
