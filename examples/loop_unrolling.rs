//! Watch the fill unit dynamically unroll a tight loop.
//!
//! A 2-instruction loop whose back-edge branch is strongly biased: once
//! the bias table promotes it, the fill unit merges loop iterations into
//! a single execution atomic unit and packs the trace-cache line with 16
//! instructions — 8 unrolled iterations (the paper's §4/§5 interplay and
//! its Figure 8 discussion).
//!
//! ```text
//! cargo run --release --example loop_unrolling
//! ```

use trace_weave::core::{FillUnit, PackingPolicy};
use trace_weave::isa::{Cond, Interpreter, ProgramBuilder, Reg};
use trace_weave::predict::{BiasConfig, BiasTable};

fn main() {
    // for i in 0..1000 { acc += i }  — a 4-instruction loop body.
    let mut b = ProgramBuilder::new();
    let top = b.new_label("top");
    let done = b.new_label("done");
    b.li(Reg::T0, 0).li(Reg::T1, 1000).li(Reg::T2, 0);
    b.bind(top).expect("fresh label");
    b.branch(Cond::Ge, Reg::T0, Reg::T1, done);
    b.add(Reg::T2, Reg::T2, Reg::T0);
    b.addi(Reg::T0, Reg::T0, 1);
    b.jump(top);
    b.bind(done).expect("fresh label");
    b.halt();
    let program = b.build().expect("assembles");

    for (name, promotion) in [
        ("without promotion", false),
        ("with promotion (t=16)", true),
    ] {
        let bias = promotion.then(|| {
            BiasTable::new(BiasConfig {
                entries: 64,
                threshold: 16,
                counter_bits: 8,
                tagged: true,
            })
        });
        let mut fill = FillUnit::new(PackingPolicy::Unregulated, bias);
        let mut seg_lens = Vec::new();
        let mut promoted_per_seg = Vec::new();
        for rec in Interpreter::new(&program, 64).take(2_000) {
            fill.retire(&rec);
            for (insts, _) in fill.finalized() {
                seg_lens.push(insts.len());
                promoted_per_seg.push(insts.iter().filter(|i| i.promoted.is_some()).count());
            }
        }
        let late = &seg_lens[seg_lens.len().saturating_sub(8)..];
        let late_promoted = &promoted_per_seg[promoted_per_seg.len().saturating_sub(8)..];
        println!("{name}:");
        println!("  segments built: {}", seg_lens.len());
        println!("  steady-state segment lengths: {late:?}");
        println!("  promoted branches per segment: {late_promoted:?}");
        let avg = late.iter().sum::<usize>() as f64 / late.len().max(1) as f64;
        println!("  steady-state average length: {avg:.1} instructions\n");
    }

    println!("Without promotion each segment stops at the 3-branch limit (~12");
    println!("instructions of this 4-instruction loop). With the back edge");
    println!("promoted, segments pack the full 16 instructions — the loop is");
    println!("dynamically unrolled inside the trace cache.");
}
