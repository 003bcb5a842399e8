#!/usr/bin/env bash
# In-process A/B timing of the simulator, region by region.
#
#   scripts/ab_regions.sh REV [WORKLOAD] [ROUNDS]
#
# A is revision REV (exported with `git archive` into a temporary
# directory, removed on exit), B the working tree this script runs from. WORKLOAD is one of
# twbench's simulation workloads, `tc-full` (default), `ic-rv` or
# `sampled`, with twbench's programs, preset, region length and region
# starts (seed 0); ROUNDS (default 5) is how many times each region runs
# on each side.
#
# Both sides are linked into one throwaway binary: the export's
# packages are renamed tc-* -> tb-* (with `package =` renames in its
# workspace dependencies, so its sources still say `tc_sim`), and the
# binary depends on tb-sim from the export and tc-sim from the working
# tree. It first runs every region once on each side and requires the
# two report JSONs to be identical, then times A and B alternately on
# each region, swapping which goes first every round. Timing both in one
# process, a region at a time, cancels most of the host drift that makes
# whole-process pairs swing.
#
# Prints, per region, the median of A's time over B's (above 1: B is
# faster) and B's wins; then the total time ratio, the median and
# quartiles of the per-region medians, and B's wins over all pairs.
#
# The two sides are not placement-neutral: the same code linked once
# as A and once as B does not run at the same speed. With REV = HEAD on
# a clean tree (A and B the same code), one 2-vCPU host read ic-rv
# 1.097 (B won 66 of 80 pairs) and tc-full 0.970 (B won 17 of 90), and
# on another day ic-rv 1.015 and tc-full 0.952. A ratio therefore counts
# only against such an A/A run of the same workload taken right before
# or after it, and a change smaller than the A/A offset is not resolved
# by this script.
#
# Offline (cargo and git only). tc-full takes about a minute at five
# rounds on a 2-vCPU host, sampled about as long. Not run by CI.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ab_regions.sh REV [WORKLOAD] [ROUNDS]"
rev=${1:?$usage}
workload=${2:-tc-full}
rounds=${3:-5}
[[ $workload =~ ^(tc-full|ic-rv|sampled)$ ]] || { echo "$usage" >&2; exit 2; }
[[ $rounds =~ ^[1-9][0-9]*$ ]] || { echo "$usage" >&2; exit 2; }

change=$PWD
tmp=$(mktemp -d -t ab-regions.XXXXXX)
parent=$tmp/parent
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"

# Rename the export's packages so both copies fit in one build.
python3 - "$parent" <<'EOF'
import pathlib, re, sys

root = pathlib.Path(sys.argv[1])
manifest = root / "Cargo.toml"
text = manifest.read_text()
text = re.sub(r'^(tc-(\w+) = \{ path = "[^"]+")', r'\1, package = "tb-\2"', text, flags=re.M)
manifest.write_text(text)
for member in root.glob("crates/*/Cargo.toml"):
    member.write_text(re.sub(r'^name = "tc-', 'name = "tb-', member.read_text(), count=1, flags=re.M))
EOF

mkdir -p "$tmp/ab/src"
cat >"$tmp/ab/Cargo.toml" <<EOF
[package]
name = "ab-regions"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
tb-isa = { path = "$parent/crates/isa" }
tb-sim = { path = "$parent/crates/sim" }
tb-workloads = { path = "$parent/crates/workloads" }
tc-isa = { path = "$change/crates/isa" }
tc-sim = { path = "$change/crates/sim" }
tc-workloads = { path = "$change/crates/workloads" }
EOF

cat >"$tmp/ab/src/main.rs" <<'EOF'
use std::time::Instant;

/// twbench's region definitions: name, preset, programs, stream length,
/// start range, and whether the run is sampled (with twbench's window).
struct Spec {
    name: &'static str,
    preset: &'static str,
    programs: Vec<&'static str>,
    len: u64,
    max_offset: u64,
    sampled: bool,
}

const SAMPLE: (u64, u64, u64) = (8_000, 2_000, 100_000);

fn spec(name: &str) -> Spec {
    let synth = [
        "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex", "gnuchess", "gs",
        "pgp", "python", "gnuplot", "ss", "tex",
    ];
    let rv = [
        "rv/bubble", "rv/qsort", "rv/strops", "rv/matmul", "rv/listchase", "rv/fib", "rv/crc",
        "rv/sieve", "rv/bsearch", "rv/dispatch",
    ];
    let sampled = [
        "gcc", "perl", "vortex", "gnuchess", "rv/qsort", "rv/crc", "rv/matmul", "rv/listchase",
    ];
    match name {
        "tc-full" => Spec { name: "tc-full", preset: "headline", programs: synth.to_vec(), len: 1_000_000, max_offset: 250_000, sampled: false },
        "ic-rv" => Spec { name: "ic-rv", preset: "icache", programs: rv.to_vec(), len: 2_000_000, max_offset: 4_000_000, sampled: false },
        "sampled" => Spec { name: "sampled", preset: "headline", programs: sampled.to_vec(), len: 4_000_000, max_offset: 2_000_000, sampled: true },
        _ => unreachable!("checked by the script"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One side's regions and runner, over that side's crates.
macro_rules! side {
    ($side:ident, $sim:ident, $isa:ident, $wl:ident) => {
        mod $side {
            use $sim::harness::{lookup, report_to_json};
            use $sim::{Processor, SimConfig};
            use $wl::rng::{Rng, Xoshiro256PlusPlus};
            use $wl::{Workload, WorkloadId};

            pub struct Region {
                pub name: &'static str,
                workload: Workload,
                start: $isa::Machine,
                config: SimConfig,
            }

            pub fn regions(spec: &crate::Spec) -> Vec<Region> {
                let base = lookup(spec.preset).expect("registered preset").with_max_insts(spec.len);
                let config = if spec.sampled {
                    let (w, m, p) = crate::SAMPLE;
                    base.with_sampling(w, m, p)
                } else {
                    base
                };
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(crate::fnv1a(spec.name.as_bytes()));
                spec.programs
                    .iter()
                    .map(|&name| {
                        let offset = rng.gen_range(0..spec.max_offset);
                        let workload = WorkloadId::from_name(name).expect("registered workload").build();
                        let blocks = $isa::BlockCache::new(workload.program());
                        let mut interp = workload.interpreter();
                        assert_eq!(interp.fast_forward(&blocks, offset), offset, "{name}: region start");
                        let start = interp.machine().clone();
                        drop(interp);
                        Region { name, workload, start, config: config.clone() }
                    })
                    .collect()
            }

            /// Times one run (set-up included, as twbench does) and
            /// returns the report JSON.
            pub fn run(region: &Region) -> (f64, String) {
                let machine = region.start.clone();
                let t = std::time::Instant::now();
                let report = Processor::new(region.config.clone()).run_from(&region.workload, machine);
                let secs = t.elapsed().as_secs_f64();
                (secs, report_to_json(&report).pretty())
            }
        }
    };
}

side!(a, tb_sim, tb_isa, tb_workloads);
side!(b, tc_sim, tc_isa, tc_workloads);

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec = spec(&args[1]);
    let rounds: usize = args[2].parse().expect("rounds");
    let t = Instant::now();
    let (ra, rb) = (a::regions(&spec), b::regions(&spec));
    eprintln!("built {} regions per side in {:.1} s", ra.len(), t.elapsed().as_secs_f64());

    // Identical simulated results first; these runs also warm up.
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.name, y.name, "the two sides list the same regions");
        let ((_, ja), (_, jb)) = (a::run(x), b::run(y));
        assert!(ja == jb, "{}: A and B report different results", x.name);
    }
    eprintln!("reports identical on all {} regions", ra.len());

    let mut ratios = vec![Vec::new(); ra.len()];
    let (mut total_a, mut total_b) = (0.0, 0.0);
    for round in 0..rounds {
        for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
            let (ta, tb) = if (round + i) % 2 == 0 {
                let ta = a::run(x).0;
                (ta, b::run(y).0)
            } else {
                let tb = b::run(y).0;
                (a::run(x).0, tb)
            };
            total_a += ta;
            total_b += tb;
            ratios[i].push(ta / tb);
        }
        eprintln!("round {}/{rounds} done", round + 1);
    }

    println!("{}: A = {}, B = working tree, {rounds} rounds", spec.name, std::env::var("AB_REV").unwrap_or_default());
    println!("{:<14} {:>12} {:>8}", "region", "median A/B", "B wins");
    let mut medians = Vec::new();
    let mut wins = 0;
    for (region, r) in ra.iter().zip(&ratios) {
        let mut sorted = r.clone();
        sorted.sort_by(f64::total_cmp);
        let med = quantile(&sorted, 0.5);
        let won = r.iter().filter(|&&x| x > 1.0).count();
        wins += won;
        medians.push(med);
        println!("{:<14} {:>12.4} {:>5}/{}", region.name, med, won, r.len());
    }
    medians.sort_by(f64::total_cmp);
    println!("total time ratio A/B: {:.4}", total_a / total_b);
    println!(
        "per-region median A/B: {:.4} (quartiles {:.4}-{:.4})",
        quantile(&medians, 0.5),
        quantile(&medians, 0.25),
        quantile(&medians, 0.75)
    );
    println!("B wins {wins} of {} pairs", ratios.iter().map(Vec::len).sum::<usize>());
}
EOF

echo "==> building A ($rev) and B (working tree) into one binary" >&2
CARGO_TARGET_DIR=$tmp/target cargo build --release --offline --quiet --manifest-path "$tmp/ab/Cargo.toml"
AB_REV=$rev "$tmp/target/release/ab-regions" "$workload" "$rounds"
