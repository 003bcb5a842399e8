#!/usr/bin/env bash
# Where the simulator spends host time, function by function.
#
#   scripts/hotspots.sh WORKLOAD [PASSES]
#
# WORKLOAD is one of twbench's simulation workloads, `tc-full`, `ic-rv`
# or `sampled`, with twbench's programs, preset, region length and
# region starts (seed 0); PASSES (default 5) is how many times each
# region runs while the sampler is on.
#
# Builds a throwaway binary against the working tree's crates (release
# profile with debug info and frame pointers) whose sampler is a
# SIGPROF handler on a 1 ms `setitimer(ITIMER_PROF)`: each sample keeps
# the interrupted instruction address and the return addresses of the
# frame-pointer chain. It declares the few libc functions it needs as
# `extern "C"` (std links libc already), so it has no dependency.
# Addresses are symbolized with `addr2line -i` (inline chains) and `nm`
# (the enclosing symbol).
#
# Prints, per function, its inclusive share (samples with the function
# anywhere on the stack, inlined frames included) and its self share
# (samples whose innermost inlined frame it is), ranked by inclusive
# share and again by self share, then the hottest instruction addresses. x86-64 Linux only; offline (cargo, binutils
# and python3). Not run by CI.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/hotspots.sh WORKLOAD [PASSES]"
workload=${1:?$usage}
passes=${2:-5}
[[ $workload =~ ^(tc-full|ic-rv|sampled)$ ]] || { echo "$usage" >&2; exit 2; }
[[ $passes =~ ^[1-9][0-9]*$ ]] || { echo "$usage" >&2; exit 2; }
[[ $(uname -sm) == "Linux x86_64" ]] || { echo "hotspots.sh: x86-64 Linux only" >&2; exit 2; }

change=$PWD
tmp=$(mktemp -d -t hotspots.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/hs/src"
cat >"$tmp/hs/Cargo.toml" <<EOF
[package]
name = "hotspots"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[profile.release]
debug = true

[dependencies]
tc-isa = { path = "$change/crates/isa" }
tc-sim = { path = "$change/crates/sim" }
tc-workloads = { path = "$change/crates/workloads" }
EOF

cat >"$tmp/hs/src/main.rs" <<'EOF'
use std::ffi::c_void;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use tc_sim::harness::lookup;
use tc_sim::{Processor, SimConfig};
use tc_workloads::rng::{Rng, Xoshiro256PlusPlus};
use tc_workloads::{Workload, WorkloadId};

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

struct Region {
    workload: Workload,
    start: tc_isa::Machine,
    config: SimConfig,
}

fn regions(spec: &Spec) -> Vec<Region> {
    let base = lookup(spec.preset).expect("registered preset").with_max_insts(spec.len);
    let config = if spec.sampled {
        let (w, m, p) = SAMPLE;
        base.with_sampling(w, m, p)
    } else {
        base
    };
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(fnv1a(spec.name.as_bytes()));
    spec.programs
        .iter()
        .map(|&name| {
            let offset = rng.gen_range(0..spec.max_offset);
            let workload = WorkloadId::from_name(name).expect("registered workload").build();
            let blocks = tc_isa::BlockCache::new(workload.program());
            let mut interp = workload.interpreter();
            assert_eq!(interp.fast_forward(&blocks, offset), offset, "{name}: region start");
            let start = interp.machine().clone();
            drop(interp);
            Region { workload, start, config: config.clone() }
        })
        .collect()
}

// The libc calls the sampler needs (x86-64 Linux layouts).
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ItimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ItimerVal, old: *mut ItimerVal) -> i32;
}

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
/// Offset of `uc_mcontext.gregs` in `ucontext_t`, and the register
/// indices within it.
const GREGS: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

const DEPTH: usize = 64;
const MAX_SAMPLES: usize = 1 << 15;
static FRAMES: [AtomicU64; DEPTH * MAX_SAMPLES] = [const { AtomicU64::new(0) }; DEPTH * MAX_SAMPLES];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static STACK_TOP: AtomicU64 = AtomicU64::new(0);

/// Records the interrupted address and the frame-pointer chain above it
/// (zero-terminated), within the main thread's stack.
extern "C" fn on_prof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
    let n = TAKEN.fetch_add(1, Ordering::Relaxed);
    if n >= MAX_SAMPLES {
        return;
    }
    let slot = &FRAMES[n * DEPTH..(n + 1) * DEPTH];
    // SAFETY: the kernel passes a valid `ucontext_t`; the register
    // array lies at its fixed x86-64 offset.
    let reg = |i: usize| unsafe { *(ctx as *const u8).add(GREGS).cast::<u64>().add(i) };
    slot[0].store(reg(REG_RIP), Ordering::Relaxed);
    let (mut fp, sp, top) = (reg(REG_RBP), reg(REG_RSP), STACK_TOP.load(Ordering::Relaxed));
    let mut depth = 1;
    while depth < DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= top {
        // SAFETY: `fp` is 8-aligned and inside the mapped stack.
        let (next, ret) = unsafe { (*(fp as *const u64), *((fp + 8) as *const u64)) };
        if ret == 0 {
            break;
        }
        slot[depth].store(ret, Ordering::Relaxed);
        depth += 1;
        if next <= fp {
            break;
        }
        fp = next;
    }
    if depth < DEPTH {
        slot[depth].store(0, Ordering::Relaxed);
    }
}

/// The address range of the first mapping whose line in
/// `/proc/self/maps` satisfies `pick`.
fn mapping(pick: impl Fn(&str) -> bool) -> (u64, u64) {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let line = maps.lines().find(|l| pick(l)).expect("mapping present");
    let range = line.split_whitespace().next().expect("address range");
    let (lo, hi) = range.split_once('-').expect("lo-hi");
    (u64::from_str_radix(lo, 16).expect("hex"), u64::from_str_radix(hi, 16).expect("hex"))
}

fn set_timer(usec: i64) {
    let t = ItimerVal { interval: TimeVal { sec: 0, usec }, value: TimeVal { sec: 0, usec } };
    // SAFETY: plain libc call with valid pointers.
    assert_eq!(unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) }, 0, "setitimer");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec = spec(&args[1]);
    let passes: usize = args[2].parse().expect("passes");
    let out = &args[3];
    let regions = regions(&spec);
    // One untimed pass first, so the sampled passes see warm caches.
    for r in &regions {
        Processor::new(r.config.clone()).run_from(&r.workload, r.start.clone());
    }

    STACK_TOP.store(mapping(|l| l.ends_with("[stack]")).1, Ordering::Relaxed);
    let act = SigAction { handler: on_prof as *const () as usize, mask: [0; 16], flags: SA_SIGINFO | SA_RESTART, restorer: 0 };
    // SAFETY: installs a handler that only touches atomics and the stack.
    assert_eq!(unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) }, 0, "sigaction");
    let t = std::time::Instant::now();
    set_timer(1000);
    for _ in 0..passes {
        for r in &regions {
            Processor::new(r.config.clone()).run_from(&r.workload, r.start.clone());
        }
    }
    set_timer(0);
    let secs = t.elapsed().as_secs_f64();

    let exe = std::env::current_exe().expect("own path");
    let exe = exe.to_str().expect("utf-8 path").to_string();
    let base = mapping(|l| l.ends_with(&exe) && l.split_whitespace().nth(2) == Some("00000000")).0;
    let taken = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
    let mut w = std::io::BufWriter::new(std::fs::File::create(out).expect("create samples file"));
    writeln!(w, "{} {} {secs:.3} {base:#x}", spec.name, TAKEN.load(Ordering::Relaxed)).expect("write");
    for s in 0..taken {
        let frames: Vec<String> = FRAMES[s * DEPTH..(s + 1) * DEPTH]
            .iter()
            .map(|f| f.load(Ordering::Relaxed))
            .take_while(|&a| a != 0)
            .map(|a| format!("{a:x}"))
            .collect();
        writeln!(w, "{}", frames.join(" ")).expect("write");
    }
}
EOF

echo "==> building the sampler against the working tree" >&2
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$tmp/target \
  cargo build --release --offline --quiet --manifest-path "$tmp/hs/Cargo.toml"
bin=$tmp/target/release/hotspots
echo "==> sampling $workload, $passes passes" >&2
"$bin" "$workload" "$passes" "$tmp/samples.txt"

python3 - "$bin" "$tmp/samples.txt" <<'EOF'
import bisect, collections, re, subprocess, sys

binary, samples_path = sys.argv[1], sys.argv[2]
with open(samples_path) as f:
    name, taken, secs, base = f.readline().split()
    samples = [[int(a, 16) for a in line.split()] for line in f if line.strip()]
base = int(base, 16)
with open(binary, "rb") as f:
    pie = f.read(18)[16] == 3  # e_type ET_DYN: addresses are load-relative
offset = base if pie else 0

# Every frame but the leaf is a return address: look up the call site.
def key(addr, leaf):
    return addr - offset - (0 if leaf else 1)

wanted = sorted({key(a, i == 0) for s in samples for i, a in enumerate(s)})
out = subprocess.run(
    ["addr2line", "-f", "-i", "-C", "-a", "-e", binary],
    input="\n".join(f"{a:x}" for a in wanted), capture_output=True, text=True, check=True,
).stdout.splitlines()
hash_suffix = re.compile(r"::h[0-9a-f]{16}$")
chains, cur, i = {}, None, 0
while i < len(out):
    line = out[i]
    if line.startswith("0x"):
        cur = int(line, 16)
        chains[cur] = []
        i += 1
        continue
    func = hash_suffix.sub("", line)
    loc = out[i + 1] if i + 1 < len(out) else "??:0"
    chains[cur].append((func, loc))
    i += 2

syms = []
for line in subprocess.run(["nm", "-C", "--defined-only", "-n", binary],
                           capture_output=True, text=True, check=True).stdout.splitlines():
    parts = line.split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        syms.append((int(parts[0], 16), hash_suffix.sub("", parts[2])))
starts = [s[0] for s in syms]

def symbol(addr):
    j = bisect.bisect_right(starts, addr) - 1
    return f"{syms[j][1]}+{addr - syms[j][0]:#x}" if j >= 0 else f"{addr:#x}"

def known(func):
    return func != "??"

n = len(samples)
incl, self_ = collections.Counter(), collections.Counter()
leaves = collections.Counter()
for s in samples:
    seen = set()
    for i, a in enumerate(s):
        for func, _ in chains.get(key(a, i == 0), []):
            if known(func):
                seen.add(func)
    incl.update(seen)
    leaf = key(s[0], True)
    chain = chains.get(leaf) or [("??", "??:0")]
    self_[chain[0][0]] += 1
    leaves[leaf] += 1

# The timer asks for 1 ms of process CPU time; the kernel may deliver
# coarser ticks, so report what arrived.
print(f"hotspots: {name}, {n} samples over {float(secs):.1f} s"
      f" (one per {1000 * float(secs) / max(n, 1):.1f} ms)"
      + (f", {int(taken) - n} dropped" if int(taken) > n else ""))
# The entry chain (main down to the simulator's run) is on every sample
# whose frame walk reached it.
print("functions on 99.5% of samples or more (the entry chain) are left out")
print(f"{'inclusive':>9} {'self':>6}  function")
shown = [(f, c) for f, c in incl.most_common() if c < 0.995 * n][:40]
for func, c in shown:
    print(f"{100 * c / n:8.1f}% {100 * self_[func] / n:5.1f}%  {func}")
# Self time ranks the leaves, such as a container's index arithmetic,
# that sit low in the inclusive table under their many callers.
print()
print(f"{'self':>6} {'inclusive':>9}  function")
for func, c in self_.most_common(25):
    name = func if known(func) else "(outside the binary or unsymbolized)"
    print(f"{100 * c / n:5.1f}% {100 * incl[func] / n:8.1f}%  {name}")
print()
print(f"{'share':>6}  address (symbol+offset)  innermost function  source")
for addr, c in leaves.most_common(15):
    func, loc = (chains.get(addr) or [("??", "??:0")])[0]
    if not known(func):
        print(f"{100 * c / n:5.1f}%  {addr + offset:#x}  (outside the binary)")
        continue
    loc = re.sub(r"^.*/(crates|library|src)/", r"\1/", loc)
    print(f"{100 * c / n:5.1f}%  {symbol(addr)}  {func}  {loc}")
EOF
