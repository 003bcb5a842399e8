#!/usr/bin/env bash
# Tier-1 verification: what CI runs and what every change must keep green.
#
#   scripts/verify.sh
#
# Builds offline (the workspace has no external dependencies), runs the
# full test suite, lints the workload programs, checks formatting, and
# runs clippy against the workspace lint set.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo build --release --examples"
cargo build --release --offline --examples

echo "==> cargo test -q"
cargo test -q --offline --workspace

echo "==> cargo test --release (harness)"
# The harness tests again in the release profile, where debug assertions
# and the debug-build sanitizer default are off: a test that leans on a
# profile-dependent default fails here.
cargo test --release --offline -q -p tc-sim --test harness

echo "==> cargo test --release (functional core)"
# The interpreter and fast-forward tests again under the benchmark's
# codegen: `run_straight`'s debug assertion is off and arithmetic wraps
# in release, so lockstep and fault-state equivalence must hold there too.
cargo test --release --offline -q -p tc-isa
cargo test --release --offline -q -p tc-workloads --test lockstep

echo "==> cargo test --release (front-end spec)"
# The specification model again under the benchmark's codegen, where the
# fill unit's debug assertion (running branch counts equal a recount) is
# off: the predecoded line masks and the running counts must match the
# model on their own.
cargo test --release --offline -q -p tc-core --test spec

echo "==> tw lint --all"
target/release/tw lint --all

echo "==> tw bench --smoke"
bench_artifact="$(mktemp -t tw-bench-smoke.XXXXXX.json)"
trace_artifact="$(mktemp -t tw-trace-smoke.XXXXXX.json)"
trap 'rm -f "$bench_artifact" "$trace_artifact"' EXIT
target/release/tw bench --smoke --out "$bench_artifact"
target/release/tw bench --check "$bench_artifact"

echo "==> twbench --smoke"
# The repo's benchmark (BENCHMARK.json) at a few seconds per workload:
# traced and untraced, with every correctness check; exits 1 on a failure.
cargo run --release --offline --quiet \
  --manifest-path examples/twbench/Cargo.toml -- --smoke >/dev/null

echo "==> tw bench --compare (self)"
# An artifact compared against itself has zero deltas; any exit other
# than success means the compare path itself broke.
target/release/tw bench --compare "$bench_artifact" "$bench_artifact"

echo "==> tw paper (smoke)"
# One paper figure and one ablation at a tiny budget: the experiment
# table, the memoizing runner and the table renderer end to end.
target/release/tw paper fig10 --insts 20000 >/dev/null
target/release/tw paper ablation-ras --insts 20000 >/dev/null

echo "==> tw trace (smoke)"
target/release/tw trace --workload compress --preset headline \
  --insts 20000 --limit 10000 --out "$trace_artifact"

echo "==> tw sim with a fault plan (smoke)"
target/release/tw sim --bench compress --config headline \
  --seed 1 --rate 1e-3 --insts 20000 --json >/dev/null

echo "==> tw sim --fast-forward / --sample (smoke)"
target/release/tw sim --bench compress --config baseline \
  --fast-forward 100000 --insts 20000 --json >/dev/null
target/release/tw sim --bench compress --config headline \
  --insts 200000 --sample 2000/10000 --json >/dev/null

echo "==> rv32i front-end smoke"
# The compiled workload family: the decoder/translator suite, image
# inspection, and the harness surfaces on an rv/ workload. The sampled
# run must agree with the full run on effective fetch rate within the
# documented sampling accuracy contract (DESIGN.md §13: ±10% at a
# dense 40%-measured spec).
cargo test -q --offline -p tc-rv
target/release/tw rv crates/rv/programs/dispatch.rv.bin >/dev/null
target/release/tw sim --bench rv/crc --config headline \
  --insts 100000 --json >/dev/null
target/release/tw analyze --workload rv/bsearch --insts 100000 >/dev/null
rv_full="$(target/release/tw sim --bench rv/qsort --config headline \
  --insts 400000 --json)"
rv_sampled="$(target/release/tw sim --bench rv/qsort --config headline \
  --insts 400000 --sample 20000/50000 --json)"
python3 - "$rv_full" "$rv_sampled" <<'EOF'
import json, sys
full = json.loads(sys.argv[1])["effective_fetch_rate"]
sampled = json.loads(sys.argv[2])["effective_fetch_rate"]
err = abs(sampled - full) / full
if err > 0.10:
    sys.exit(f"FAIL: sampled rv/qsort fetch rate {sampled:.4f} vs full {full:.4f} ({err:.1%} > 10%)")
EOF

echo "==> tw analyze smoke + plan round trip"
plan="$(mktemp -t tw-plan-smoke.XXXXXX.json)"
target/release/tw analyze --workload compress --insts 100000 \
  --out "$plan" >/dev/null
target/release/tw analyze --check "$plan"
target/release/tw sim --bench compress --config promo-pack \
  --insts 20000 --plan "$plan" --json >/dev/null
rm -f "$plan"

echo "==> tw checkpoint save/restore round trip"
ckpt="$(mktemp -t tw-ckpt-smoke.XXXXXX.json)"
direct="$(mktemp -t tw-ff-direct.XXXXXX.json)"
resumed="$(mktemp -t tw-ff-resumed.XXXXXX.json)"
target/release/tw checkpoint save --workload compress --insts 100000 \
  --out "$ckpt" >/dev/null
target/release/tw sim --bench compress --config baseline \
  --fast-forward 100000 --insts 20000 --json > "$direct"
target/release/tw checkpoint restore --from "$ckpt" --config baseline \
  --insts 20000 --json > "$resumed"
# Resuming from the checkpoint must reproduce the direct fast-forward
# run bit-for-bit.
cmp "$direct" "$resumed"
rm -f "$ckpt" "$direct" "$resumed"

echo "==> tw serve load smoke"
# Start the daemon on an ephemeral port, storm it with mixed
# valid/malformed/unknown-route requests, and drain it cleanly. The
# serve_load client exits non-zero if any status code, cache, or
# single-flight invariant breaks; the daemon exits non-zero on panics.
serve_log="$(mktemp -t tw-serve-smoke.XXXXXX.log)"
target/release/tw serve --jobs 4 --insts 20000 > "$serve_log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$serve_log" | head -n 1)"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
if [ -z "$serve_addr" ]; then
  echo "FAIL: tw serve never reported a listening address" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
target/release/examples/serve_load \
  --addr "$serve_addr" --total 1200 --concurrency 100 --shutdown
if ! wait "$serve_pid"; then
  echo "FAIL: tw serve exited non-zero after drain" >&2
  cat "$serve_log" >&2
  exit 1
fi
rm -f "$serve_log"

echo "==> tw serve chaos + crash recovery smoke"
# The robustness acceptance bar end to end: storm the daemon through a
# seeded in-process chaos proxy (resets, throttling, truncation,
# corruption, accept delays) with the retrying client, then kill -9 the
# daemon and restart it on the same --cache-dir — a previously computed
# key must come back from the persistent tier bit-identical, without
# recomputation.
cache_dir="$(mktemp -d -t tw-serve-cache.XXXXXX)"
chaos_log="$(mktemp -t tw-serve-chaos.XXXXXX.log)"
pre_kill="$(mktemp -t tw-body-prekill.XXXXXX.json)"
post_kill="$(mktemp -t tw-body-postkill.XXXXXX.json)"
wait_for_serve_addr() {
  # Scrapes the listening address from a daemon log, bounded at ~10 s.
  local log="$1" pid="$2" addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's#.*http://\([0-9.:]*\).*#\1#p' "$log" | head -n 1)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "FAIL: tw serve never reported a listening address" >&2
    cat "$log" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
  fi
  printf '%s' "$addr"
}
fetch_sim_body() {
  # fetch_sim_body ADDR OUT_FILE WANT_X_CACHE: one /v1/sim request with
  # a hard timeout; checks the cache disposition and saves the body.
  python3 - "$1" "$2" "$3" <<'EOF'
import http.client, json, sys
addr, out_path, want = sys.argv[1], sys.argv[2], sys.argv[3]
host, port = addr.rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=60)
conn.request("POST", "/v1/sim",
             json.dumps({"bench": "compress", "preset": "baseline", "insts": 20000}))
resp = conn.getresponse()
data = resp.read()
if resp.status != 200:
    sys.exit(f"FAIL: /v1/sim answered {resp.status}")
got = resp.getheader("x-cache")
if want != "any" and got != want:
    sys.exit(f"FAIL: expected x-cache {want}, got {got}")
with open(out_path, "wb") as f:
    f.write(data)
EOF
}
serve_shutdown() {
  python3 - "$1" <<'EOF'
import http.client, sys
host, port = sys.argv[1].rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=30)
conn.request("POST", "/v1/shutdown", "")
if conn.getresponse().status != 200:
    sys.exit("FAIL: shutdown refused")
EOF
}
target/release/tw serve --jobs 4 --insts 20000 --cache-dir "$cache_dir" > "$chaos_log" 2>&1 &
chaos_pid=$!
chaos_addr="$(wait_for_serve_addr "$chaos_log" "$chaos_pid")"
target/release/examples/serve_load \
  --addr "$chaos_addr" --total 1200 --concurrency 100 \
  --retries 4 --chaos-rate 0.01 --chaos-seed 42
fetch_sim_body "$chaos_addr" "$pre_kill" any
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true
target/release/tw serve --jobs 4 --insts 20000 --cache-dir "$cache_dir" > "$chaos_log" 2>&1 &
chaos_pid=$!
chaos_addr="$(wait_for_serve_addr "$chaos_log" "$chaos_pid")"
# After an unclean death, the same key must be served from the
# persistent tier — and byte-for-byte identical to the pre-kill body.
fetch_sim_body "$chaos_addr" "$post_kill" disk
cmp "$pre_kill" "$post_kill"
serve_shutdown "$chaos_addr"
if ! wait "$chaos_pid"; then
  echo "FAIL: restarted tw serve exited non-zero after drain" >&2
  cat "$chaos_log" >&2
  exit 1
fi
rm -rf "$chaos_log" "$pre_kill" "$post_kill" "$cache_dir"

echo "==> error layer exit codes"
# Malformed inputs must fail with the conventional codes (2 usage,
# 1 runtime) and a one-line diagnostic — never a panic (code 101).
expect_exit() {
  local want="$1"; shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want" >&2
    exit 1
  fi
}
expect_exit 2 target/release/tw frobnicate
expect_exit 2 target/release/tw sim --bench gcc --config no-such-preset
expect_exit 2 target/release/tw faults --workload gcc --rate 1e-3
expect_exit 2 target/release/tw serve --jobs 0
expect_exit 2 target/release/tw paper fig99
expect_exit 2 target/release/tw sim --bench gcc --config baseline --rate 5
expect_exit 2 target/release/tw sim --bench gcc --config baseline --rate -1
expect_exit 2 target/release/tw compare --bench gcc --targets ras
bad_asm="$(mktemp -t tw-bad-asm.XXXXXX.s)"
printf 'li t0, 0\nfrobnicate t1\n' > "$bad_asm"
expect_exit 1 target/release/tw lint --asm "$bad_asm"
printf '{"schema":"tw-bench/v1","cells":[' > "$bench_artifact.trunc"
expect_exit 1 target/release/tw bench --check "$bench_artifact.trunc"
printf '{"schema":"tw-plan/v9"}' > "$bench_artifact.plan"
expect_exit 1 target/release/tw analyze --check "$bench_artifact.plan"
printf 'not an rv image' > "$bench_artifact.rvbin"
expect_exit 2 target/release/tw rv "$bench_artifact.rvbin"
expect_exit 2 target/release/tw sim --bench rv/no-such --config headline
expect_exit 1 target/release/tw rv /nonexistent/missing.rv.bin
rm -f "$bad_asm" "$bench_artifact.trunc" "$bench_artifact.plan" "$bench_artifact.rvbin"

echo "==> closed stdout"
# A reader that closes early ends tw quietly (exit 0 or SIGPIPE), never
# with a panic (code 101).
set +o pipefail
target/release/tw list | head -c 1 >/dev/null
list_status=${PIPESTATUS[0]}
set -o pipefail
if [ "$list_status" = 101 ]; then
  echo "FAIL: 'tw list | head -c 1' panicked (exit 101)" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy"
# The workspace lint set in Cargo.toml, every target, warnings as errors.
cargo clippy --release --offline --all-targets -- -D warnings

echo "OK: build + tests + release harness and functional-core tests + lint + bench smoke + twbench smoke + compare + paper smoke + trace smoke + fault-plan sim smoke + fast-forward/checkpoint smoke + rv32i smoke + analyze/plan smoke + serve load smoke + chaos/crash-recovery smoke + error layer + closed stdout + formatting + clippy all clean"
