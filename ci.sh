#!/usr/bin/env bash
# Local CI gate: everything a PR must pass before merging.
# Mirrors the checks the driver runs, so `./ci.sh` == a green PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "== preflight: committed baselines =="
# Fail fast, before any long cargo step, if a gate's committed baseline
# is missing or unparseable — a truncated checkout or a bad merge would
# otherwise surface minutes later as a confusing in-gate error.
check_baseline() {
  local file="$1" regen="$2" want_schema="${3:-}"
  if [ ! -f "$file" ]; then
    echo "ci.sh: missing baseline $file" >&2
    echo "ci.sh: regenerate it with: $regen" >&2
    exit 1
  fi
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$file" 2>/dev/null; then
    echo "ci.sh: baseline $file is not valid JSON" >&2
    echo "ci.sh: restore it from git or regenerate with: $regen" >&2
    exit 1
  fi
  # A baseline from an older schema measures different things (or with a
  # different methodology) than the current gate — comparing against it
  # silently validates nothing, so stale versions fail the preflight.
  if [ -n "$want_schema" ]; then
    if ! python3 -c "
import json, sys
doc = json.load(open(sys.argv[1]))
got = doc.get('schema_version')
want = int(sys.argv[2])
if got != want:
    print(f'ci.sh: baseline {sys.argv[1]} has schema_version {got}, this tree expects v{want}', file=sys.stderr)
    sys.exit(1)
" "$file" "$want_schema"; then
      echo "ci.sh: regenerate it with: $regen" >&2
      exit 1
    fi
  fi
}
check_baseline BENCH_sim_throughput.baseline.json \
  "cargo run --release -p hulkv-bench --bin sim_throughput -- --quick --out BENCH_sim_throughput.baseline.json" \
  2
check_baseline crates/analyze/lint_baseline.json \
  "cargo run --release -p hulkv-analyze --bin hulkv-lint -- --write-baseline"

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

echo "== guest-program lint (hulkv-lint) =="
# Static analysis over every kernel, benchmark, example, and committed
# fuzz repro. Fails only on findings NOT accepted (with a justification)
# in crates/analyze/lint_baseline.json.
cargo run --release -p hulkv-analyze --bin hulkv-lint -- --ci

echo "== differential fuzz (fixed seed) =="
# 500 random programs per ISA side, fast paths on vs off in lockstep —
# every bare-core program runs the per-retire ladder, bare RV64 programs
# also run it block-granular (superblocks vs plain interpreter, synced
# at random in-block offsets; Xpulp cores never dispatch blocks), and
# every cluster team program runs a second time:
# serial executor vs thread-pool executor through the quantum engine,
# with hart-striped racing TCDM traffic and digests compared at every
# quantum boundary; any architectural or cycle divergence fails the
# gate and leaves a minimized repro in fuzz/repros/.
# The campaign ends with the race-detector oracle: pools of known-racy
# and known-race-free TCDM hammer teams through the static cross-hart
# pass and the sanitized team run. fuzz_iss already exits non-zero on
# any misclassification; the greps below independently pin the summary
# line so a silently skipped oracle stage also fails.
fuzz_log="$(mktemp)"
trap 'rm -f "$fuzz_log"' EXIT
cargo run --release -p hulkv-fuzz --bin fuzz_iss -- --ci-budget --seed 20260807 \
  | tee "$fuzz_log"
grep -qE 'race_oracle: .*hammer_confirmed=[1-9]' "$fuzz_log"
grep -qE 'race_oracle: .*striped_flagged=0 striped_raced=0' "$fuzz_log"

echo "== TCDM race gate (static + dynamic + neutrality) =="
# Static half: the guest-program lint above already diffed the cluster
# catalog (including the deliberately racy race-demo fixture) against
# the justified baseline. Dynamic half: --confirm re-runs every flagged
# program on the real SoC — the racy accumulator must be confirmed by a
# tcdm_race event from the quantum-boundary sanitizer, and the striped
# rewrite must produce no race finding to confirm at all.
race_log="$(mktemp)"
trap 'rm -f "$fuzz_log" "$race_log"' EXIT
cargo run --release -p hulkv-analyze --bin hulkv-lint -- --confirm | tee "$race_log"
grep -q 'confirm: examples/race-demo/racy-accumulate: confirmed \[TcdmRace\]' "$race_log"
if grep 'striped-accumulate' "$race_log" | grep -q 'tcdm-race'; then
  echo "ci.sh: race pass flagged the race-free striped fixture" >&2
  exit 1
fi
# Neutrality half: the cluster's sanitizer test group proves the race
# set invariant across worker counts, step orders and quantum lengths,
# and that sanitizer-off runs are cycle- and digest-identical to
# sanitizer-on (the sim_throughput gate below re-checks neutrality on
# the full mixed workload).
cargo test --release -q -p hulkv-cluster sanitizer

echo "== simulator throughput smoke + telemetry =="
# Quick decode-cache on/off run: proves cycle-count neutrality and fails
# if simulated MIPS regressed >30% against the committed baseline (the
# baseline is deliberately conservative to absorb machine variance).
# Its JSON goes to a temp file, so the run leaves the committed
# BENCH_sim_throughput.json alone.
# --timeline-out also samples the mixed workload: the bench itself
# verifies the timeline (non-empty, windows contiguous and monotone in
# cycles, integrated energy == avg power x time within 1%) and aborts on
# any violation; the shell re-checks the exported file's shape so a
# silently-empty export also fails.
timeline="$(mktemp --suffix=.csv)"
quick_json="$(mktemp --suffix=.json)"
trap 'rm -f "$fuzz_log" "$race_log" "$timeline" "$quick_json"' EXIT
cargo run --release -p hulkv-bench --bin sim_throughput -- \
  --quick --baseline BENCH_sim_throughput.baseline.json \
  --timeline-out "$timeline" --out "$quick_json"
awk -F, '
  NR == 1 { next }                        # header
  $2 + 0 <= $1 + 0 { print "ci.sh: timeline window " NR " not monotone"; bad = 1 }
  NR > 2 && $1 + 0 != prev_end { print "ci.sh: timeline gap at row " NR; bad = 1 }
  { prev_end = $2 + 0; rows++ }
  END {
    if (rows < 1) { print "ci.sh: timeline is empty"; bad = 1 }
    exit bad
  }
' "$timeline"

echo "== snapshot / record-replay gate (hulkv-replay) =="
# Records a Figure-6 workload with a checkpoint every 10k host cycles,
# then `verify` restores EVERY checkpoint in the ring (including the
# middle mid-program ones) and replays each to completion, asserting the
# final state digest, cycle count and Stats all equal the straight-line
# run. Printed snapshot size and save/restore latency come from the same
# pass. Run three times: superblocks on (the default), superblocks off,
# and decode cache off must all replay bit-exactly, and all three
# recordings must reach the same final cycle count and state digest —
# the shell-level cross-mode check that the superblock engine is
# invisible to architecture and timing. --no-superblocks switches the
# CVA6 host only; the PMCA cores never run blocks.
replay_dir="$(mktemp -d)"
trap 'rm -f "$fuzz_log" "$race_log" "$timeline" "$quick_json"; rm -rf "$replay_dir"' EXIT
cargo build --release -q -p hulkv-replay
replay=target/release/hulkv-replay
"$replay" record --out "$replay_dir/fig6.hrec" --kernel relu-int8 --period 10000 \
  | tee "$replay_dir/record.log"
"$replay" verify "$replay_dir/fig6.hrec" | tee "$replay_dir/verify.log"
grep -q "VERIFY OK" "$replay_dir/verify.log"
"$replay" record --out "$replay_dir/fig6_nosb.hrec" --kernel relu-int8 \
  --period 10000 --no-superblocks | tee "$replay_dir/record_nosb.log"
"$replay" verify "$replay_dir/fig6_nosb.hrec" | tee "$replay_dir/verify_nosb.log"
grep -q "VERIFY OK" "$replay_dir/verify_nosb.log"
"$replay" record --out "$replay_dir/fig6_nodc.hrec" --kernel relu-int8 \
  --period 10000 --no-decode-cache | tee "$replay_dir/record_nodc.log"
"$replay" verify "$replay_dir/fig6_nodc.hrec" | tee "$replay_dir/verify_nodc.log"
grep -q "VERIFY OK" "$replay_dir/verify_nodc.log"
# Cross-mode neutrality: identical cycles and digest in all three modes.
for log in record_nosb.log record_nodc.log; do
  if [ "$(grep -o 'digest=[0-9a-fx]*' "$replay_dir/record.log")" != \
       "$(grep -o 'digest=[0-9a-fx]*' "$replay_dir/$log")" ] ||
     [ "$(grep -o '[0-9]* cycles' "$replay_dir/record.log")" != \
       "$(grep -o '[0-9]* cycles' "$replay_dir/$log")" ]; then
    echo "ci.sh: $log diverged from the superblock recording" >&2
    exit 1
  fi
done

# Scripted time-travel session: goto, single-step back, state diff and a
# memory watchpoint must all work end-to-end on the recording.
cat > "$replay_dir/session.txt" <<'EOF'
info
goto 20000
regs
step 5
back 3
diff 20000 30000
watch pc 0x80100004
continue 100000
quit
EOF
"$replay" debug "$replay_dir/fig6.hrec" --script "$replay_dir/session.txt" \
  | tee "$replay_dir/debug.log"
grep -q "fields differ" "$replay_dir/debug.log"
grep -q "watch 0 hit" "$replay_dir/debug.log"

echo "== live telemetry scrape (hulkv-obs) =="
# Re-runs the quick bench with the metrics endpoint enabled: scrapes
# /metrics while the workload is still executing (the response must be
# well-formed Prometheus exposition text), then — once the bench prints
# its lingering marker — reconciles the final scrape against both the
# final MetricsSnapshot (--metrics-out) and the bench JSON: every
# counter in every snapshot block must equal its hulkv_stats{} sample
# exactly. GET /quit releases the lingering server.
obs_dir="$(mktemp -d)"
obs_pid=""
trap 'rm -f "$fuzz_log" "$race_log" "$timeline" "$quick_json"; rm -rf "$replay_dir" "$obs_dir"; { [ -n "${obs_pid:-}" ] && kill "$obs_pid" 2>/dev/null; } || true' EXIT
cargo run --release -q -p hulkv-bench --bin sim_throughput -- \
  --quick --serve-metrics 127.0.0.1:0 --serve-linger-ms 60000 \
  --metrics-out "$obs_dir/final.json" --out "$obs_dir/bench.json" \
  > "$obs_dir/bench.log" 2>&1 &
obs_pid=$!
addr=""
for _ in $(seq 1 600); do
  addr="$(sed -n 's/^serving metrics on //p' "$obs_dir/bench.log" | head -n1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "ci.sh: metrics server never announced its address" >&2
  exit 1
fi
# Mid-run scrape: format validity only — the run may not have published
# its first snapshot yet, but whatever is served must parse.
python3 - "$addr" <<'EOF'
import sys, urllib.request
text = urllib.request.urlopen(f"http://{sys.argv[1]}/metrics", timeout=10).read().decode()
n = 0
for ln in text.splitlines():
    if not ln or ln.startswith("#"):
        continue
    head = ln.split("{")[0].split(" ")[0]
    assert head and not head[0].isdigit() and head.replace("_", "a").isalnum(), \
        f"bad metric name in: {ln!r}"
    float(ln.rsplit(" ", 1)[1])
    n += 1
print(f"ci.sh: mid-run scrape ok ({n} samples)")
EOF
for _ in $(seq 1 6000); do
  grep -q 'metrics server lingering' "$obs_dir/bench.log" && break
  sleep 0.1
done
grep -q 'metrics server lingering' "$obs_dir/bench.log"
python3 - "$addr" "$obs_dir/final.json" "$obs_dir/bench.json" <<'EOF'
import json, sys, urllib.request
addr, final_path, bench_path = sys.argv[1:4]
text = urllib.request.urlopen(f"http://{addr}/metrics", timeout=10).read().decode()
samples = {}
for ln in text.splitlines():
    if not ln or ln.startswith("#"):
        continue
    if "{" in ln:
        name, rest = ln.split("{", 1)
        labels, value = rest.rsplit("} ", 1)
        samples[(name, labels)] = float(value)
    else:
        name, value = ln.rsplit(" ", 1)
        samples[(name, "")] = float(value)
final = json.load(open(final_path))
checked = 0
for block in final["blocks"]:
    for counter, v in sorted(block["counters"].items()):
        key = ("hulkv_stats", f'block="{block["name"]}",counter="{counter}"')
        assert key in samples, f"scrape is missing {key}"
        assert samples[key] == v, f"{key}: scraped {samples[key]} != snapshot {v}"
        checked += 1
bench = json.load(open(bench_path))
for k in ("host_instret", "host_cycles", "decode_hits", "mixed_cycles", "mixed_instret"):
    key = ("hulkv_stats", f'block="bench",counter="{k}"')
    assert samples[key] == bench[k], f"{key}: scraped {samples[key]} != bench {bench[k]}"
snap = json.loads(urllib.request.urlopen(f"http://{addr}/snapshot", timeout=10).read().decode())
assert snap["schema_version"] == 2, f"bad /snapshot schema: {snap.get('schema_version')}"
urllib.request.urlopen(f"http://{addr}/quit", timeout=10).read()
print(f"ci.sh: telemetry reconciled ({checked} snapshot counters + 5 bench figures)")
EOF
wait "$obs_pid"
obs_pid=""

echo "== simulator benchmark (bench/check.sh) =="
# The standalone hulkv-perf package (bench/, own workspace and lock file)
# builds against this tree's crates: release build, its unit tests,
# clippy -D warnings and rustfmt, a one-pass smoke of all four workloads
# end to end and traced, and a check that the metric names and units it
# emits are exactly those BENCHMARK.json declares.
bench/check.sh

echo "CI OK"
