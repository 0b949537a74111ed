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
  local file="$1" regen="$2"
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
}
check_baseline crates/analyze/lint_baseline.json \
  "cargo run --release -p hulkv-analyze --bin hulkv-lint -- --write-baseline"

# Scratch files of the stages below. The fuzz campaign runs in the
# background while its live endpoint is scraped; the trap stops it if a
# later step fails first.
tmp="$(mktemp -d)"
fuzz_pid=""
trap 'rm -rf "$tmp"; { [ -n "${fuzz_pid:-}" ] && kill "$fuzz_pid" 2>/dev/null; } || true' EXIT

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

echo "== differential fuzz (fixed seed) + live telemetry scrape =="
# 500 random programs per ISA side, fast paths on vs off in lockstep —
# every bare-core and host program runs the per-retire ladder; bare RV64
# programs and cached-host programs also run the chunked lockstep (the
# inline replay loop driven through run_until_cycle vs the decode-off
# interpreter, synced at random offsets within straight-line runs;
# Xpulp cores stay on the step loop), and
# every cluster team program runs a second time through the quantum
# engine: cores stepped in hart order vs a step-order permutation drawn
# from the program seed, with hart-striped racing TCDM traffic and
# digests compared at every quantum boundary; any architectural or cycle
# divergence fails the gate and leaves a minimized repro per diverging
# side in fuzz/repros/.
# The campaign ends with the race-detector oracle: pools of known-racy
# and known-race-free TCDM hammer teams through the static cross-hart
# pass and the sanitized team run. fuzz_iss already exits non-zero on
# any misclassification; the greps below independently pin the summary
# line so a silently skipped oracle stage also fails.
# While it runs, the campaign serves its live counters: one mid-campaign
# scrape of /metrics must be well-formed Prometheus text that carries
# hulkv_fuzz_programs_total, and /snapshot must be a schema-2 document.
# /metrics renders from the snapshot /snapshot serves, so the two agree
# by construction; tests/tests/telemetry_bus.rs reconciles a TCP scrape
# with the published snapshot exactly.
cargo build --release -q -p hulkv-fuzz
: > "$tmp/fuzz.log" # exists before the poll below reads it
target/release/fuzz_iss --ci-budget --seed 20260807 --serve-metrics 127.0.0.1:0 \
  >> "$tmp/fuzz.log" 2>&1 &
fuzz_pid=$!
addr=""
for _ in $(seq 1 600); do
  addr="$(sed -n 's/^serving metrics on //p' "$tmp/fuzz.log" | head -n1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  cat "$tmp/fuzz.log"
  echo "ci.sh: fuzz_iss never announced its metrics address" >&2
  exit 1
fi
python3 - "$addr" <<'EOF'
import json, sys, time, urllib.request
def get(path):
    return urllib.request.urlopen(f"http://{sys.argv[1]}{path}", timeout=10).read().decode()
# The campaign registers its counters right after announcing the address.
for _ in range(50):
    text = get("/metrics")
    if "\nhulkv_fuzz_programs_total " in "\n" + text:
        break
    time.sleep(0.2)
names, n = set(), 0
for ln in text.splitlines():
    if not ln or ln.startswith("#"):
        continue
    head = ln.split("{")[0].split(" ")[0]
    assert head and not head[0].isdigit() and head.replace("_", "a").isalnum(), \
        f"bad metric name in: {ln!r}"
    float(ln.rsplit(" ", 1)[1])
    names.add(head)
    n += 1
assert "hulkv_fuzz_programs_total" in names, f"scrape lacks hulkv_fuzz_programs_total: {sorted(names)}"
snap = json.loads(get("/snapshot"))
assert snap["schema_version"] == 2, f"bad /snapshot schema: {snap.get('schema_version')}"
print(f"ci.sh: mid-campaign scrape ok ({n} samples), /snapshot schema 2")
EOF
fuzz_status=0
wait "$fuzz_pid" || fuzz_status=$?
fuzz_pid=""
cat "$tmp/fuzz.log"
[ "$fuzz_status" -eq 0 ]
grep -qE 'race_oracle: .*hammer_confirmed=[1-9]' "$tmp/fuzz.log"
grep -qE 'race_oracle: .*striped_flagged=0 striped_raced=0' "$tmp/fuzz.log"

echo "== fuzz_iss reports every diverging side (injected divergence) =="
# --inject-divergence corrupts the fast side a few retires in, in the
# harnesses that have an injection point: the per-retire lockstep of the
# bare RV64 and RV32 sides and the chunked lockstep of the host side (the
# cluster harnesses have none). With seed 1 and one program per side all
# three diverge: the campaign must exit 1 and leave exactly one shrunk
# repro for each of them, not stop at the first.
inject_status=0
target/release/fuzz_iss --inject-divergence --seed 1 --programs 1 --heartbeat 0 \
  --repro-dir "$tmp/inject" > "$tmp/inject.log" 2>&1 || inject_status=$?
repros="$(ls "$tmp/inject" 2>/dev/null || true)"
for side in Rv64Sv39 Rv32Pulp Rv64Host; do
  if [ "$(grep -c "^repro_${side}_" <<< "$repros")" -ne 1 ]; then
    cat "$tmp/inject.log"
    echo "ci.sh: injected campaign left no single $side repro: $repros" >&2
    exit 1
  fi
done
if [ "$inject_status" -ne 1 ] || [ "$(wc -l <<< "$repros")" -ne 3 ]; then
  cat "$tmp/inject.log"
  echo "ci.sh: injected campaign exited $inject_status with repros: $repros" >&2
  exit 1
fi
grep -q 'fuzz_iss: 4 programs, 3 divergences' "$tmp/inject.log"

echo "== TCDM race gate (static + dynamic + neutrality) =="
# Static half: the guest-program lint above already diffed the cluster
# catalog (including the deliberately racy race-demo fixture) against
# the justified baseline. Dynamic half: --confirm re-runs every flagged
# program on the real SoC — the racy accumulator must be confirmed by a
# tcdm_race event from the quantum-boundary sanitizer, and the striped
# rewrite must produce no race finding to confirm at all.
cargo run --release -p hulkv-analyze --bin hulkv-lint -- --confirm | tee "$tmp/race.log"
grep -q 'confirm: examples/race-demo/racy-accumulate: confirmed \[TcdmRace\]' "$tmp/race.log"
if grep 'striped-accumulate' "$tmp/race.log" | grep -q 'tcdm-race'; then
  echo "ci.sh: race pass flagged the race-free striped fixture" >&2
  exit 1
fi
# Neutrality half: the cluster's sanitizer test group proves the race
# set invariant across step orders and quantum lengths, and that
# sanitizer-off runs are cycle- and digest-identical to sanitizer-on
# (tests/tests/golden_digests.rs re-checks neutrality on the int8 matmul
# offload with the sanitizer on).
cargo test --release -q -p hulkv-cluster sanitizer

echo "== telemetry export (table2) =="
# The figure bins' reference workload with every file sink on. The bin
# verifies the timeline itself (non-empty, windows contiguous and
# monotone in cycles, integrated energy == avg power x time within 1%)
# and aborts on any violation; the shell re-checks the exported files so
# a silently empty or partial export also fails.
cargo run --release -q -p hulkv-bench --bin table2 -- --timeline-out "$tmp/timeline.csv" \
  --metrics-out "$tmp/metrics.json" --trace-out "$tmp/trace.json"
awk -F, '
  NR == 1 { next }                        # header
  $2 + 0 <= $1 + 0 { print "ci.sh: timeline window " NR " not monotone"; bad = 1 }
  NR > 2 && $1 + 0 != prev_end { print "ci.sh: timeline gap at row " NR; bad = 1 }
  { prev_end = $2 + 0; rows++ }
  END {
    if (rows < 1) { print "ci.sh: timeline is empty"; bad = 1 }
    exit bad
  }
' "$tmp/timeline.csv"
python3 - "$tmp/metrics.json" "$tmp/trace.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema_version"] == 2, f"metrics schema {m.get('schema_version')}"
assert m.get("energy", {}).get("total_mj", 0) > 0, "metrics lack the energy section"
events = json.load(open(sys.argv[2]))["traceEvents"]
tracks = {e["args"]["name"] for e in events if e.get("name") == "thread_name"}
assert "soc/telemetry" in tracks, f"trace lacks the soc/telemetry row: {sorted(tracks)}"
assert any(e.get("ph") == "C" for e in events), "trace has no counter events"
print("ci.sh: metrics schema 2 with energy; trace holds the soc/telemetry counter row")
EOF

echo "== snapshot / record-replay gate (hulkv-replay) =="
# Records a Figure-6 workload with a checkpoint every 10k host cycles,
# then `verify` restores EVERY checkpoint in the ring (including the
# middle mid-program ones) and replays each to completion, asserting the
# final state digest, cycle count and Stats all equal the straight-line
# run. Printed snapshot size and save/restore latency come from the same
# pass. Run twice: the default (decode cache and the host's inline
# replay loop on) and decode cache off must both replay bit-exactly, and
# both recordings must reach the same final cycle count and state
# digest — the shell-level cross-mode check that the fast paths are
# invisible to architecture and timing.
cargo build --release -q -p hulkv-replay
replay=target/release/hulkv-replay
"$replay" record --out "$tmp/fig6.hrec" --kernel relu-int8 --period 10000 \
  | tee "$tmp/record.log"
"$replay" verify "$tmp/fig6.hrec" | tee "$tmp/verify.log"
grep -q "VERIFY OK" "$tmp/verify.log"
"$replay" record --out "$tmp/fig6_nodc.hrec" --kernel relu-int8 \
  --period 10000 --no-decode-cache | tee "$tmp/record_nodc.log"
"$replay" verify "$tmp/fig6_nodc.hrec" | tee "$tmp/verify_nodc.log"
grep -q "VERIFY OK" "$tmp/verify_nodc.log"
# Cross-mode neutrality: identical cycles and digest in both modes.
if [ "$(grep -o 'digest=[0-9a-fx]*' "$tmp/record.log")" != \
     "$(grep -o 'digest=[0-9a-fx]*' "$tmp/record_nodc.log")" ] ||
   [ "$(grep -o '[0-9]* cycles' "$tmp/record.log")" != \
     "$(grep -o '[0-9]* cycles' "$tmp/record_nodc.log")" ]; then
  echo "ci.sh: record_nodc.log diverged from the default recording" >&2
  exit 1
fi

# Scripted time-travel session: goto, single-step back, state diff and a
# memory watchpoint must all work end-to-end on the recording.
cat > "$tmp/session.txt" <<'EOF'
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
"$replay" debug "$tmp/fig6.hrec" --script "$tmp/session.txt" \
  | tee "$tmp/debug.log"
grep -q "fields differ" "$tmp/debug.log"
grep -q "watch 0 hit" "$tmp/debug.log"

echo "== simulator benchmark (bench/check.sh) =="
# The standalone hulkv-perf package (bench/, own workspace and lock file)
# builds against this tree's crates: release build, its unit tests,
# clippy -D warnings and rustfmt, a one-pass smoke of all four workloads
# end to end and traced, and a check that the metric names and units it
# emits are exactly those BENCHMARK.json declares.
bench/check.sh

echo "CI OK"
