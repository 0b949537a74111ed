#!/usr/bin/env bash
# Gate for the hulkv-perf benchmark package: release build, unit tests,
# clippy and rustfmt, a one-pass smoke of every workload (end to end and
# traced), and a check that the metric names and units the benchmark
# emits are exactly those BENCHMARK.json declares.
#
# Usage (from anywhere): bench/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo_bench() {
    local cmd=$1
    shift
    cargo "$cmd" --release --offline --manifest-path bench/Cargo.toml "$@"
}

cargo_bench build
cargo_bench test
cargo_bench clippy --all-targets -- -D warnings
cargo fmt --manifest-path bench/Cargo.toml -- --check

mkdir -p bench/out
rm -f bench/out/smoke-run.jsonl bench/out/smoke-trace.jsonl
cargo_bench run --quiet -- run --smoke --out bench/out/smoke-run.jsonl
cargo_bench run --quiet -- trace --smoke --out bench/out/smoke-trace.jsonl

python3 - <<'EOF'
import json
import sys

spec = json.load(open("BENCHMARK.json"))
workloads = {w["name"] for w in spec["workloads"]}
problems = []
for path, kind in [("bench/out/smoke-run.jsonl", "end_to_end"),
                   ("bench/out/smoke-trace.jsonl", "per_layer")]:
    declared = {(m["name"], m["unit"]) for m in spec[kind]}
    record = json.loads(open(path).read().splitlines()[-1])
    if set(record["results"]) != workloads:
        problems.append(f"{path}: workloads {sorted(record['results'])}")
    for workload, runs in record["results"].items():
        for run in runs:
            emitted = {(k, v["unit"]) for k, v in run.get("metrics", {}).items()}
            for name, unit in sorted(emitted ^ declared):
                side = "undeclared" if (name, unit) in emitted else "missing"
                problems.append(f"{path} {workload}: {side} metric {name} [{unit}]")
            if not run.get("correct"):
                problems.append(f"{path} {workload}: run not correct")
if problems:
    print("\n".join(problems))
    sys.exit(1)
print("emitted metrics match BENCHMARK.json")
EOF
