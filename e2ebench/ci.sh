#!/usr/bin/env bash
# The benchmark's own check, ready to be wired into CI by a later change:
# unit and integration tests, then one --quick set (every workload, untraced
# and traced), then a comparison of the metric names printed with the names
# BENCHMARK.json declares — none declared but not printed, none printed but
# undeclared. Run from anywhere; writes only under e2ebench/results/.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=e2ebench/Cargo.toml
out=e2ebench/results/ci
mkdir -p "$out"

cargo test --release --offline --manifest-path "$manifest"

cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --quick --set ci --history "$out/history.jsonl" | tee "$out/quick.out"

python3 - "$out/quick.out" <<'PY'
import json, sys

declared = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
summary = json.loads(open(sys.argv[1]).read().splitlines()[-1])

assert summary["claim"] is None, "the benchmark claims no gain"
assert summary["correct"] is True, "a correctness check failed"
assert list(summary["workloads"]) == [w["name"] for w in declared["workloads"]]
for workload, result in summary["workloads"].items():
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    undeclared = sorted(set(got) - set(want))
    assert not missing, f"{workload}: declared but not printed: {missing}"
    assert not undeclared, f"{workload}: printed but not declared: {undeclared}"
    wrong = sorted(n for n in want if want[n] != got[n])
    assert not wrong, f"{workload}: unit differs from BENCHMARK.json: {wrong}"
    assert result["failed"] == 0, f"{workload}: {result['failed']} failed operations"
print(f"ci: {len(want)} metrics printed for each of {len(summary['workloads'])} workloads, as declared")
PY
