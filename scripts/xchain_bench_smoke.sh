#!/usr/bin/env bash
# CLI smoke test for xchain-bench, wired into ctest (see CMakeLists.txt).
#
# Usage: xchain_bench_smoke.sh /path/to/xchain-bench /path/to/workdir
#
# Asserts that:
#   * --help prints the usage text;
#   * a small shared-chain load (200 users, default mix) exits 0 and
#     writes a BENCH_load JSON artifact with the expected shape (every
#     instance completed, latency percentiles present, 0 unattributed
#     violations);
#   * the --threads=1 and --threads=4 artifacts are identical modulo the
#     wall-time/stamp fields (the load loop's determinism contract), and
#     the --threads=4 run's --scaling=1,2 points pass the CLI's own
#     whole-report determinism check;
#   * the artifact names the SHA-256 kernel the CPU dispatched to
#     ("sha-ni" or "portable"), a host stamp kept out of the comparison;
#   * every run, scaling points included, reports phase_seconds (the tick
#     loop's wall time by phase) and pool_ticks (ticks whose actor phase
#     ran on the worker pool), both kept out of the determinism comparison;
#   * malformed flags and unknown mix protocols exit 2, numbers included:
#     a flag integer is digits only (no whitespace, no '+', no junk).
set -euo pipefail

bin="$1"
work="$2"

fail() { echo "xchain_bench_smoke: FAIL: $*" >&2; exit 1; }

mkdir -p "$work"

"$bin" --help | grep -q "usage: xchain-bench" || fail "--help lacks usage"

# Small load, deterministic seed, both thread counts.
rm -f "$work/t1.json" "$work/t4.json"
"$bin" --users=200 --threads=1 --seed=7 --json="$work/t1.json" --quiet \
  || fail "--threads=1 run exited $? (want 0)"
"$bin" --users=200 --threads=4 --seed=7 --scaling=1,2 \
  --json="$work/t4.json" --quiet \
  || fail "--threads=4 --scaling=1,2 run exited $? (want 0)"
[[ -s "$work/t1.json" && -s "$work/t4.json" ]] || fail "missing JSON artifacts"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$work/t1.json" "$work/t4.json" <<'EOF'
import json, sys
WALL = {"threads", "wall_seconds", "instances_per_second", "txs_per_second",
        "phase_seconds", "pool_ticks", "latency_wall_seconds", "scaling",
        "git_commit", "build_type", "compiler", "hardware_threads",
        "sha256_kernel"}
PHASES = {"bind", "actor", "drain", "produce", "audit", "attribution"}
docs = []
for path in sys.argv[1:3]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["benchmark"] == "load", doc["benchmark"]
    assert doc["sha256_kernel"] in ("sha-ni", "portable"), \
        doc.get("sha256_kernel")
    assert doc["instances"] == 200, doc["instances"]
    assert doc["unattributed"] == 0, doc["unattributed"]
    assert {"p50", "p95", "p99", "max", "mean"} <= \
        set(doc["latency_ticks"]), doc["latency_ticks"]
    assert sum(p["instances"] for p in doc["protocols"]) == 200, \
        doc["protocols"]
    for run in [doc] + doc.get("scaling", []):
        phases = run["phase_seconds"]
        assert set(phases) == PHASES, phases
        assert all(v >= 0 for v in phases.values()), phases
        pool = run["pool_ticks"]
        assert isinstance(pool, int) and 0 <= pool <= doc["ticks"], pool
    docs.append({k: v for k, v in doc.items() if k not in WALL})
    scaling = [p["threads"] for p in doc.get("scaling", [])]
assert scaling == [1, 2], scaling  # the --threads=4 run's curve
assert docs[0] == docs[1], "threads=1 vs threads=4 reports differ"
EOF
else
  grep -q '"benchmark": "load"' "$work/t1.json" || fail "JSON lacks benchmark"
  grep -q '"instances": 200' "$work/t1.json" || fail "JSON lacks instances"
  grep -q '"unattributed": 0' "$work/t1.json" || fail "unattributed != 0"
  grep -q '"sha256_kernel": "' "$work/t1.json" || fail "JSON lacks sha256_kernel"
  # Determinism: the tick-latency line must agree across thread counts.
  t1_lat="$(grep '"latency_ticks"' "$work/t1.json" | head -1)"
  t4_lat="$(grep '"latency_ticks"' "$work/t4.json" | head -1)"
  [[ "$t1_lat" == "$t4_lat" ]] || fail "latency differs across thread counts"
fi

# Usage errors exit 2, never 0/1.
set +e
"$bin" --users=0 >/dev/null 2>&1; [[ $? -eq 2 ]] || fail "--users=0 should exit 2"
"$bin" --no-such-flag >/dev/null 2>&1; [[ $? -eq 2 ]] || fail "unknown flag should exit 2"
"$bin" --users=5 --mix=no-such-protocol:1 --json="$work/bad.json" \
  >/dev/null 2>&1; [[ $? -eq 2 ]] || fail "unknown mix protocol should exit 2"
"$bin" --users=5 --mix=two-party:0 >/dev/null 2>&1; [[ $? -eq 2 ]] || \
  fail "zero mix weight should exit 2"
for bad in '--users= 20' '--users=+20' '--users=20x' '--seed= 3' \
           '--seed=+3' '--gap=-1' '--cap= 4' '--max-fee=+64' \
           '--mix=two-party:+2' '--scaling=1,+2'; do
  "$bin" --users=5 "$bad" >/dev/null 2>&1; rc=$?
  [[ $rc -eq 2 ]] || fail "'$bad' should exit 2 (got $rc)"
done
set -e

rm -f "$work/t1.json" "$work/t4.json" "$work/bad.json"
echo "xchain_bench_smoke: OK"
