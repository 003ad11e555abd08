#!/usr/bin/env bash
# CLI smoke test for xchain-sweep, wired into ctest (see CMakeLists.txt).
#
# Usage: xchain_sweep_smoke.sh /path/to/xchain-sweep /path/to/out.json
#
# Asserts that:
#   * --list names every registered reference protocol and the strategy
#     spaces;
#   * a small two-party grid campaign (premium_a=1,2) exits 0;
#   * the emitted JSON parses (python3 when available, grep fallback) and
#     reports 2 configurations with 0 violations;
#   * --dry-run prints per-configuration schedule counts without running
#     (halt-only two-party: 16; --strategies=late-delays enlarges it);
#   * a bounded --strategies=late-delays sweep runs clean and stamps the
#     JSON with the strategy space;
#   * malformed flag integers (whitespace, '+', junk) exit 2, while the
#     documented --max-deviators=-1 is accepted; --set integer values
#     (delta=+3, 'delta= 3', bids=+100,80) fail the same way, as do
#     auctions no bid can win (bids=0,0; sealed collateral=50).
set -euo pipefail

bin="$1"
json="$2"

fail() { echo "xchain_sweep_smoke: FAIL: $*" >&2; exit 1; }

# --list must name all reference protocols and the strategy spaces.
list_out="$("$bin" --list)"
for name in two-party multi-party-ring multi-party-fig3a auction-open \
            auction-sealed broker bootstrap crr-ladder; do
  grep -q "^  $name " <<<"$list_out" || fail "--list is missing '$name'"
done
for space in halt-only timely-delays late-delays; do
  grep -q "$space" <<<"$list_out" || fail "--list is missing '$space'"
done

# A tiny grid campaign must run clean and write JSON.
rm -f "$json"
"$bin" --protocol=two-party --grid premium_a=1,2 --threads=2 \
  --json="$json" || fail "campaign exited $? (want 0)"
[[ -s "$json" ]] || fail "no JSON written to $json"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["benchmark"] == "campaign", doc
assert doc["configurations"] == 2, doc
assert doc["violations"] == 0, doc
assert len(doc["configs"]) == 2, doc
assert all(c["violations"] == 0 for c in doc["configs"]), doc
assert {c["params"] for c in doc["configs"]} == \
    {"premium_a=1", "premium_a=2"}, doc
EOF
else
  grep -q '"benchmark": "campaign"' "$json" || fail "JSON lacks benchmark"
  grep -q '"configurations": 2' "$json" || fail "JSON lacks 2 configurations"
  # Anchor to the top-level aggregate (two-space indent, trailing comma):
  # an unanchored '"violations": 0' also matches any single clean entry in
  # the per-config "configs" array, passing even when other configs report
  # violations.
  grep -q '^  "violations": 0,' "$json" || fail "JSON lacks violations: 0"
fi

# --dry-run prints plan-space sizes without running: the halt-only
# two-party space is exactly 16 schedules, and late-delays enlarges it.
dry_out="$("$bin" --protocol=two-party --dry-run)" || \
  fail "--dry-run exited $? (want 0)"
grep -q "two-party: 16 schedules" <<<"$dry_out" || \
  fail "--dry-run halt-only count wrong: $dry_out"
late_dry_out="$("$bin" --protocol=two-party --strategies=late-delays \
  --max-schedules=5000 --dry-run)" || fail "late-delays --dry-run failed"
late_count="$(sed -n 's/^two-party: \([0-9]*\) schedules$/\1/p' \
  <<<"$late_dry_out")"
[[ -n "$late_count" && "$late_count" -gt 48 ]] || \
  fail "late-delays dry-run should enlarge the space: $late_dry_out"

# A bounded late-delays sweep must run clean and stamp the JSON.
rm -f "$json.late"
"$bin" --protocol=two-party --strategies=late-delays --max-schedules=2000 \
  --threads=2 --json="$json.late" >/dev/null || \
  fail "late-delays sweep exited $? (want 0)"
grep -q '"strategies": "late-delays"' "$json.late" || \
  fail "JSON lacks the strategies stamp"
grep -q '^  "violations": 0,' "$json.late" || \
  fail "late-delays sweep reported violations"
rm -f "$json.late"

# Unknown protocols / params / strategy spaces must fail with usage
# errors, not violations.
"$bin" --protocol=no-such-protocol >/dev/null 2>&1 && \
  fail "unknown protocol should exit non-zero"
"$bin" --protocol=two-party --set no_such_param=1 >/dev/null 2>&1 && \
  fail "unknown param should exit non-zero"
"$bin" --protocol=two-party --strategies=bogus >/dev/null 2>&1 && \
  fail "unknown strategy space should exit non-zero"

# Flag integers are digits only, plus a leading '-' where the range
# admits one; anything else is a usage error (exit 2).
"$bin" --protocol=two-party --max-deviators=-1 --dry-run >/dev/null || \
  fail "--max-deviators=-1 should be accepted"
set +e
for bad in '--max-deviators=+1' '--max-deviators= 1' '--max-deviators=-' \
           '--threads= 2' '--threads=+2' '--max-schedules=5x' \
           '--max-configs=+3'; do
  "$bin" --protocol=two-party --dry-run "$bad" >/dev/null 2>&1; rc=$?
  [[ $rc -eq 2 ]] || fail "'$bad' should exit 2 (got $rc)"
done
# Parameter values share the flags' integer grammar, and an auction no
# bid can win (all bids zero, sealed collateral below the top bid) is a
# configuration error too.
for bad in 'two-party delta=+3' 'two-party delta= 3' \
           'auction-open bids=+100,80' 'auction-open bids=0,0' \
           'auction-sealed collateral=50'; do
  "$bin" --protocol="${bad%% *}" --set "${bad#* }" --dry-run \
    >/dev/null 2>&1; rc=$?
  [[ $rc -eq 2 ]] || fail "--set '${bad#* }' should exit 2 (got $rc)"
done
set -e

echo "xchain_sweep_smoke: OK"
