#!/usr/bin/env sh
# CI bench gate: the PlanIR engine's fused marshal must beat the reference
# convert-then-encode pipeline by a fixed floor.
#
#   bench/check_engine_tiers.sh <bench_marshal_wire binary>
#
# Runs the fused-marshal pair on the E4 telemetry workload —
# BM_MarshalTwoPhaseFromValue (tree Converter + wire::encode on a pre-read
# Value) against BM_MarshalFusedThreaded (pre-decoded computed-goto stream
# over the same Value) — with min-of-3 repetitions, and fails unless the
# engine holds >= 2.55x. The pre-decoded operand layout (paths, ranges, and
# labels resolved at load time) is the whole point of the engine; a
# dispatch-table or operand-decode regression shows up here before it shows
# up in BENCH_native.json.
#
# Where the floor comes from. This gate replaced one that held the engine
# to >= 1.3x over the switch-loop bytecode VM (BM_MarshalFusedFromValue),
# deleted together with the VM. Measured on the VM's last tree (Release
# build, min-of-3 at --benchmark_min_time=0.2, 4-CPU Intel Xeon host):
#   BM_MarshalTwoPhaseFromValue  2509.3 ns
#   BM_MarshalFusedFromValue     1280.4 ns   (oracle/VM = 1.96x)
# The old gate, threaded >= 1.3x VM, is threaded >= 1.3 * 1.96 = 2.55x the
# oracle on the same host; 2.55 is therefore no weaker than the old floor.
#
# Also prints the native rows (threaded SIMD prologue, compiled stub) when
# present, as context — they are reported, not gated, because the compiled
# row needs a host cc and the native gap is already gated at 3x by the
# BM_MarshalNativeThreaded acceptance in bench/run_benches.sh.
set -eu

bench="${1:?usage: check_engine_tiers.sh <bench_marshal_wire>}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

"$bench" \
  --benchmark_filter='BM_MarshalTwoPhaseFromValue|BM_MarshalFusedThreaded|BM_MarshalNativeThreaded|BM_MarshalNativeCompiled' \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=false \
  --benchmark_format=json \
  --benchmark_out="$out" \
  --benchmark_out_format=json

python3 - "$out" <<'EOF'
import json, sys

FLOOR = 2.55

data = json.load(open(sys.argv[1]))
best = {}
unit = "ns"
for b in data["benchmarks"]:
    if b.get("run_type") != "iteration":
        continue
    name = b["run_name"]
    unit = b["time_unit"]
    t = b["real_time"]
    best[name] = min(best.get(name, t), t)

oracle = best.get("BM_MarshalTwoPhaseFromValue")
te = best.get("BM_MarshalFusedThreaded")
if oracle is None or te is None:
    sys.exit("FAIL: fused-marshal rows missing from benchmark output")

for name in ("BM_MarshalNativeThreaded", "BM_MarshalNativeCompiled"):
    if name in best:
        print(f"context: {name} {best[name]:.1f}{unit}")

ratio = oracle / te
print(f"fused marshal: convert+encode {oracle:.1f}{unit} threaded {te:.1f}{unit} "
      f"speedup {ratio:.2f}x")
if ratio < FLOOR:
    sys.exit(f"FAIL: threaded engine is only {ratio:.2f}x convert-then-encode "
             f"on fused marshal (floor {FLOOR}x)")
print(f"OK: threaded engine holds the {FLOOR}x floor over convert-then-encode")
EOF
