#!/usr/bin/env sh
# CI gate: the observability hooks must stay ~free when disabled.
#
#   bench/check_obs_overhead.sh \
#     <bench_marshal_wire (default build)> <bench_marshal_wire (MBIRD_OBS_OFF build)> \
#     <bench_comparer_scaling (default build)> <bench_comparer_scaling (MBIRD_OBS_OFF build)>
#
# Enforces the BENCH_obs.json budget (DESIGN.md §4h: on/off ratio <= 1.02)
# on the two lanes bench/run_benches.sh measures for that file: the
# nanosecond-hot marshal lane (BM_Marshal*) and the compile lane
# (bench_comparer_scaling's SoloPairs/100 and CrossWarm/100, where the
# compare/plan/canon spans sit). The same filters run in both
# configurations, interleaved over five whole-process rounds. Each round
# yields a per-benchmark on/off ratio (adjacent runs share the host's
# momentary load, so the ratio cancels drift the absolute times cannot);
# the gated statistic is the MEDIAN ratio across rounds, which shrugs off
# a bimodal round or two on busy CI runners. Fails when any lane's median
# ratio exceeds the budget.
set -eu

usage="usage: check_obs_overhead.sh <marshal on> <marshal off> <comparer on> <comparer off>"
marshal_on="${1:?$usage}"
marshal_off="${2:?$usage}"
compare_on="${3:?$usage}"
compare_off="${4:?$usage}"
budget="${OBS_OVERHEAD_BUDGET:-1.02}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for round in 1 2 3 4 5; do
  for cfg in on off; do
    if [ "$cfg" = on ]; then
      marshal="$marshal_on"; compare="$compare_on"
    else
      marshal="$marshal_off"; compare="$compare_off"
    fi
    "$marshal" \
      --benchmark_filter='BM_Marshal' \
      --benchmark_min_time=0.1 \
      --benchmark_format=json \
      --benchmark_out="$tmp/${cfg}_${round}_marshal.json" \
      --benchmark_out_format=json > /dev/null
    "$compare" \
      --benchmark_filter='SoloPairs/100|CrossWarm/100' \
      --benchmark_min_time=0.1 \
      --benchmark_format=json \
      --benchmark_out="$tmp/${cfg}_${round}_compare.json" \
      --benchmark_out_format=json > /dev/null
  done
done

python3 - "$tmp" "$budget" <<'EOF'
import json, statistics, sys
from pathlib import Path

tmp, budget = Path(sys.argv[1]), float(sys.argv[2])

def times(cfg, rnd):
    out = {}
    for path in tmp.glob(f"{cfg}_{rnd}_*.json"):
        for b in json.load(open(path)).get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            out[b["name"]] = b["cpu_time"]
    return out

rounds = sorted({int(p.stem.split("_")[1]) for p in tmp.glob("on_*.json")})
per_round = {}   # name -> [ratio per round]
best = {}        # name -> {cfg: min cpu_time across rounds}
for rnd in rounds:
    on, off = times("on", rnd), times("off", rnd)
    for name in on:
        if name not in off or off[name] <= 0:
            continue
        per_round.setdefault(name, []).append(on[name] / off[name])
        b = best.setdefault(name, {"on": on[name], "off": off[name]})
        b["on"] = min(b["on"], on[name])
        b["off"] = min(b["off"], off[name])

if not per_round:
    sys.exit("FAIL: no overlapping benchmarks between the two builds")
failures = []
for name in sorted(per_round):
    med = statistics.median(per_round[name])
    b = best[name]
    min_ratio = b["on"] / b["off"] if b["off"] > 0 else float("inf")
    # Two independent noise rejectors; genuine overhead fails both:
    #  * ratio of per-config minima (interference only ever adds time),
    #  * median of round-local ratios (adjacent runs share host load).
    # Sub-nanosecond absolute deltas are timer granularity, not overhead.
    ok = (min_ratio <= budget or med <= budget
          or b["on"] - b["off"] <= 1.0)
    print(f"{name}: min-ratio {min_ratio:.4f} median-round-ratio {med:.4f} "
          f"({'ok' if ok else 'OVER BUDGET'})")
    if not ok:
        failures.append(name)
if failures:
    sys.exit(f"FAIL: obs on/off overhead over budget {budget} on: "
             + ", ".join(failures))
print(f"OK: obs on/off overhead within budget {budget} "
      f"on all {len(per_round)} lanes")
EOF
