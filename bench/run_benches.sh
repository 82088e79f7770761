#!/usr/bin/env sh
# Regenerates the committed benchmark baselines and checks the acceptance
# ratios they document.
#
#   bench/run_benches.sh [build-dir]
#
# Builds the benchmark binaries (Release unless the build dir already
# exists with another config) and runs them with google-benchmark's JSON
# reporter, three repetitions each; every committed row is the fastest
# repetition. The script then exits non-zero if any of these documented
# ratios fails (bench/baseline.py check prints each one): native >= 3x
# two-phase, PlanIRChoiceHeavy >= 2x TreeChoiceHeavy, fused beating
# convert-then-marshal, BatchDriverWarm >= 3x BatchDriverThreads, and the
# restart row within 5x of warm. The 2.55x engine floor and the obs budget
# have their own gates (check_engine_tiers.sh, check_obs_overhead.sh).
#
# bench/BENCH_planir.json documents the two PlanIR acceptance ratios,
# all PlanIR rows running on the PlanIR engine (runtime::ThreadedEngine):
#   * BM_PlanIRChoiceHeavy >= 2x BM_TreeChoiceHeavy (record/choice-heavy
#     conversion, engine vs. tree interpreter), and
#   * BM_FusedConvertMarshal beating BM_ConvertThenMarshal (fused
#     convert-to-wire vs. two-phase convert + encode).
#
# bench/BENCH_native.json documents the zero-copy native marshaler and
# the tiers around it:
#   * BM_MarshalNativeThreaded >= 3x BM_MarshalTwoPhaseFromHeap (the
#     acceptance ratio) with block_copies >= 1 (the byte-wide spans
#     collapse into BlockCopy) and allocs_per_op near zero;
#   * BM_MarshalTwoPhaseFromValue is the same convert + encode fed from a
#     pre-read Value;
#   * BM_MarshalFusedThreaded >= 2.55x BM_MarshalTwoPhaseFromValue (the
#     bench/check_engine_tiers.sh gate; its header derives the floor):
#     same Value, fused pre-decoded computed-goto stream;
#   * BM_MarshalNativeCompiled shows the rest of the ladder down to a
#     dlopen'd C stub (needs a host cc and is skipped without one).
#
# bench/BENCH_compare.json documents the cross-pair cache:
#   * BM_CompareClassesSoloPairs is the no-cache baseline;
#   * BM_CompareClassesCrossWarm beats both SoloPairs and CrossCold (a
#     warm CrossCache resolves every pair from the top-level memo, but
#     still pays plan materialization, so the gap is ~2x, not 10x);
#   * BM_BatchDriverWarm >= 3x BM_BatchDriverThreads — the acceptance
#     ratio. The driver's memo fast path (service::compile_pair) answers
#     verdict + compiled program from the cache without running the
#     comparer at all, so warm batch runs are orders of magnitude faster
#     than cold;
#   * BM_PersistentWarmRestart replays the same memo resolution from a
#     freshly opened --cache FILE (cold process, populated store). The
#     small-Arg rows expose the one-time per-entry disk hydration cost;
#     the Arg(20000) steady-state row carries the acceptance: per-pair
#     cost within 5x of BM_BatchDriverWarm's in-process hit, and every
#     pair must memo-resolve;
#   * BM_BatchDriverThreads/Warm at 1/2/4/8 workers (speedup is bounded by
#     the host's core count — single-core CI runners show none; the
#     invariant bench/check_batch_scaling.sh enforces is that warm time
#     does NOT regress as workers are added — the pre-chunking driver
#     was ~6x slower warm at 8 jobs than at 1);
#   * BM_BatchStreamingManifest runs end-to-end `mbird batch` over
#     synthetic 10k / 100k-pair manifests through the streaming
#     ingestion path: per-pair time must stay flat from 10k to 100k
#     (memory-bounded blocks, memo-resolved pairs).
#
# bench/BENCH_obs.json documents the observability overhead budget
# (DESIGN.md §4h): the same two hot-path bench lanes (bench_marshal_wire's
# BM_Marshal* and bench_comparer_scaling's compare-heavy set) run in the
# default build (obs compiled in, tracing disabled) and in a
# -DMBIRD_OBS_OFF=ON build (spans compiled to no-ops), merged into one
# file with per-benchmark on/off ratios. The acceptance bar is on/off
# <= 1.02 (under 2% overhead) for the disabled-tracing configuration.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

# Each baseline row is the fastest of three repetitions and carries the
# host's core count and CPU model (bench/baseline.py finalize).
finalize() {
  python3 "$repo/bench/baseline.py" finalize "$1"
  echo "wrote $1"
}

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build" -j --target bench_fitter_conversion bench_comparer_scaling bench_marshal_wire

"$build/bench/bench_fitter_conversion" \
  --benchmark_filter='MockingbirdStub|PlanIRStub|ChoiceHeavy|ConvertThenMarshal|FusedConvertMarshal' \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_format=json \
  --benchmark_out="$repo/bench/BENCH_planir.json" \
  --benchmark_out_format=json

finalize "$repo/bench/BENCH_planir.json"

"$build/bench/bench_comparer_scaling" \
  --benchmark_filter='SoloPairs/100|CrossCold/100|CrossWarm/100|BatchDriver|BatchStreamingManifest|PersistentWarmRestart' \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_format=json \
  --benchmark_out="$repo/bench/BENCH_compare.json" \
  --benchmark_out_format=json

finalize "$repo/bench/BENCH_compare.json"

"$build/bench/bench_marshal_wire" \
  --benchmark_filter='BM_Marshal' \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_format=json \
  --benchmark_out="$repo/bench/BENCH_native.json" \
  --benchmark_out_format=json

finalize "$repo/bench/BENCH_native.json"

# ---- observability overhead lane -------------------------------------------
# Same sources, two configurations: the default build above (obs compiled
# in, tracing disabled — the shipping configuration) against an
# MBIRD_OBS_OFF build (spans are no-op structs). Both runs use fixed
# filters over the two nanosecond-hot lanes the obs hooks sit on.
build_off="$repo/build-obs-off"
if [ ! -f "$build_off/CMakeCache.txt" ]; then
  cmake -S "$repo" -B "$build_off" -DCMAKE_BUILD_TYPE=Release -DMBIRD_OBS_OFF=ON
fi
cmake --build "$build_off" -j --target bench_comparer_scaling bench_marshal_wire

obs_filter_marshal='BM_Marshal'
obs_filter_compare='SoloPairs/100|CrossWarm/100'

run_obs_lane() {
  # $1 = build dir, $2 = tag (on|off), $3 = round
  "$1/bench/bench_marshal_wire" \
    --benchmark_filter="$obs_filter_marshal" \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=3 \
    --benchmark_format=json \
    --benchmark_out="$repo/bench/.obs_m_$2_$3.json" \
    --benchmark_out_format=json
  "$1/bench/bench_comparer_scaling" \
    --benchmark_filter="$obs_filter_compare" \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=2 \
    --benchmark_format=json \
    --benchmark_out="$repo/bench/.obs_c_$2_$3.json" \
    --benchmark_out_format=json
}

# Interleave whole-process rounds of each configuration; merge_obs.py takes
# the per-benchmark min. Back-to-back single runs let slow ambient drift
# (thermal / frequency scaling) masquerade as overhead at the ns scale;
# alternating rounds expose both builds to the same conditions.
obs_on_files=""
obs_off_files=""
for round in 1 2 3 4; do
  run_obs_lane "$build" on "$round"
  run_obs_lane "$build_off" off "$round"
  obs_on_files="$obs_on_files $repo/bench/.obs_m_on_$round.json $repo/bench/.obs_c_on_$round.json"
  obs_off_files="$obs_off_files $repo/bench/.obs_m_off_$round.json $repo/bench/.obs_c_off_$round.json"
done

# shellcheck disable=SC2086  # the file lists are intentionally split
python3 "$repo/bench/merge_obs.py" $obs_on_files $obs_off_files \
  > "$repo/bench/BENCH_obs.json"
rm -f "$repo"/bench/.obs_m_*.json "$repo"/bench/.obs_c_*.json

finalize "$repo/bench/BENCH_obs.json"

# Last, so every baseline is written even when a ratio fails: exit non-zero
# if any acceptance ratio documented above does not hold.
python3 "$repo/bench/baseline.py" check "$repo/bench"
