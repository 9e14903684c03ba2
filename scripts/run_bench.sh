#!/bin/sh
# Runs the simulator hot-path benchmark and records the result in
# BENCH_simkernel.json at the repo root.
#
# The simkernel bench is run REPS times and the run with the fastest
# "mixed" phase is kept (best-of-N: the minimum wall time is the
# measurement least disturbed by other load on the machine). The committed
# results/bench_simkernel_baseline.json holds the pre-optimisation
# numbers the "speedup_mixed" field is computed against. The host's core
# count and the build type are recorded next to the numbers.
#
#   scripts/run_bench.sh [REPS]
set -eu

cd "$(dirname "$0")/.."
REPS="${1:-5}"

cmake -B build > /dev/null
cmake --build build --target bench_simkernel -j > /dev/null

best_json=""
best_rate=0
i=0
while [ "$i" -lt "$REPS" ]; do
  i=$((i + 1))
  json="$(./build/bench/bench_simkernel)"
  rate="$(printf '%s\n' "$json" | sed -n 's/.*"mixed".*"events_per_sec": \([0-9]*\).*/\1/p')"
  echo "rep $i/$REPS: mixed ${rate} events/sec"
  if [ "$rate" -gt "$best_rate" ]; then
    best_rate="$rate"
    best_json="$json"
  fi
done

# CMakeLists.txt builds RelWithDebInfo when no build type is configured.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)"
build_type="${build_type:-RelWithDebInfo}"

baseline_rate="$(sed -n 's/.*"mixed".*"events_per_sec": \([0-9]*\).*/\1/p' \
  results/bench_simkernel_baseline.json 2>/dev/null || echo 0)"

{
  printf '%s\n' "$best_json" | sed '$d'
  if [ "$baseline_rate" -gt 0 ]; then
    speedup="$(awk "BEGIN { printf \"%.2f\", $best_rate / $baseline_rate }")"
    printf ',\n  "baseline_mixed_events_per_sec": %s,\n' "$baseline_rate"
    printf '  "speedup_mixed": %s,\n' "$speedup"
  else
    printf ',\n'
  fi
  printf '  "host_cores": %s,\n' "$(nproc 2>/dev/null || echo 1)"
  printf '  "build_type": "%s",\n' "$build_type"
  printf '  "reps": %s\n}\n' "$REPS"
} > BENCH_simkernel.json

echo "wrote BENCH_simkernel.json (best mixed: ${best_rate} events/sec," \
     "baseline: ${baseline_rate}, see speedup_mixed)"

