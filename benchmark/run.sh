#!/usr/bin/env bash
# Serving benchmark for NEC. Builds the repository and the driver (two
# stages, into build-benchmark/), then either runs one workload or hands the
# multi-run modes to bench.py.
#
#   benchmark/run.sh                                 all four workloads, untraced
#   benchmark/run.sh --workload rooms --seed 3 --seconds 15 --trace 0
#   benchmark/run.sh --trace                         probe + traced workloads
#   benchmark/run.sh --repeat 10 [--seed-base B] [--out FILE]
#                                                    medians/quartiles vs bounds
#   benchmark/run.sh --compare a.json b.json         medians agree within bounds?
#   benchmark/run.sh --smoke                         ~3 s per workload, name check
#   benchmark/run.sh --self-test                     corrupted reference must fail
#
# Everything it writes stays under build-benchmark/ in the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no NEC source tree at $root" >&2
  exit 2
fi

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"  # compilers and children write scratch here

stamp="$build/.built"
needs_build=1
if [[ -f "$stamp" && -x "$build/driver/nec_bench" && -x "$build/examples/necd" ]]; then
  newer="$(find "$root/src" "$root/examples" "$root/CMakeLists.txt" "$here" \
            -newer "$stamp" -print -quit)"
  [[ -z "$newer" ]] && needs_build=0
fi
if (( needs_build )); then
  jobs="$(nproc 2>/dev/null || echo 2)"
  log="$build/build.log"
  echo "run.sh: building (log: $log)" >&2
  if ! {
    # Unix Makefiles: the driver's stage reads the compile flags from them.
    cmake -S "$root" -B "$build" -G "Unix Makefiles" \
      -DCMAKE_BUILD_TYPE=Release -DNEC_BUILD_TESTS=OFF -DNEC_BUILD_BENCH=OFF &&
    cmake --build "$build" --target necd -j "$jobs" &&
    cmake -S "$here" -B "$build/driver" -DNEC_BUILD_TREE="$build" &&
    cmake --build "$build/driver" -j "$jobs"
  } >"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "run.sh: build failed" >&2
    exit 2
  fi
  touch "$stamp"
fi

export NEC_BENCH_BIN="$build/driver/nec_bench"
export NEC_BENCH_NECD="$build/examples/necd"
export NEC_BENCH_OUT="$build/out"
mkdir -p "$NEC_BENCH_OUT"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$NEC_BENCH_BIN" --necd "$NEC_BENCH_NECD" --out "$NEC_BENCH_OUT" "$@"
  fi
done
exec python3 "$here/bench.py" "$@"
