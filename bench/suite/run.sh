#!/usr/bin/env bash
# Build and run the performance suite (see bench/suite/README.md).
#
#   bench/suite/run.sh [--workload W] [--seed N] [--trace [0|1]] [--repeat K]
#                      [--smoke] [--seconds S]
#
# suite.py runs the selected workloads, one process each, and summarises;
# with one workload its last output line is that workload's JSON result.
# Every run measures for run_seconds from BENCHMARK.json; --seconds, part of
# the calling convention of BENCHMARK.json's command, must equal it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"

if [ ! -f src/p2p/universe.hpp ]; then
  echo "run.sh: no mpicd source tree at $root/src; run from a full checkout" >&2
  exit 2
fi

# Pinned environment: no library knob may leak in from the shell, and
# glibc's dynamic mmap threshold must not move under the 128 KiB ndarray
# buffers the pickle workload allocates on every receive.
while IFS= read -r var; do
  unset "$var"
done < <(compgen -e | grep '^MPICD_' || true)
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=268435456

build=build/suite
mkdir -p "$build"
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
if ! {
  { [ -f "$build/CMakeCache.txt" ] || cmake -S bench/suite -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
    cmake --build "$build" -j "$jobs"
} > "$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 1
fi

exec python3 bench/suite/suite.py --driver "$build/suite_driver" --out "$build" "$@"
