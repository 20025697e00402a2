#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (incrementally) and runs it:
#   bash lqobench/run.sh --workload plan --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to
# .bench_build/lqobench-build.log; stdout carries only the benchmark's
# own lines, the last of which is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/lqobench"
log="$root/.bench_build/lqobench-build.log"
mkdir -p "$build"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  if ! cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "$log" 2>&1; then
    cat "$log" >&2
    echo "lqobench: configure failed" >&2
    exit 1
  fi
fi
jobs="$(nproc 2> /dev/null || echo 4)"
if (( jobs > 4 )); then jobs=4; fi
if ! cmake --build "$build" --target lqobench -j "$jobs" >> "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "lqobench: build failed" >&2
  exit 1
fi
# Outside a git checkout of its own, the stamp says git=unknown rather than
# describing some enclosing repository.
describe=unknown
if [[ -e "$root/.git" ]]; then
  describe="$(git -C "$root" describe --always --dirty 2> /dev/null || echo unknown)"
fi
LQOBENCH_GIT_DESCRIBE="$describe" exec "$build/lqobench" "$@"
