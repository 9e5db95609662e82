#!/usr/bin/env bash
# Builds the HIRE benchmark into .bench_build/ (incrementally) and runs one
# workload:
#   bash hirebench/run.sh --workload <serve_paced|serve_churn> \
#        --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target hire_bench -j 4 >&2

exec "$build/hire_bench" --scratch "$build" "$@"
