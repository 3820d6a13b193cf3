#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build product inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
