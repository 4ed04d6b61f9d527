#!/usr/bin/env bash
# Build and run the benchmark from the root of a checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result JSON is the last line of stdout.
# Scratch files (the native executor's generated units, traced runs'
# Chrome traces) stay under .perfbench/ in the checkout.
set -euo pipefail

dune build --root . ./perfbench/main.exe 1>&2

mkdir -p .perfbench
scratch=$(mktemp -d .perfbench/tmp.XXXXXX)
status=0
TMPDIR="$PWD/$scratch" ./_build/default/perfbench/main.exe "$@" || status=$?
rm -rf "$scratch"
exit "$status"
