#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash perfbench/run.sh --workload spec-serial --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh --self-check
# Run from the root of a checkout; build output goes to stderr, and the
# build stays inside the checkout (no shared dune cache).
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib/workloads ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: not at the root of a riscyoo checkout (need dune-project, lib/ and perfbench/)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
