#!/usr/bin/env bash
# Build the benchmark from source and run it; the arguments go to
# perf/main.exe.  Run from the repository root, e.g.
#   bash perf/run.sh --workload build --seed 1 --seconds 20 --trace 0
# The build stays in _build/ (dune's shared cache is off), and a failed
# build exits non-zero before anything is printed on standard output.
set -euo pipefail
exec dune exec --root . --cache=disabled --display quiet ./perf/main.exe -- "$@"
