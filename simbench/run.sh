#!/usr/bin/env bash
# Builds simbench from this checkout's sources and runs it with the given
# arguments, e.g.
#   bash simbench/run.sh --workload claims --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so stdout carries only simbench's report.
# Run from anywhere; the checkout root is the parent of this directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./simbench/simbench.exe 1>&2
exec ./_build/default/simbench/simbench.exe "$@"
