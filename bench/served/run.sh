#!/usr/bin/env bash
# Builds the served benchmark from the source checkout in the current
# directory and runs it with the given arguments:
#
#   bash bench/served/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a full checkout (dune-project and lib/ present);
# elsewhere it exits with status 2 before building anything.  Build output
# goes to _build/ and dune's shared cache stays off, so nothing is written
# outside the checkout.  Only the benchmark's JSON result reaches stdout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bench/served/dune ]]; then
  echo "run.sh: not the root of a source checkout (need dune-project, lib/, bench/served/)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . ./bench/served/served.exe 1>&2
exec ./_build/default/bench/served/served.exe "$@"
