#!/usr/bin/env bash
# One benchmark run, from the root of a source checkout:
#
#   bash benchsuite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the suite and the daemon from source, runs the workload and
# prints its one-line JSON result last on stdout (build output goes to
# stderr).  Exits 2 without a result when the sources are missing.
set -eu

for need in dune-project bin/hsched.ml lib benchsuite/dune BENCHMARK.json; do
  if [ ! -e "$need" ]; then
    echo "run.sh: $need not found; run this from the root of a source checkout" >&2
    exit 2
  fi
done

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet benchsuite/suite.exe bin/hsched.exe 1>&2
exec ./_build/default/benchsuite/suite.exe workload "$@"
