#!/usr/bin/env bash
# Build dmbench from the sources of this checkout, then run it with the
# given arguments, for example
#
#   bash bench/e2e/run.sh --workload serve-b64 --seed 3 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is dmbench's
# JSON result.  A checkout without the library sources fails the build
# and exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/dmbench.exe 1>&2
exec ./_build/default/bench/e2e/dmbench.exe "$@"
