#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run one workload:
#   bash perfbench/run.sh --workload figures|fuzz|service|search \
#        --seed N --seconds S --trace 0|1
# Run from the root of a source checkout. Build output goes to stderr, so
# the last stdout line is the benchmark's JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./perfbench/main.exe ./bin/mesa_cli.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/main.exe --mesa-cli ./_build/default/bin/mesa_cli.exe "$@"
