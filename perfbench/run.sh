#!/usr/bin/env bash
# Build the benchmark from source and run it.  From the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-check
#   bash perfbench/run.sh --describe
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a source checkout" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout: keep it off.
dune build --root . --cache=disabled --profile release ./perfbench/main.exe 1>&2

# Record the revision when the checkout is a git work tree (and never
# pick up a repository above it).
PERFBENCH_GIT_REV=$(GIT_CEILING_DIRECTORIES="$(cd .. && pwd)" \
  git rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_GIT_REV

exec ./_build/default/perfbench/main.exe "$@"
