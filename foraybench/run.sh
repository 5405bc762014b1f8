#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds foraybench from source (the
# first run in a checkout compiles it) and runs it from the checkout root,
# passing every argument through, e.g.
#   bash foraybench/run.sh --workload extract-suite --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . -- ./foraybench/foraybench.exe "$@"
