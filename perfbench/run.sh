#!/usr/bin/env bash
# Build pdfatpg and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  The last stdout line is the JSON result.
set -euo pipefail
dune build --root . ./bin/pdfatpg.exe ./perfbench/pdfbench.exe 1>&2
# One malloc arena: with glibc's per-thread arenas the peak RSS of the
# two-domain portfolio run is bimodal (23 or 28 MB), depending on which
# domain first allocates outside the OCaml heap.
export MALLOC_ARENA_MAX=1
exec ./_build/default/perfbench/pdfbench.exe \
  --pdfatpg ./_build/default/bin/pdfatpg.exe "$@"
