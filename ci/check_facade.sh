#!/usr/bin/env bash
# Facade enforcement: the concurrency substrate must import its
# primitives from the wrm_mc facade (wrm_mc::sync / wrm_mc::thread),
# never from std directly — otherwise the model checker cannot see the
# operations and the model-check suites silently stop covering them.
#
# Covered paths: the serve substrate, all of wrm-sim (whose one
# scoped fan-out claims sweep columns, run_all scenarios and Monte-Carlo
# replications through ChunkClaim), and the vendored crossbeam channel. Allowed std escapes: std::sync::Arc,
# std::sync::mpsc (no blocking protocol of ours to model), and
# non-spawning std::thread items (available_parallelism, scope,
# ScopedJoinHandle). crates/mc itself is exempt: it IS the facade.
#
# See docs/CONCURRENCY.md.
set -euo pipefail
cd "$(dirname "$0")/.."

paths=(crates/serve/src crates/sim/src vendor/crossbeam/src)
pattern='std::sync::(Mutex|Condvar|atomic)'
pattern+='|std::thread::(spawn|Builder|JoinHandle)'
pattern+='|use std::sync::\{[^}]*(Mutex|Condvar)'
pattern+='|use std::thread::\{[^}]*(spawn|Builder|JoinHandle)'

if grep -rnE "$pattern" "${paths[@]}"; then
  echo >&2
  echo "facade lint: direct std concurrency primitive(s) found above." >&2
  echo "Import Mutex/Condvar/atomics from wrm_mc::sync and spawn via" >&2
  echo "wrm_mc::thread so the model checker covers them (docs/CONCURRENCY.md)." >&2
  exit 1
fi

echo "facade lint: OK (${paths[*]})"
