#!/usr/bin/env bash
# Builds and runs the benchmark from anywhere in the repository.
# No arguments: every workload five times untraced and once traced,
# gathered into benchmark/out/report.json (the input of `compare`).
# Otherwise the arguments go to cnet-e2e as they are, e.g.
#   benchmark/run.sh --workload serve_next --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh trace native_closed
#   benchmark/run.sh compare parent.json change.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
