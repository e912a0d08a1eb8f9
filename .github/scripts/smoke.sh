#!/usr/bin/env bash
# Runs a perf-gated command, taking the best of three attempts: shared
# runners spike, so noise passes on a retry while a real regression
# fails all three.
#
# usage: .github/scripts/smoke.sh <command> [args...]
set -u
for attempt in 1 2 3; do
  if "$@"; then
    exit 0
  fi
  echo "smoke attempt $attempt failed: $*"
done
exit 1
