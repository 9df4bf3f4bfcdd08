#!/usr/bin/env bash
# Deliberate regeneration — or verification — of the golden CSV files in
# this directory.
#
# The golden tests (tests/runner_golden_csv_test.cc) byte-compare serially
# produced grid CSVs against:
#
#   golden_smoke_grid.csv     the legacy default-pipeline grid — its bytes
#                             date back to the pre-scenario tree and prove
#                             the old arms stay untouched; regenerate it
#                             ONLY when a default-pipeline output change is
#                             intended, and say so in the commit message;
#   golden_planning_grid.csv  the scenario-conditioned planning-arm grid
#                             (scenario column + acs-scenario/mixture
#                             rows).
#
# Both grids are defined once in src/runner/golden_grids.h.
#
# Usage (from the repo root, after building):
#
#   tests/data/regenerate_golden.sh [--check] [build-dir] [gtest-filter]
#
# Defaults: build-dir "build", filter the planning golden only.  To also
# regenerate the legacy golden, pass '*GoldenCsv*' as the filter.
#
# --check runs BOTH golden tests without touching the checked-in files and
# fails on any byte difference — the CI lane that proves the working tree
# still reproduces its own goldens (a solver or warm-start default
# accidentally changing bytes trips here).
set -euo pipefail

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi

build_dir="${1:-build}"
filter="${2:-*SerialPlanningGridByteMatchesCheckedInFile*}"

if [[ ! -x "${build_dir}/runner_golden_csv_test" ]]; then
  echo "error: ${build_dir}/runner_golden_csv_test not built" >&2
  exit 1
fi

if [[ "${check}" == 1 ]]; then
  # Verify only: the tests compare, never overwrite.
  "${build_dir}/runner_golden_csv_test" \
    --gtest_filter='*GoldenCsv*'
  echo "goldens verified byte-identical"
  exit 0
fi

ACS_REGENERATE_GOLDEN=1 "${build_dir}/runner_golden_csv_test" \
  --gtest_filter="${filter}"
echo "done; review the diff under tests/data/ before committing"
