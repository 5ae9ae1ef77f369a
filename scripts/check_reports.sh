#!/usr/bin/env bash
# Report determinism: runs every configs/*.json twice and fails if the two JSON
# reports differ in anything but rows[].wall_time_ms. A warning on the CLI path
# fails the run, as it fails the tier-1 tests. Needs jq.
#
# usage: scripts/check_reports.sh [command ...]    (default command: wsvie)
#   PYTHONPATH=src scripts/check_reports.sh python -m wsvie.cli
set -euo pipefail
cd "$(dirname "$0")/.."
wsvie=("${@:-wsvie}")
export PYTHONWARNINGS=error
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for cfg in configs/*.json; do
  case "$(basename "$cfg")" in
    lebesgue*) sub=lebesgue ;;
    widths*) sub=widths ;;
    oracle*) sub=oracle-check ;;
    *) sub=convergence ;;
  esac
  echo "::group::${wsvie[*]} $sub --config $cfg"
  for run in 1 2; do
    "${wsvie[@]}" "$sub" --config "$cfg" --format json --out "$tmp/report$run.json"
    jq 'del(.rows[].wall_time_ms)' "$tmp/report$run.json" > "$tmp/kept$run.json"
  done
  cat "$tmp/report1.json"
  diff "$tmp/kept1.json" "$tmp/kept2.json"
  echo "::endgroup::"
done
