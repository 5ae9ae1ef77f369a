#!/usr/bin/env bash
# Compares the reports of two revisions: runs every configs/*.json of the working
# tree with the package of revision REV (extracted with git archive into a
# temporary directory) and with the working tree's, and prints per config either
# "identical but for wall_time_ms" or, per numeric field (array indices folded
# into []), the largest absolute difference between the two reports. Needs jq.
#
# usage: scripts/compare_reports.sh REV
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/compare_reports.sh REV}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$rev" src | tar -x -C "$tmp/rev"
export PYTHONWARNINGS=error
for cfg in configs/*.json; do
  case "$(basename "$cfg")" in
    lebesgue*) sub=lebesgue ;;
    widths*) sub=widths ;;
    oracle*) sub=oracle-check ;;
    *) sub=convergence ;;
  esac
  for side in rev work; do
    src=$([ "$side" = rev ] && echo "$tmp/rev/src" || echo src)
    PYTHONPATH="$src" python -m wsvie.cli "$sub" --config "$cfg" --format json \
      --out "$tmp/$side.json" > /dev/null
    jq 'del(.rows[].wall_time_ms)' "$tmp/$side.json" > "$tmp/$side.kept.json"
  done
  if cmp -s "$tmp/rev.kept.json" "$tmp/work.kept.json"; then
    echo "$cfg: identical but for wall_time_ms"
    continue
  fi
  echo "$cfg: largest absolute difference per numeric field"
  jq -rn --slurpfile a "$tmp/rev.kept.json" --slurpfile b "$tmp/work.kept.json" '
    [$a[0] | paths(numbers)] as $paths
    | if ($paths != [$b[0] | paths(numbers)]) then "  the reports differ in structure"
      else [$paths[] as $p
            | {field: ($p | map(if type == "number" then "[]" else "." + . end) | add),
               diff: (($a[0] | getpath($p)) - ($b[0] | getpath($p)) | if . < 0 then -. else . end)}]
           | group_by(.field)[] | "  \(.[0].field) \(map(.diff) | max)"
      end'
done
