#!/bin/sh
# Regenerates results/coverage_smoke.{csv,json}, the desk-scale coverage
# study of acceptance criterion 7: scenarios 1, 5, 17 and 21, 200
# replications, B = inner_B = 200, seed 1.
#
# Usage: sh scripts/run_coverage_study.sh [scenario ...]
#
# With no arguments all four scenarios run. Scenario streams are keyed by
# scenario id, so running scenarios one at a time with the same seed is
# identical to a single combined run. Each scenario is its own invocation
# and writes results/partial_s<id>.{csv,json}, so an interruption loses at
# most one scenario, and a rerun may name only the scenarios still missing.
# The merge step always combines the four partial files.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# No OPENBLAS_NUM_THREADS: `simulate` pins each of its processes to one BLAS
# thread itself.
if [ $# -eq 0 ]; then
  set -- 1 5 17 21
fi
for id in "$@"; do
  python3 -m bootval.cli simulate --scenarios "$id" --seed 1 \
    --output-prefix "results/partial_s$id" 2>> results/coverage_run.log
done
python3 - <<'PY'
import json
rows, header = [], None
for sid in (1, 5, 17, 21):
    with open(f"results/partial_s{sid}.csv") as fh:
        lines = fh.read().splitlines()
    header = lines[0]
    rows.extend(lines[1:])
with open("results/coverage_smoke.csv", "w") as fh:
    fh.write("\n".join([header] + rows) + "\n")
merged = None
for sid in (1, 5, 17, 21):
    with open(f"results/partial_s{sid}.json") as fh:
        part = json.load(fh)
    if merged is None:
        merged = part
    else:
        merged["results"].extend(part["results"])
merged["meta"]["scenarios"] = [1, 5, 17, 21]
with open("results/coverage_smoke.json", "w") as fh:
    fh.write(json.dumps(merged, indent=2, sort_keys=True) + "\n")
print("merged coverage_smoke.{csv,json}")
PY
