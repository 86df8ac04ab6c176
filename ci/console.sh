#!/usr/bin/env bash
# The console script end to end: every scenario, three sweeps, the
# acceptance battery and the inputs that must exit 2.
#
# Usage: bash ci/console.sh, from the root of the repository.
#   CODEDBFT  the command to run (default: codedbft), e.g.
#             CODEDBFT="python -m codedbft.cli" with PYTHONPATH=src
#   OUT       where runs write (default: $RUNNER_TEMP)
set -euo pipefail
CODEDBFT=${CODEDBFT:-codedbft}
OUT=${OUT:-$RUNNER_TEMP}

for scenario in scenarios/*.json; do
  $CODEDBFT run "$scenario" --out-dir "$OUT/out" \
    || { echo "::error::$scenario did not exit 0"; exit 1; }
done
$CODEDBFT sweep --n 4 --t 1 --trials 20 --out-dir "$OUT/sweep" \
  || { echo "::error::sweep did not exit 0"; exit 1; }
rows=$(wc -l < "$OUT/sweep/summary.csv")
if [ "$rows" -ne 21 ]; then
  echo "::error::sweep summary.csv has $rows lines, expected 21"
  exit 1
fi
# quiet stretches of random scripts, and the steps that cut them
$CODEDBFT sweep --n 7 --t 2 --trials 300 --out-dir "$OUT/sweep-n7" \
  || { echo "::error::n=7 sweep did not exit 0"; exit 1; }
rows=$(wc -l < "$OUT/sweep-n7/summary.csv")
if [ "$rows" -ne 301 ]; then
  echo "::error::n=7 sweep summary.csv has $rows lines, expected 301"
  exit 1
fi
# alg2 diagnosis end to end: 200 trials for each q in 3..5
$CODEDBFT sweep --alg alg2 --n 7 --t 2 --q 3..5 --trials 200 \
  --out-dir "$OUT/sweep-alg2" \
  || { echo "::error::alg2 sweep did not exit 0"; exit 1; }
rows=$(wc -l < "$OUT/sweep-alg2/summary.csv")
if [ "$rows" -ne 601 ]; then
  echo "::error::alg2 sweep summary.csv has $rows lines, expected 601"
  exit 1
fi
$CODEDBFT acceptance > "$OUT/acceptance.txt" \
  || { cat "$OUT/acceptance.txt"; echo "::error::acceptance did not exit 0"; exit 1; }
cat "$OUT/acceptance.txt"
passed=$(grep -c '^criterion [1-9] PASS' "$OUT/acceptance.txt" || true)
if [ "$passed" -ne 9 ]; then
  echo "::error::acceptance printed $passed PASS lines, expected 9"
  exit 1
fi
# each row must exit 2: description|command
refused=0
while IFS='|' read -r description command; do
  status=0
  eval "$command" < /dev/null || status=$?
  if [ "$status" -ne 2 ]; then
    echo "::error::$description exited $status, expected 2"
    exit 1
  fi
  refused=$((refused + 1))
done <<'EOF'
inconsistent --t|$CODEDBFT run scenarios/n4.json --t 2 --out-dir "$OUT/out"
--faulty next to a crafted case|$CODEDBFT run scenarios/corrupt_once.json --faulty 2 --out-dir "$OUT/out"
misspelled config key|$CODEDBFT replay tests/cases/misspelled_config_key.json
misspelled script key|$CODEDBFT replay tests/cases/misspelled_script_key.json
retired config key|$CODEDBFT replay tests/cases/retired_config_key.json
script rule that is not an object|$CODEDBFT replay tests/cases/script_rule_not_an_object.json
empty --q range|$CODEDBFT sweep --alg alg2 --n 7 --t 2 --q 5..3 --out-dir "$OUT/out"
misspelled scenario key|$CODEDBFT run tests/cases/misspelled_scenario_key.json --out-dir "$OUT/out"
misspelled inputs generator key|$CODEDBFT run tests/cases/misspelled_inputs_key.json --out-dir "$OUT/out"
bool faulty id|$CODEDBFT run tests/cases/faulty_id_bool.json --out-dir "$OUT/out"
string inputs seed|$CODEDBFT run tests/cases/inputs_seed_string.json --out-dir "$OUT/out"
string expected outcome_kinds|$CODEDBFT run tests/cases/outcome_kinds_string.json --out-dir "$OUT/out"
script rule that can never fire|$CODEDBFT run tests/cases/script_rule_out_of_range.json --out-dir "$OUT/out"
three-part send rule key|$CODEDBFT run tests/cases/script_rule_key_short.json --out-dir "$OUT/out"
faulty that is not a list|$CODEDBFT run tests/cases/faulty_not_a_list.json --out-dir "$OUT/out"
EOF
echo "console: $(ls scenarios/*.json | wc -l) scenarios exit 0, sweeps of 20, 300 and 600 runs, 9/9 criteria, $refused refusals exit 2"
