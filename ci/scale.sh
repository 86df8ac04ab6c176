#!/usr/bin/env bash
# Scale check: alg1 up to n=255 and alg2 at n=255 fault-free, alg1 n=255,
# alg2 n=127 and alg2 n=255 under committed scripts. Each transcript's
# size is gated and its SHA-256 pinned; time is printed, not gated.
#
# Usage: bash ci/scale.sh, from the root of the repository.
#   CODEDBFT  the command to run (default: codedbft), e.g.
#             CODEDBFT="python -m codedbft.cli" with PYTHONPATH=src
#   OUT       where runs write (default: $RUNNER_TEMP)
set -euo pipefail
CODEDBFT=${CODEDBFT:-codedbft}
OUT=${OUT:-$RUNNER_TEMP}

# algorithm n t q transcript-byte limit script (-: fault-free) transcript SHA-256
checked=0
while read -r alg n t q limit script digest; do
  out="$OUT/scale-$alg-$n"
  qflag=""
  if [ "$q" != "-" ]; then qflag="--q $q"; fi
  sflag=""
  if [ "$script" != "-" ]; then sflag="--script $script"; fi
  TIMEFORMAT="$alg n=$n t=$t script=$script wall time %R s"
  time $CODEDBFT run --alg "$alg" --n "$n" --t "$t" $qflag $sflag --l-bits 8192 \
    --out-dir "$out" < /dev/null > /dev/null \
    || { echo "::error::scale run $alg n=$n t=$t script=$script did not exit 0"; exit 1; }
  bytes=$(wc -c < "$out/transcript.jsonl")
  echo "$alg n=$n t=$t script=$script transcript $bytes B"
  # transcript size is deterministic, so it is gated; time is not
  if [ "$bytes" -gt "$limit" ]; then
    echo "::error::$alg n=$n script=$script transcript is $bytes B, over $limit B"
    exit 1
  fi
  # every run's bytes are pinned whole, so a refactor cannot move them
  got=$(sha256sum < "$out/transcript.jsonl" | cut -d' ' -f1)
  if [ "$got" != "$digest" ]; then
    echo "::error::$alg n=$n script=$script transcript SHA-256 $got, expected $digest"
    exit 1
  fi
  checked=$((checked + 1))
done <<'EOF'
alg1 64 21 - 4300 - 0ef29de4213795ddd909d0aa1836e0a5013bcfba38bbaebd8f2e27f5b271eee7
alg1 127 42 - 5100 - a6c8dfd54c8344d26c6d36cd773898d62112270254ef148473b83f3b5188878d
alg1 255 84 - 6800 - edfea845ce70946d9eff7a6ff5744355e5e889e78def5a53b637354f1d323040
alg2 255 84 128 7700 - 1eacd086b8b754dddbf6129c3b940b92fbf3acb49a4c6ba01ea433944b111f25
alg1 255 84 - 200000 tests/scale/alg1_n255_t84.json f1b6af0e61a86edba55220ea0fd1ba8f5b6117763142d7fb14f6be49196ce3d9
alg2 127 42 64 240000 tests/scale/alg2_n127_t42_q64.json feb37ff1eda5b9786a76569ecda6a116f6e5451d417279d647cd2fb4061286bd
alg2 255 84 128 465000 tests/scale/alg2_n255_t84_q128.json 82b5f3c86aceff510df74157fca5482f671b0d06f98ae8ef43c45a2300ac916b
EOF
echo "scale: $checked transcripts within their limits and matching their pinned SHA-256"
