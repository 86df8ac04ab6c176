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
alg1 64 21 - 4300 - 59d1643032b126eb900086ca37b8968522c8e7784a31656ef4c0c1acfaa471b6
alg1 127 42 - 5100 - 7c24f9e363cd01561ba7c802a0e18799d8723eda8b497cea928f58279239eea4
alg1 255 84 - 6800 - d3f6bd7c6d331116816a10262215394b55ac563d6172ca1fd1b27c8633e75a0f
alg2 255 84 128 7700 - b1f91dcd703989aff697eaccff73c57a9e8674ff0d711ea65650991df51a47f7
alg1 255 84 - 200000 tests/scale/alg1_n255_t84.json c9da85834ee47bd2ce70ffc39333f56af06f275653a32a10d26b635d9eecce2f
alg2 127 42 64 240000 tests/scale/alg2_n127_t42_q64.json b56680c4cfb6243a383b44cdb9aaabcb2bc90b5347a9f6ce85ae4fa010b0520d
alg2 255 84 128 465000 tests/scale/alg2_n255_t84_q128.json d78e327209050bbf5329442466a2b09ffb0243b6e612e1594ba27f885d844346
EOF
echo "scale: $checked transcripts within their limits and matching their pinned SHA-256"
