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
alg1 64 21 - 16000 - 1010b94216486ef5de23619cf3254954fd37093b7d775d5d428473f3d894847e
alg1 127 42 - 13500 - 80c7508b35127234c3f96d426852179c2db599d0bb1cc1d66719997bc15bea2f
alg1 255 84 - 12500 - afec682bd46b1523a501d5edab8b18303c4a84e382591170adca2a953680f62a
alg2 255 84 128 185000 - 09dc9b9db8178be59c2d807a20f17fc4ce70b987bdb3db01813e30734771999e
alg1 255 84 - 350000 tests/scale/alg1_n255_t84.json ec2f1a853cc2462648dceb2888c6c21c9b55d6e136cf300c19ebb59167f585d5
alg2 127 42 64 285000 tests/scale/alg2_n127_t42_q64.json 2e7411b01dec2b45ece48945a63ed74a8ef87386657b7c36a95bc45eafe13e6e
alg2 255 84 128 625000 tests/scale/alg2_n255_t84_q128.json bbed0acaa2589a214d917c4ed1ff056d52ce98f2a810d6948a6183ac07336adc
EOF
echo "scale: $checked transcripts within their limits and matching their pinned SHA-256"
