#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs the full command twice on the
# same commit and checks that `compare` finds no regression between the two
# and that every count and accuracy metric repeats bit for bit.
#
#   benchmark/selfcheck.sh [seed]        (RUNS=3 for spread-aware verdicts)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-7}"
runs="${RUNS:-1}"
out="benchmark/out/selfcheck-seed$seed"
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
for side in a b; do
  "${bench[@]}" run --all --seed "$seed" --runs "$runs" --out "$out" --ledger "$out/$side.json"
done
"${bench[@]}" compare "$out/a.json" "$out/b.json" --exact
echo "selfcheck passed for seed $seed"
