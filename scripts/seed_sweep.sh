#!/usr/bin/env bash
# seed_sweep.sh — checks that every seed in a range reproduces the paper's
# headline counts end to end. Run from the repository root:
#
#   bash scripts/seed_sweep.sh [from] [to]     (default 1 1024)
#
# It builds cmd/avpipe once, runs it on each seed, and lists every seed
# whose consolidated database misses the paper's 42 accidents or whose
# disengagement count falls outside ±10% of 5,328. It exits 1 if any seed
# misses, 0 otherwise. A sweep of 1..1024 takes about a minute and a half
# on 2 vCPUs.
set -euo pipefail

from=${1:-1}
to=${2:-1024}
want_accidents=42
want_diseng=5328

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
go build -o "$tmp/avpipe" ./cmd/avpipe

misses=0
for seed in $(seq "$from" "$to"); do
	# avpipe prints "  <n> disengagements, <m> accidents" for Stage IV.
	line=$("$tmp/avpipe" -seed "$seed" | grep -E '^ +[0-9]+ disengagements, [0-9]+ accidents$' || true)
	read -r diseng _ accidents _ <<<"$line"
	if [ -z "$line" ] || ((accidents != want_accidents ||
		diseng * 10 < want_diseng * 9 || diseng * 10 > want_diseng * 11)); then
		echo "seed $seed:${line:- no Stage IV summary} (want $want_accidents accidents, $want_diseng ±10% disengagements)"
		misses=$((misses + 1))
	fi
done
echo "seed_sweep: $misses of $((to - from + 1)) seeds miss"
[ "$misses" -eq 0 ]
