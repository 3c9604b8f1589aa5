#!/usr/bin/env bash
# Golden smoke test: the byte-identity yardstick for refactors. Builds the
# four research CLIs, runs the small-scale tables, figures, simulations and
# campaign below, and diffs each stdout against its text golden under
# testdata/golden/. The pawscamp -json report must equal CAMPAIGN_env.json.
# Fig. 9 prints wall-clock solve times, so its runtime column is masked
# before the diff; it is the only CLI run of branch and bound and takes
# ~75-105 s of the script's time on a 2-vCPU machine. Used by CI and
# runnable locally from the repo root:
#
#	./scripts/golden_smoke.sh          # compare against the goldens
#	./scripts/golden_smoke.sh -update  # rewrite the goldens from this tree
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "-update" ]]; then
  UPDATE=1
fi

GOLDEN=testdata/golden
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

for cli in pawstables pawsfigs pawssim pawscamp; do
  go build -o "$WORKDIR/$cli" "./cmd/$cli"
done

FAILED=0

# compare GOT WANT: diff a fresh output against its golden, or replace the
# golden under -update.
compare() {
  if ((UPDATE)); then
    mkdir -p "$(dirname "$2")"
    cp "$1" "$2"
  elif ! diff -u "$2" "$1"; then
    echo "FAIL: output differs from $2"
    FAILED=1
  fi
}

# check NAME CLI ARGS...: run one CLI and compare its stdout with
# $GOLDEN/NAME.txt.
check() {
  local name=$1 cli=$2
  shift 2
  "$WORKDIR/$cli" "$@" >"$WORKDIR/$name.txt"
  compare "$WORKDIR/$name.txt" "$GOLDEN/$name.txt"
}

for t in 1 2 3; do
  check "pawstables_table$t" pawstables -table "$t" -scale small
done
for f in 4 6 7 8 10; do
  check "pawsfigs_fig$f" pawsfigs -fig "$f" -scale small
done
"$WORKDIR/pawsfigs" -fig 9 -scale small | awk -F, 'NF==4{$2="-"}1' OFS=, >"$WORKDIR/pawsfigs_fig9.txt"
compare "$WORKDIR/pawsfigs_fig9.txt" "$GOLDEN/pawsfigs_fig9.txt"
check pawssim_rand16 pawssim -park rand:16 -policies paws,uniform,historical,random,thompson,softmax
check pawssim_mfnp_static pawssim -park MFNP -seasons 2 -attacker static

"$WORKDIR/pawscamp" -parks rand:16,rand:8 -policies paws,uniform,thompson,softmax \
  -seeds 1,2,3 -seasons 1 -json "$WORKDIR/campaign.json" >/dev/null 2>&1
compare "$WORKDIR/campaign.json" CAMPAIGN_env.json

if ((FAILED)); then
  exit 1
fi
if ((UPDATE)); then
  echo "goldens rewritten"
else
  echo "golden smoke test passed"
fi
