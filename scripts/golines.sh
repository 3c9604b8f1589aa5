#!/usr/bin/env bash
# Go line counts of the repository, split into non-test and test code.
# internal/lint/testdata (pawsvet's fixture modules) is left out, and
# cmd/pawsbench (the benchmark harness, its own module) is reported on its
# own line instead of inside the repo row. Go assembly (.s files) has a row
# of its own too, so the Go rows stay comparable with counts taken before
# the repo had any. Counts cover the working tree, untracked files
# included.
#
#   ./scripts/golines.sh           # line counts
#   ./scripts/golines.sh <rev>     # plus lines added/removed since <rev>
#
# The +/− columns are `git diff --numstat <rev>` against the working tree;
# an untracked file counts as all added.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev="${1:-}"
if [[ -n "$rev" ]]; then
  git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "golines: unknown revision $rev" >&2
    exit 2
  }
fi

# One "<added> <removed> <path>" line per changed .go or .s file since $rev.
numstat() {
  [[ -n "$rev" ]] || return 0
  git diff --numstat --no-renames "$rev" -- '*.go' '*.s'
  git ls-files --others --exclude-standard -- '*.go' '*.s' | while read -r f; do
    echo "$(wc -l <"$f") 0 $f"
  done
}

{
  git ls-files --cached --others --exclude-standard -- '*.go' '*.s' | while read -r f; do
    [[ -f "$f" ]] && echo "lines $(wc -l <"$f") 0 $f"
  done
  numstat | sed 's/^/diff /'
} | awk -v rev="$rev" '
  $4 ~ /^internal\/lint\/testdata\// { next }
  {
    row = ($4 ~ /\.s$/) ? "asm" : ($4 ~ /^cmd\/pawsbench\//) ? "cmd/pawsbench" : "repo"
    col = ($4 ~ /_test\.go$/) ? "test" : "non-test"
    k = row SUBSEP col
    if ($1 == "lines") { lines[k] += $2 } else { add[k] += $2; del[k] += $3 }
  }
  END {
    printf "%-14s %22s %22s\n", "", "non-test", "test"
    split("repo cmd/pawsbench asm", rows, " ")
    for (i = 1; i <= 3; i++) {
      printf "%-14s", rows[i]
      split("non-test test", cols, " ")
      for (j = 1; j <= 2; j++) {
        k = rows[i] SUBSEP cols[j]
        cell = sprintf("%d", lines[k])
        if (rev != "") cell = cell sprintf(" (+%d/-%d)", add[k], del[k])
        printf " %22s", cell
      }
      printf "\n"
    }
  }'
