#!/usr/bin/env bash
# pawsvet smoke test: build the analyzer, prove every check still fires on a
# scratch module seeded with one violation per check, plus maporder's
# map-range arg-max (so a check cannot be removed or neutered without CI
# failing), prove testonly tells a function only a _test.go file calls from
# one that another package calls, and assert the repository itself is
# pawsvet-clean. Used by CI and runnable locally:
# ./scripts/pawsvet_smoke.sh
set -euo pipefail

WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/pawsvet"
trap 'rm -rf "$WORKDIR"' EXIT

REPO="$(pwd)"
go build -o "$BIN" ./cmd/pawsvet

echo "== pawsvet -list names every check"
LIST="$("$BIN" -list)"
for check in wallclock globalrand maporder goroutine errenvelope testonly; do
  if ! grep -q "^$check\b" <<<"$LIST"; then
    echo "FAIL: check $check missing from pawsvet -list:"
    echo "$LIST"
    exit 1
  fi
done

echo "== seed a scratch module with one violation per check"
SCRATCH="$WORKDIR/scratch"
mkdir -p "$SCRATCH"/internal/{env,ml,campaign,stats,serve} "$SCRATCH"/cmd/tool
cat >"$SCRATCH/go.mod" <<'EOF'
module scratch

go 1.24
EOF
cat >"$SCRATCH/internal/env/clock.go" <<'EOF'
package env

import "time"

func Stamp() time.Time { return time.Now() }
EOF
cat >"$SCRATCH/internal/ml/noise.go" <<'EOF'
package ml

import "math/rand"

func Noise() float64 { return rand.Float64() }
EOF
cat >"$SCRATCH/internal/campaign/emit.go" <<'EOF'
package campaign

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
EOF
cat >"$SCRATCH/internal/campaign/argmax.go" <<'EOF'
package campaign

func Argmax(m map[string]float64) string {
	best, arg := -1.0, ""
	for k, v := range m {
		if v > best {
			best, arg = v, k
		}
	}
	return arg
}
EOF
cat >"$SCRATCH/internal/stats/spawn.go" <<'EOF'
package stats

func Spawn(f func()) { go f() }
EOF
cat >"$SCRATCH/internal/serve/handler.go" <<'EOF'
package serve

import "net/http"

func Handle(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusBadRequest)
}
EOF
cat >"$SCRATCH/internal/stats/calls.go" <<'EOF'
package stats

func OnlyTest() int { return 1 }

func Called() int { return 2 }
EOF
cat >"$SCRATCH/internal/stats/calls_test.go" <<'EOF'
package stats

import "testing"

func TestOnlyTest(t *testing.T) { _ = OnlyTest() }
EOF
cat >"$SCRATCH/cmd/tool/main.go" <<'EOF'
package main

import "scratch/internal/stats"

func main() { println(stats.Called()) }
EOF

echo "== pawsvet must fail the seeded module with findings from every check"
set +e
(cd "$SCRATCH" && "$BIN" ./...) >"$WORKDIR/findings.txt" 2>&1
STATUS=$?
set -e
if [[ "$STATUS" -ne 1 ]]; then
  echo "FAIL: pawsvet exit $STATUS on seeded-bad module, want 1"
  cat "$WORKDIR/findings.txt"
  exit 1
fi
for check in wallclock globalrand maporder goroutine errenvelope testonly; do
  if ! grep -q ": $check: " "$WORKDIR/findings.txt"; then
    echo "FAIL: seeded violation for $check not reported:"
    cat "$WORKDIR/findings.txt"
    exit 1
  fi
done

if ! grep -q "argmax.go:.*: maporder: .* under a comparison" "$WORKDIR/findings.txt"; then
  echo "FAIL: seeded map-range arg-max not reported by maporder:"
  cat "$WORKDIR/findings.txt"
  exit 1
fi

if ! grep -q "calls.go:.*: testonly: exported func stats.OnlyTest " "$WORKDIR/findings.txt"; then
  echo "FAIL: a function only a _test.go file calls not reported by testonly:"
  cat "$WORKDIR/findings.txt"
  exit 1
fi
if grep -q "stats\.Called " "$WORKDIR/findings.txt"; then
  echo "FAIL: testonly reported a function that cmd/tool calls:"
  cat "$WORKDIR/findings.txt"
  exit 1
fi

echo "== pawsvet -json emits machine-readable findings"
set +e
(cd "$SCRATCH" && "$BIN" -json ./...) >"$WORKDIR/findings.json" 2>&1
STATUS=$?
set -e
if [[ "$STATUS" -ne 1 ]] || ! grep -q '"check": "wallclock"' "$WORKDIR/findings.json"; then
  echo "FAIL: -json mode (exit $STATUS):"
  cat "$WORKDIR/findings.json"
  exit 1
fi

echo "== the repository itself must be pawsvet-clean"
if ! (cd "$REPO" && "$BIN" ./...); then
  echo "FAIL: pawsvet reports findings on the repository"
  exit 1
fi

echo "pawsvet smoke test passed"
