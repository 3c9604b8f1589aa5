#!/usr/bin/env bash
# pawsd smoke test: train-and-persist a small model, serve it, hit the three
# /v1 endpoints, and assert 200s with well-formed JSON. Used by CI and
# runnable locally: ./scripts/pawsd_smoke.sh
set -euo pipefail
. "$(dirname "$0")/stop_pids.sh"

ADDR="127.0.0.1:${PAWSD_SMOKE_PORT:-18099}"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/pawsd"
MODEL="$WORKDIR/model.paws"
LOG="$WORKDIR/pawsd.log"

cleanup() {
  stop_pids "${SERVER_PID:-}"
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/pawsd

# DTB-iW trains in seconds on the small park; -train persists the model.
"$BIN" -addr "$ADDR" -kind DTB-iW -train -model "$MODEL" >"$LOG" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 120); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "pawsd exited early:"; cat "$LOG"; exit 1; }
  sleep 1
done

check_json() { # name url [curl args...]
  local name="$1" url="$2"; shift 2
  local body status
  body="$(curl -s -w '\n%{http_code}' "$@" "http://$ADDR$url")"
  status="${body##*$'\n'}"
  body="${body%$'\n'*}"
  if [[ "$status" != "200" ]]; then
    echo "FAIL $name: status $status body: $body"; exit 1
  fi
  if ! python3 -c "import json,sys; json.loads(sys.argv[1])" "$body"; then
    echo "FAIL $name: response is not valid JSON: $body"; exit 1
  fi
  echo "ok $name ($status): ${body:0:120}"
}

check_json healthz /healthz
check_json predict /v1/predict -X POST -d '{"model":"default","effort":1.5,"cells":[0,1,2,3]}'
# The predict response must actually carry probabilities.
curl -s -X POST -d '{"model":"default","effort":1.5,"cells":[0,1,2,3]}' "http://$ADDR/v1/predict" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert len(d["probs"])==4 and all(0<=p<=1 for p in d["probs"]), d'
check_json riskmap '/v1/riskmap?model=default&effort=2'
check_json plan /v1/plan -X POST -d '{"model":"default","post":0,"beta":0.9,"radius":2,"max_cells":12,"t":5,"k":2,"segments":6}'

# The persisted model must reload: restart without -train.
stop_pids "$SERVER_PID"
"$BIN" -addr "$ADDR" -kind DTB-iW -model "$MODEL" >"$LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 60); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "pawsd (reload) exited early:"; cat "$LOG"; exit 1; }
  sleep 1
done
grep -q "loading persisted model" "$LOG" || { echo "FAIL: reload did not use the persisted model"; cat "$LOG"; exit 1; }
check_json predict-reloaded /v1/predict -X POST -d '{"model":"default","effort":1.5,"cells":[0,1,2,3]}'

echo "pawsd smoke test passed"
