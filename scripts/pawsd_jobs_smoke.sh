#!/usr/bin/env bash
# pawsd async-jobs smoke test: serve a small model, submit an async simulate
# job, stream its NDJSON events, poll it to completion, and diff its stored
# result against the synchronous /v1/simulate response (must be
# byte-identical). Used by CI and runnable locally:
# ./scripts/pawsd_jobs_smoke.sh
set -euo pipefail
. "$(dirname "$0")/stop_pids.sh"

ADDR="127.0.0.1:${PAWSD_JOBS_SMOKE_PORT:-18109}"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/pawsd"
LOG="$WORKDIR/pawsd.log"

cleanup() {
  stop_pids "${SERVER_PID:-}"
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/pawsd

# DTB-iW trains in seconds on the small park; simulate jobs need no model,
# but training one exercises the full startup path.
"$BIN" -addr "$ADDR" -kind DTB-iW -train -job-workers 2 >"$LOG" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 120); do
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "pawsd exited early:"; cat "$LOG"; exit 1; }
  sleep 1
done

SIM_PARAMS='{"park":"rand:16","seasons":2,"policies":["uniform","historical"],"seed":99}'

# Discovery endpoint lists the model trained at startup.
curl -s "http://$ADDR/v1/models" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); m=d["models"]; assert m and m[0]["name"]=="default" and m[0]["feature_dim"]>1, d'
echo "ok models"

# Synchronous run first (the byte-identity baseline).
curl -s -X POST -d "$SIM_PARAMS" "http://$ADDR/v1/simulate" -o "$WORKDIR/sync.json"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$WORKDIR/sync.json"
echo "ok sync simulate"

# Submit the same run as an async job.
JOB_ID="$(curl -s -X POST -d "{\"kind\":\"simulate\",\"simulate\":$SIM_PARAMS}" "http://$ADDR/v1/jobs" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["state"] in ("queued","running"), d; print(d["id"])')"
echo "ok submit ($JOB_ID)"

# Poll the snapshot to completion.
for _ in $(seq 1 120); do
  STATE="$(curl -s "http://$ADDR/v1/jobs/$JOB_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  [[ "$STATE" == "done" ]] && break
  [[ "$STATE" == "failed" || "$STATE" == "canceled" ]] && { echo "FAIL: job ended $STATE"; curl -s "http://$ADDR/v1/jobs/$JOB_ID"; exit 1; }
  sleep 1
done
[[ "$STATE" == "done" ]] || { echo "FAIL: job stuck in $STATE"; exit 1; }
echo "ok poll (state done)"

# The event stream must carry ≥ 1 season event per season per policy
# (2 seasons × 2 policies = 4) and end with the done lifecycle event.
cat > "$WORKDIR/check_events.py" <<'EOF'
import json, sys
events = [json.loads(line) for line in sys.stdin if line.strip()]
seasons = [e for e in events if e["stage"] == "season"]
states = [e["item"] for e in events if e["stage"] == "state"]
assert len(seasons) >= 4, f"want >=4 season events, got {seasons}"
assert states and states[0] == "running" and states[-1] == "done", states
assert [e["seq"] for e in events] == list(range(len(events))), "seqs not dense"
print(f"ok events ({len(seasons)} season events)")
EOF
curl -s "http://$ADDR/v1/jobs/$JOB_ID/events" | python3 "$WORKDIR/check_events.py"

# The stored result must be byte-identical to the synchronous response.
curl -s "http://$ADDR/v1/jobs/$JOB_ID/result" -o "$WORKDIR/async.json"
cmp "$WORKDIR/sync.json" "$WORKDIR/async.json" \
  || { echo "FAIL: async result differs from sync response"; exit 1; }
echo "ok result (byte-identical to sync /v1/simulate)"

# Cancel semantics: a long job accepts DELETE and reaches canceled.
LONG_ID="$(curl -s -X POST -d '{"kind":"simulate","simulate":{"park":"MFNP","seasons":8,"policies":["paws"]}}' \
  "http://$ADDR/v1/jobs" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
curl -s -X DELETE "http://$ADDR/v1/jobs/$LONG_ID" >/dev/null
for _ in $(seq 1 60); do
  STATE="$(curl -s "http://$ADDR/v1/jobs/$LONG_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  [[ "$STATE" == "canceled" ]] && break
  sleep 1
done
[[ "$STATE" == "canceled" ]] || { echo "FAIL: canceled job ended $STATE"; exit 1; }
curl -s "http://$ADDR/v1/jobs/$LONG_ID/result" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["error"]["code"]=="canceled", d'
echo "ok cancel (state canceled, error code canceled)"

echo "pawsd jobs smoke test passed"
