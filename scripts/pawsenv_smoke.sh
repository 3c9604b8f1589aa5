#!/usr/bin/env bash
# pawsenv fleet smoke test: two pawsd replicas behind a pawsgate serving
# the remote environment surface (/v1/envs). A session created through the
# gate must land on one replica with a replica-prefixed ID; step/get/delete
# must route to that owner (the non-owner answers the authoritative
# structured unknown_env); a full pawssim -remote run driven through the
# gate must be byte-identical to the local driver; and session load must be
# visible on /statusz. Replica A trains the small model and publishes it to
# a shared store for B (pawsd refuses to start with nothing to serve); the
# env surface itself never touches it. Used by CI and runnable locally:
# ./scripts/pawsenv_smoke.sh
set -euo pipefail
. "$(dirname "$0")/stop_pids.sh"

PORT_A="${PAWSENV_SMOKE_PORT_A:-18141}"
PORT_B="${PAWSENV_SMOKE_PORT_B:-18142}"
PORT_G="${PAWSENV_SMOKE_PORT_G:-18140}"
ADDR_A="127.0.0.1:$PORT_A"
ADDR_B="127.0.0.1:$PORT_B"
ADDR_G="127.0.0.1:$PORT_G"
WORKDIR="$(mktemp -d)"

cleanup() {
  stop_pids "${PID_A:-}" "${PID_B:-}" "${PID_G:-}"
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$WORKDIR/pawsd" ./cmd/pawsd
go build -o "$WORKDIR/pawsgate" ./cmd/pawsgate
go build -o "$WORKDIR/pawssim" ./cmd/pawssim

STORE="$WORKDIR/store"
"$WORKDIR/pawsd" -replica a -store "$STORE" -kind DTB-iW -train \
  -addr "$ADDR_A" -job-workers 2 -store-poll 200ms >"$WORKDIR/a.log" 2>&1 &
PID_A=$!
"$WORKDIR/pawsd" -replica b -store "$STORE" \
  -addr "$ADDR_B" -job-workers 2 -store-poll 200ms >"$WORKDIR/b.log" 2>&1 &
PID_B=$!

wait_http() { # url pid log
  for _ in $(seq 1 120); do
    curl -sf "$1" >/dev/null 2>&1 && return 0
    kill -0 "$2" 2>/dev/null || { echo "process exited early:"; cat "$3"; exit 1; }
    sleep 1
  done
  echo "timeout waiting for $1"; cat "$3"; exit 1
}
wait_http "http://$ADDR_A/healthz" "$PID_A" "$WORKDIR/a.log"
wait_http "http://$ADDR_B/healthz" "$PID_B" "$WORKDIR/b.log"

"$WORKDIR/pawsgate" -addr "$ADDR_G" \
  -backends "http://$ADDR_A,http://$ADDR_B" >"$WORKDIR/gate.log" 2>&1 &
PID_G=$!
wait_http "http://$ADDR_G/gatez" "$PID_G" "$WORKDIR/gate.log"
echo "ok fleet (2 replicas + gate up)"

# Create a session through the gate: 201, replica-prefixed ID, and the
# full bootstrap observation in the response.
curl -s -X POST -d '{"park":"rand:8","seed":11,"seasons":3,"season_months":1,"bootstrap_months":6}' \
  "http://$ADDR_G/v1/envs" -o "$WORKDIR/create.json"
ENV_ID="$(python3 - "$WORKDIR/create.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
sid = d["session"]["id"]
assert sid.startswith(("e-a-", "e-b-")), d
assert d["obs"]["months"] == 6 and len(d["obs"]["effort"]) == 6, d["obs"]["months"]
print(sid)
EOF
)"
case "$ENV_ID" in
  e-a-*) OWNER="$ADDR_A"; OTHER="$ADDR_B" ;;
  e-b-*) OWNER="$ADDR_B"; OTHER="$ADDR_A" ;;
esac
echo "ok create via gate ($ENV_ID, owner $OWNER)"

# Step once through the gate with a uniform allocation: the step must
# reach the owner (its /statusz counts the step), and the response carries
# the appended month only.
python3 - "$WORKDIR/create.json" <<'EOF' > "$WORKDIR/step.json"
import json, sys
d = json.load(open(sys.argv[1]))
cells = len(d["obs"]["effort"][0])
print(json.dumps({"effort": [1.0] * cells}))
EOF
curl -s -X POST -d @"$WORKDIR/step.json" "http://$ADDR_G/v1/envs/$ENV_ID/step" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["stats"]["season"]==0 and d["delta"]["months"]==7 and not d["done"], d'
curl -s "http://$OWNER/statusz" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin)["envs"]; assert d["active"]==1 and d["steps"]==1, d'
curl -s "http://$OTHER/statusz" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin)["envs"]; assert d["sessions"]==0, d'
echo "ok step via gate (owner stepped, non-owner idle)"

# The non-owner, asked directly, answers the authoritative structured
# unknown_env — not a proxy error, not a 200.
STATUS="$(curl -s -o "$WORKDIR/other.json" -w '%{http_code}' "http://$OTHER/v1/envs/$ENV_ID")"
[[ "$STATUS" == "404" ]] || { echo "FAIL: non-owner answered $STATUS"; cat "$WORKDIR/other.json"; exit 1; }
python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["error"]["code"]=="unknown_env", d' "$WORKDIR/other.json"
# The gate, holding the ID's namespace, routes the lookup to the owner.
curl -s "http://$ADDR_G/v1/envs/$ENV_ID" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["season"]==1 and not d["done"], d'
echo "ok owner routing (gate reaches owner, non-owner says unknown_env)"

curl -s -X DELETE "http://$ADDR_G/v1/envs/$ENV_ID" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["session"]["id"], d'
echo "ok delete via gate"

# The acceptance bar: a full pawssim comparison (uniform + both learned
# policies, 3 seasons) driven remotely through the gate's env sessions must
# render byte-identical to the local driver.
SIM_ARGS=(-park rand:8 -seed 11 -policies uniform,thompson,softmax \
  -seasons 3 -season-months 1 -bootstrap 6 -workers 2)
"$WORKDIR/pawssim" "${SIM_ARGS[@]}" > "$WORKDIR/local.txt"
"$WORKDIR/pawssim" "${SIM_ARGS[@]}" -remote "http://$ADDR_G" > "$WORKDIR/remote.txt"
cmp "$WORKDIR/local.txt" "$WORKDIR/remote.txt" \
  || { echo "FAIL: remote env run differs from local driver"; diff "$WORKDIR/local.txt" "$WORKDIR/remote.txt" | head; exit 1; }
echo "ok remote ≡ local (pawssim via gate env sessions byte-identical)"

# The remote run left its sessions deleted; the env instruments must have
# seen them.
curl -s "http://$ADDR_A/metricsz" "http://$ADDR_B/metricsz" > "$WORKDIR/metrics.txt"
grep -q 'paws_env_steps_total' "$WORKDIR/metrics.txt" \
  || { echo "FAIL: env metrics missing from /metricsz"; exit 1; }
echo "pawsenv fleet smoke test passed"
