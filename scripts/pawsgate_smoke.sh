#!/usr/bin/env bash
# pawsgate fleet smoke test: two pawsd replicas share one on-disk model
# store behind a pawsgate. The model is trained via replica A only; the
# store must make it servable by replica B; gate responses must be
# byte-identical to direct replica responses; killing a replica must not
# take the fleet down; and a short deterministic pawsload run must
# produce a sane bench record. Used by CI and runnable locally:
# ./scripts/pawsgate_smoke.sh
set -euo pipefail
. "$(dirname "$0")/stop_pids.sh"

PORT_A="${PAWSGATE_SMOKE_PORT_A:-18121}"
PORT_B="${PAWSGATE_SMOKE_PORT_B:-18122}"
PORT_G="${PAWSGATE_SMOKE_PORT_G:-18120}"
ADDR_A="127.0.0.1:$PORT_A"
ADDR_B="127.0.0.1:$PORT_B"
ADDR_G="127.0.0.1:$PORT_G"
WORKDIR="$(mktemp -d)"
STORE="$WORKDIR/store"

cleanup() {
  stop_pids "${PID_A:-}" "${PID_B:-}" "${PID_G:-}"
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o "$WORKDIR/pawsd" ./cmd/pawsd
go build -o "$WORKDIR/pawsgate" ./cmd/pawsgate
go build -o "$WORKDIR/pawsload" ./cmd/pawsload

# Replica A trains (DTB-iW on the small park is seconds) and publishes to
# the shared store; replica B starts store-only and must pick the model up
# from the store alone.
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

# Replica B must register the published model via store sync.
for _ in $(seq 1 60); do
  N="$(curl -s "http://$ADDR_B/v1/models" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["models"]))')"
  [[ "$N" -ge 1 ]] && break
  sleep 1
done
[[ "$N" -ge 1 ]] || { echo "FAIL: replica b never synced the model from the store"; cat "$WORKDIR/b.log"; exit 1; }
curl -s "http://$ADDR_B/v1/models" \
  | python3 -c 'import json,sys; m=json.load(sys.stdin)["models"][0]; assert m["source"]=="store" and m["hash"], m'
echo "ok store sync (replica b serves the model, source=store)"

"$WORKDIR/pawsgate" -addr "$ADDR_G" \
  -backends "http://$ADDR_A,http://$ADDR_B" >"$WORKDIR/gate.log" 2>&1 &
PID_G=$!
wait_http "http://$ADDR_G/gatez" "$PID_G" "$WORKDIR/gate.log"
curl -s "http://$ADDR_G/gatez" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); h=[b for b in d["backends"] if b["healthy"]]; assert len(h)==2, d'
echo "ok gate (2/2 replicas healthy)"

# Byte-identity: predict is fully deterministic, so the gate-routed
# response must equal both direct replica responses byte for byte.
PREDICT='{"model":"default","effort":1.5,"cells":[0,1,2,3]}'
curl -s -X POST -d "$PREDICT" "http://$ADDR_A/v1/predict" -o "$WORKDIR/pred_a.json"
curl -s -X POST -d "$PREDICT" "http://$ADDR_B/v1/predict" -o "$WORKDIR/pred_b.json"
curl -s -X POST -d "$PREDICT" "http://$ADDR_G/v1/predict" -o "$WORKDIR/pred_g.json"
cmp "$WORKDIR/pred_a.json" "$WORKDIR/pred_b.json" || { echo "FAIL: replicas disagree on predict"; exit 1; }
cmp "$WORKDIR/pred_a.json" "$WORKDIR/pred_g.json" || { echo "FAIL: gate predict differs from replica"; exit 1; }
echo "ok predict (replica a ≡ replica b ≡ gate)"

# Riskmap: identical floats everywhere; only the "cached" flag may differ
# (it reports which request warmed the LRU, not what the answer is).
curl -s "http://$ADDR_A/v1/riskmap?model=default&effort=2" -o "$WORKDIR/rm_a.json"
curl -s "http://$ADDR_G/v1/riskmap?model=default&effort=2" -o "$WORKDIR/rm_g.json"
python3 - "$WORKDIR/rm_a.json" "$WORKDIR/rm_g.json" <<'EOF'
import json, sys
a, g = (json.load(open(p)) for p in sys.argv[1:3])
a.pop("cached", None); g.pop("cached", None)
assert a == g, "gate riskmap differs from replica riskmap"
EOF
echo "ok riskmap (gate ≡ replica, modulo the cached flag)"

# Affinity: repeating the same riskmap key through the gate must pin to
# one replica and hit its LRU.
curl -s "http://$ADDR_G/v1/riskmap?model=default&effort=2" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["cached"], "repeat riskmap key not cached"'
echo "ok affinity (repeat riskmap key served from cache)"

# Jobs through the gate: the submission lands on a replica (namespaced
# ID), and polls route to the owner.
JOB_ID="$(curl -s -X POST -d '{"kind":"riskmap","riskmap":{"model":"default","effort":1.25}}' \
  "http://$ADDR_G/v1/jobs" | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["id"].startswith("j-"), d; print(d["id"])')"
for _ in $(seq 1 60); do
  STATE="$(curl -s "http://$ADDR_G/v1/jobs/$JOB_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  [[ "$STATE" == "done" ]] && break
  sleep 1
done
[[ "$STATE" == "done" ]] || { echo "FAIL: gate-routed job stuck in $STATE"; exit 1; }
echo "ok jobs via gate ($JOB_ID done)"

# Short deterministic load run against the gate.
"$WORKDIR/pawsload" -target "http://$ADDR_G" -label smoke -rate 20 -duration 3s \
  -seed 7 -out "$WORKDIR/bench.json"
python3 - "$WORKDIR/bench.json" <<'EOF'
import json, sys
bf = json.load(open(sys.argv[1]))
run = [r for r in bf["runs"] if r["label"] == "smoke"][0]
eps = run["endpoints"]
assert set(eps) >= {"predict", "riskmap"}, eps
for name, st in eps.items():
    assert st["errors"] == 0, (name, st)
    assert st["p50_ms"] <= st["p95_ms"] <= st["p99_ms"], (name, st)
assert run["riskmap_cache_hit_rate"] > 0, run
print("ok pawsload (0 errors, riskmap hit rate %.0f%%)" % (100 * run["riskmap_cache_hit_rate"]))
EOF

# Kill replica A (the trainer). The gate must health-check it out and
# keep serving byte-identical answers from replica B.
stop_pids "$PID_A"; PID_A=""
for _ in $(seq 1 60); do
  H="$(curl -s "http://$ADDR_G/gatez" | python3 -c 'import json,sys; print(sum(b["healthy"] for b in json.load(sys.stdin)["backends"]))')"
  [[ "$H" == "1" ]] && break
  sleep 1
done
[[ "$H" == "1" ]] || { echo "FAIL: gate never noticed the dead replica"; exit 1; }
curl -s -X POST -d "$PREDICT" "http://$ADDR_G/v1/predict" -o "$WORKDIR/pred_after.json"
cmp "$WORKDIR/pred_a.json" "$WORKDIR/pred_after.json" \
  || { echo "FAIL: predict changed after replica death"; exit 1; }
curl -sf "http://$ADDR_G/v1/riskmap?model=default&effort=1" >/dev/null \
  || { echo "FAIL: riskmap unavailable after replica death"; exit 1; }
echo "ok failover (replica a dead, gate serves identical answers from b)"

echo "pawsgate fleet smoke test passed"
