#!/usr/bin/env bash
# Observability smoke test: two pawsd replicas behind a pawsgate, a short
# deterministic pawsload run, then end-to-end assertions over the new
# observability surface — nonzero /metricsz counters on the gate and both
# replicas, a server-observed riskmap hit rate consistent with the load
# report, a gate-minted X-Paws-Trace visible in the replica's /tracez,
# and a completed job's trace carrying at least one compute-stage span.
# Used by CI and runnable locally: ./scripts/pawsobs_smoke.sh
set -euo pipefail
. "$(dirname "$0")/stop_pids.sh"

PORT_A="${PAWSOBS_SMOKE_PORT_A:-18131}"
PORT_B="${PAWSOBS_SMOKE_PORT_B:-18132}"
PORT_G="${PAWSOBS_SMOKE_PORT_G:-18130}"
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
for _ in $(seq 1 60); do
  N="$(curl -s "http://$ADDR_B/v1/models" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["models"]))')"
  [[ "$N" -ge 1 ]] && break
  sleep 1
done
[[ "$N" -ge 1 ]] || { echo "FAIL: replica b never synced the model"; cat "$WORKDIR/b.log"; exit 1; }

"$WORKDIR/pawsgate" -addr "$ADDR_G" \
  -backends "http://$ADDR_A,http://$ADDR_B" >"$WORKDIR/gate.log" 2>&1 &
PID_G=$!
wait_http "http://$ADDR_G/gatez" "$PID_G" "$WORKDIR/gate.log"

# Deterministic load through the gate first, so the replica cache
# counters mostly reflect the load run when we compare hit rates.
"$WORKDIR/pawsload" -target "http://$ADDR_G" -label obs-smoke -rate 20 -duration 3s \
  -seed 7 -out "$WORKDIR/bench.json"

# The load report must carry trace IDs on its slowest requests.
python3 - "$WORKDIR/bench.json" <<'EOF'
import json, sys
run = [r for r in json.load(open(sys.argv[1]))["runs"] if r["label"] == "obs-smoke"][0]
slow = [s for st in run["endpoints"].values() for s in st.get("slowest", [])]
assert slow, "no slowest-request records in the bench file"
assert all(s.get("trace_id") for s in slow), slow
print("ok pawsload slowest (%d records, all with trace IDs)" % len(slow))
EOF

# Nonzero /metricsz counters on the gate and both replicas.
curl -s "http://$ADDR_G/metricsz" -o "$WORKDIR/gate.metrics"
python3 - "$WORKDIR/gate.metrics" <<'EOF'
import sys
text = open(sys.argv[1]).read()
def total(prefix):
    return sum(float(l.rsplit(" ", 1)[1]) for l in text.splitlines()
               if l.startswith(prefix) and not l.startswith("#"))
assert total("pawsgate_http_requests_total") > 0, "no gate requests counted"
assert total("pawsgate_route_total{strategy=\"affinity\"}") > 0, "no affinity routes"
assert total("pawsgate_replica_picks_total") > 0, "no replica picks"
print("ok gate metricsz (requests, affinity routes, replica picks all nonzero)")
EOF
for ADDR in "$ADDR_A" "$ADDR_B"; do
  curl -s "http://$ADDR/metricsz" \
    | python3 -c '
import sys
text = sys.stdin.read()
def total(prefix):
    return sum(float(l.rsplit(" ", 1)[1]) for l in text.splitlines()
               if l.startswith(prefix) and not l.startswith("#"))
assert total("paws_http_requests_total") > 0, "no replica requests counted"
assert total("paws_http_request_seconds_count") > 0, "no latency observations"
'
done
echo "ok replica metricsz (both replicas counted requests and latencies)"

# Server-observed riskmap hit rate vs the load report: the replicas
# lookups must cover the load run's riskmap ops and both sides must
# agree a cache is winning.
RATES="$(for ADDR in "$ADDR_A" "$ADDR_B"; do curl -s "http://$ADDR/metricsz"; done \
  | grep -E '^paws_riskmap_cache_(hits|misses)_total' || true)"
python3 - "$WORKDIR/bench.json" <<EOF
import json, sys
lines = """$RATES""".split()
vals = [float(v) for v in lines[1::2]]
names = lines[0::2]
hits = sum(v for n, v in zip(names, vals) if "hits" in n)
misses = sum(v for n, v in zip(names, vals) if "misses" in n)
run = [r for r in json.load(open("$WORKDIR/bench.json"))["runs"] if r["label"] == "obs-smoke"][0]
load_rate = run["riskmap_cache_hit_rate"]
load_riskmaps = run["endpoints"]["riskmap"]["requests"]
assert hits + misses >= load_riskmaps, (hits, misses, load_riskmaps)
server_rate = hits / (hits + misses)
assert load_rate > 0 and server_rate > 0, (load_rate, server_rate)
assert abs(server_rate - load_rate) < 0.5, (server_rate, load_rate)
print("ok riskmap hit rate (server %.0f%% vs load report %.0f%%)" % (100 * server_rate, 100 * load_rate))
EOF

# End-to-end trace: a gate-minted X-Paws-Trace must name the same
# request in the gate's and a replica's /tracez rings. The replica
# records its trace in a deferred middleware after the response bytes
# are already on the wire, so poll briefly rather than read once.
TRACE="$(curl -si "http://$ADDR_G/v1/riskmap?model=default&effort=1.125" \
  | tr -d '\r' | sed -n 's/^X-Paws-Trace: //Ip' | head -n1)"
[[ -n "$TRACE" ]] || { echo "FAIL: gate response has no X-Paws-Trace header"; exit 1; }
in_tracez() { # trace addr...
  local trace="$1"; shift
  for _ in $(seq 1 20); do
    for addr in "$@"; do
      curl -s "http://$addr/tracez" | grep -q "$trace" && return 0
    done
    sleep 0.1
  done
  return 1
}
in_tracez "$TRACE" "$ADDR_G" \
  || { echo "FAIL: trace $TRACE missing from gate /tracez"; exit 1; }
in_tracez "$TRACE" "$ADDR_A" "$ADDR_B" \
  || { echo "FAIL: trace $TRACE missing from both replicas' /tracez"; exit 1; }
echo "ok trace propagation (gate-minted $TRACE in gate and replica rings)"

# A completed job's trace must reuse the submit's gate-minted ID and
# carry at least one compute-stage span.
SUBMIT="$(curl -si -X POST -d '{"kind":"riskmap","riskmap":{"model":"default","effort":1.375}}' \
  "http://$ADDR_G/v1/jobs" | tr -d '\r')"
JOB_TRACE="$(printf '%s\n' "$SUBMIT" | sed -n 's/^X-Paws-Trace: //Ip' | head -n1)"
JOB_ID="$(printf '%s\n' "$SUBMIT" | tail -n1 | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
[[ -n "$JOB_TRACE" && -n "$JOB_ID" ]] || { echo "FAIL: job submit missing trace or id"; exit 1; }
for _ in $(seq 1 60); do
  STATE="$(curl -s "http://$ADDR_G/v1/jobs/$JOB_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
  [[ "$STATE" == "done" ]] && break
  sleep 1
done
[[ "$STATE" == "done" ]] || { echo "FAIL: job $JOB_ID stuck in $STATE"; exit 1; }
in_tracez "$JOB_TRACE" "$ADDR_A" "$ADDR_B" \
  || { echo "FAIL: job trace $JOB_TRACE missing from both replicas' /tracez"; exit 1; }
( curl -s "http://$ADDR_A/tracez"; curl -s "http://$ADDR_B/tracez" ) \
  | python3 -c "
import json, sys
raw = sys.stdin.read().strip()
traces = []
dec = json.JSONDecoder()
while raw:
    d, n = dec.raw_decode(raw)
    traces += d['traces']
    raw = raw[n:].lstrip()
jobs = [t for t in traces if t['trace_id'] == '$JOB_TRACE' and t['op'].startswith('job:')]
assert jobs, 'no job trace under the submit trace ID $JOB_TRACE'
assert any(t.get('spans') for t in jobs), jobs
names = sorted({s['name'] for t in jobs for s in t.get('spans') or []})
print('ok job trace (op %s, spans: %s)' % (jobs[0]['op'], ','.join(names)))
"

echo "pawsobs smoke test passed"
