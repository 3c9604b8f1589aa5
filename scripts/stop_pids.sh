# Sourced by the smoke scripts that start servers in the background:
#
#	. "$(dirname "$0")/stop_pids.sh"
#	stop_pids "$PID_A" "$PID_B"
#
# stop_pids sends SIGTERM to each non-empty PID, gives them up to 5 s
# together to exit (pawsd drains in-flight work on SIGTERM, and some of it
# cannot be interrupted), sends SIGKILL to any still running, and reaps
# them all, so no server outlives the script that started it.
stop_pids() {
  local pid running
  local -a pids=()
  for pid in "$@"; do
    [[ -n "$pid" ]] && pids+=("$pid")
  done
  ((${#pids[@]})) || return 0
  kill "${pids[@]}" 2>/dev/null || true
  for _ in $(seq 1 50); do
    running=0
    for pid in "${pids[@]}"; do
      kill -0 "$pid" 2>/dev/null && running=1
    done
    ((running)) || break
    sleep 0.1
  done
  kill -KILL "${pids[@]}" 2>/dev/null || true
  for pid in "${pids[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
}
