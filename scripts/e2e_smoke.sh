#!/usr/bin/env bash
# e2e_smoke.sh — end-to-end smoke of the serving stack as real processes.
#
# This is the CI e2e job (and runnable locally: ./scripts/e2e_smoke.sh). It
# exercises the full binary path the Go tests can't: process boot, flag
# parsing, signal-driven drain, checkpoint files surviving an actual process
# death, cluster handoff across process exits, and the loadgen's shadow-pool
# verification across all of it.
#
# Phases are selectable via E2E_PHASES (space-separated; default runs all):
#
#   restart   boot + ingest + SIGTERM + restart from checkpoint, bit-identical
#   churn     the bounded-memory spill store under 4x-cap Zipf-skewed load
#   wire      the same restart contract over the binary wire protocol
#   cluster   3-node ring: ring-aware ingest, kill one node mid-churn
#             (graceful leave + live handoff), verify bit-identical
#   unclean   3-node ring with gossip failure detection: kill -9 one node
#             mid-wave, survivors converge to ring v+1 and promote warm
#             standbys with no operator action, verify bit-identical
#
#   E2E_PHASES="cluster" ./scripts/e2e_smoke.sh
#
# E2E_MECHANISM picks the served mechanism (default gradient), e.g.
#
#   E2E_MECHANISM=projected E2E_PHASES=restart ./scripts/e2e_smoke.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

phases="${E2E_PHASES:-restart churn wire cluster unclean}"
mechanism="${E2E_MECHANISM:-gradient}"

bin="$(mktemp -d)"
tmpdirs=("$bin")
pids=()

cleanup() {
  for pid in "${pids[@]:-}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "${tmpdirs[@]}"
}
trap cleanup EXIT

# The build stamps a version so the phases can assert it surfaces end to end
# (/healthz, /v1/stats, the wire HelloAck) — the mixed-version-cluster
# detection signal.
e2e_version="e2e-$(git rev-parse --short HEAD 2>/dev/null || echo local)"

echo "== building binaries (version $e2e_version)"
go build -ldflags "-X privreg/internal/version.Version=$e2e_version" \
  -o "$bin/privreg-server" ./cmd/privreg-server
go build -o "$bin/privreg-loadgen" ./cmd/privreg-loadgen

# start_server NAME ADDR [server flags...] — boots a server in the
# background, waits for liveness, and records the pid in $srv_pid and in the
# per-name variable pid_NAME (so multi-node phases can address nodes).
srv_pid=""
start_server() {
  local name="$1" addr="$2"
  shift 2
  "$bin/privreg-server" -addr "$addr" "$@" &
  srv_pid=$!
  pids+=("$srv_pid")
  eval "pid_$name=$srv_pid"
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$srv_pid" 2>/dev/null; then
      echo "$name died during startup" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "$name never became healthy" >&2
  return 1
}

# stop_server PID — SIGTERM and require a clean exit: queued points applied,
# cluster streams handed off, final checkpoint written.
stop_server() {
  local pid="$1"
  kill -TERM "$pid"
  wait "$pid"
}

# stat_field ADDR FIELD — extracts an integer PoolStats field from /v1/stats.
stat_field() {
  curl -fsS "http://$1/v1/stats" | grep -o "\"$2\":[0-9-]*" | grep -o '[0-9-]*$'
}

want_phase() { case " $phases " in *" $1 "*) return 0 ;; *) return 1 ;; esac }

spec_flags=(-mechanism "$mechanism" -epsilon 1 -delta 1e-6
  -horizon 512 -dim 8 -radius 1 -seed 42)

# ---------------------------------------------------------------------------
# restart: boot, ingest, SIGTERM (graceful drain + final checkpoint), restart
# from the checkpoint, ingest more, verify the whole history bit-identically.
# ---------------------------------------------------------------------------
phase_restart() {
  local data addr="127.0.0.1:18329"
  data="$(mktemp -d)"; tmpdirs+=("$data")
  local flags=("${spec_flags[@]}" -checkpoint-dir "$data" -checkpoint-interval 2s)

  echo "== restart phase 1: boot + ingest 8 streams x 24 points + verify"
  start_server restart "$addr" "${flags[@]}"
  curl -fsS "http://$addr/healthz" | grep -q "\"version\":\"$e2e_version\"" \
    || { echo "healthz does not carry the ldflags-injected version" >&2; return 1; }
  "$bin/privreg-loadgen" -addr "http://$addr" -streams 8 -points 24 -batch 6

  echo "== SIGTERM (graceful drain + final checkpoint)"
  stop_server "$srv_pid"
  test -f "$data/MANIFEST" || { echo "no checkpoint manifest written" >&2; return 1; }
  test -d "$data/segments" || { echo "no segment directory written" >&2; return 1; }

  echo "== restart phase 2: restart from checkpoint + ingest 16 more + verify"
  start_server restart "$addr" "${flags[@]}"
  # -from 24: the loadgen replays points [0,24) into its shadow pool locally,
  # sends [24,40) to the server, and then requires the server's estimates at
  # t=40 to be bit-identical — which only holds if the restart resumed every
  # stream exactly where the killed process left it.
  "$bin/privreg-loadgen" -addr "http://$addr" -streams 8 -points 16 -from 24 -batch 4

  echo "== graceful shutdown"
  stop_server "$srv_pid"
  echo "e2e restart OK: restart from checkpoint is bit-identical"
}

# ---------------------------------------------------------------------------
# churn: the bounded-memory spill store under 4x-cap skewed load. -store-cap
# 16 under 64 Zipf-skewed streams keeps the store constantly evicting cold
# streams to segment files and faulting them back in; kill mid-churn,
# restart, verify hot and cold streams alike.
# ---------------------------------------------------------------------------
phase_churn() {
  local data addr="127.0.0.1:18330"
  data="$(mktemp -d)"; tmpdirs+=("$data")
  local flags=("${spec_flags[@]}" -checkpoint-dir "$data" -checkpoint-interval 2s -store-cap 16)

  echo "== churn phase 1: 64 streams over a 16-stream resident cap, skewed"
  start_server churn "$addr" "${flags[@]}"
  "$bin/privreg-loadgen" -addr "http://$addr" -streams 64 -points 24 -batch 6 -skew 1.2

  local resident spilled segs streams
  resident="$(stat_field "$addr" Resident)"
  spilled="$(stat_field "$addr" Spilled)"
  echo "residency after churn: resident=$resident spilled=$spilled (cap 16)"
  [ "$resident" -le 16 ] || { echo "resident $resident exceeds the store cap 16" >&2; return 1; }
  [ "$spilled" -ge 1 ] || { echo "no streams spilled under 4x-cap load" >&2; return 1; }

  echo "== kill mid-churn (drain flushes dirty segments + manifest)"
  stop_server "$srv_pid"
  test -f "$data/MANIFEST" || { echo "no manifest written" >&2; return 1; }
  segs=$(ls "$data/segments" | wc -l)
  [ "$segs" -ge 64 ] || { echo "only $segs segment files for 64 streams" >&2; return 1; }

  echo "== churn phase 2: restart from manifest + more skewed traffic + verify"
  start_server churn "$addr" "${flags[@]}"
  # Restore is lazy: before any traffic, no stream state is resident.
  resident="$(stat_field "$addr" Resident)"
  streams="$(stat_field "$addr" Streams)"
  [ "$streams" -eq 64 ] || { echo "restart registered $streams streams, want 64" >&2; return 1; }
  [ "$resident" -eq 0 ] || { echo "restart faulted $resident streams in eagerly, want lazy restore" >&2; return 1; }
  # The shadow pool replays the full skewed history [0, target(i, 32)) per
  # stream; estimates must be bit-identical across cap-evictions AND the
  # restart, for hot and cold streams alike.
  "$bin/privreg-loadgen" -addr "http://$addr" -streams 64 -points 8 -from 24 -batch 4 -skew 1.2

  echo "== graceful shutdown"
  stop_server "$srv_pid"
  echo "e2e churn OK: spill-store churn + restart is bit-identical"
}

# ---------------------------------------------------------------------------
# wire: the same restart contract over the binary protocol. Observes and
# estimate verification both ride wire frames; the bit-identical verdict
# proves the wire decode path applies exactly the same floats in exactly the
# same order as the JSON path and that drain flushes every pending wire ack.
# ---------------------------------------------------------------------------
phase_wire() {
  local data http="127.0.0.1:18331" wire="127.0.0.1:18332"
  data="$(mktemp -d)"; tmpdirs+=("$data")
  local flags=(-wire-addr "$wire" "${spec_flags[@]}"
    -checkpoint-dir "$data" -checkpoint-interval 2s)

  echo "== wire phase 1: binary ingest 8 streams x 24 points + verify"
  start_server wire "$http" "${flags[@]}"
  "$bin/privreg-loadgen" -addr "http://$http" -proto binary -wire-addr "$wire" \
    -streams 8 -points 24 -batch 6

  echo "== SIGTERM mid-history (drain flushes pending wire acks + checkpoint)"
  stop_server "$srv_pid"
  test -f "$data/MANIFEST" || { echo "no manifest written by wire phase" >&2; return 1; }

  echo "== wire phase 2: restart + binary ingest 16 more points + verify"
  start_server wire "$http" "${flags[@]}"
  "$bin/privreg-loadgen" -addr "http://$http" -proto binary -wire-addr "$wire" \
    -streams 8 -points 16 -from 24 -batch 4

  echo "== graceful shutdown"
  stop_server "$srv_pid"
  echo "e2e wire OK: binary-protocol restart is bit-identical"
}

# ---------------------------------------------------------------------------
# cluster: 3 nodes on one consistent-hash ring. Ring-aware binary ingest
# (each stream routed client-side to its owner), then a second churn wave
# through a single entry node while a member is SIGTERMed mid-wave — its
# graceful leave hands every owned stream's segments to the survivors and
# rebalances the ring. The loadgen's shadow pool never hears about any of
# this: estimates must stay bit-identical through seals, forwards, and the
# ownership flip, because the cluster never lets two nodes apply points to
# one stream.
# ---------------------------------------------------------------------------
phase_cluster() {
  local ha="127.0.0.1:18333" wa="127.0.0.1:18334"
  local hb="127.0.0.1:18335" wb="127.0.0.1:18336"
  local hc="127.0.0.1:18337" wc_="127.0.0.1:18338"
  local peers="a=$ha/$wa,b=$hb/$wb,c=$hc/$wc_"

  echo "== cluster: booting 3 nodes (ring v1)"
  start_server node_a "$ha" -wire-addr "$wa" -node-id a -peers "$peers" "${spec_flags[@]}"
  start_server node_b "$hb" -wire-addr "$wb" -node-id b -peers "$peers" "${spec_flags[@]}"
  start_server node_c "$hc" -wire-addr "$wc_" -node-id c -peers "$peers" "${spec_flags[@]}"

  for addr in "$ha" "$hb" "$hc"; do
    curl -fsS "http://$addr/v1/ring" | grep -q '"version":1' \
      || { echo "node at $addr does not serve ring v1" >&2; return 1; }
    curl -fsS "http://$addr/readyz" | grep -q '"status":"ready"' \
      || { echo "node at $addr is not ready" >&2; return 1; }
  done

  echo "== cluster wave 1: ring-aware binary ingest, 48 skewed streams"
  "$bin/privreg-loadgen" -addr "http://$ha" -cluster -proto binary \
    -streams 48 -points 12 -batch 4 -skew 1.2

  echo "== cluster wave 2: churn via one entry node, kill node c mid-wave"
  # Paced so the wave is still in flight when the kill lands. Node a forwards
  # misrouted requests; while c drains, its streams answer retryable 503s,
  # then the handoff flips ownership to the survivors.
  "$bin/privreg-loadgen" -addr "http://$ha" \
    -streams 48 -points 12 -from 12 -batch 4 -skew 1.2 -rate 10 &
  local lg_pid=$!
  sleep 0.4
  stop_server "$pid_node_c"
  wait "$lg_pid" || { echo "loadgen failed across the node-c leave" >&2; return 1; }

  echo "== cluster: survivors rebalanced (ring v2, 2 members)"
  for addr in "$ha" "$hb"; do
    curl -fsS "http://$addr/v1/ring" | grep -q '"version":2' \
      || { echo "survivor at $addr did not adopt ring v2" >&2; return 1; }
  done
  curl -fsS "http://$ha/v1/stats" | grep -q '"members":2' \
    || { echo "node a stats do not show 2 members" >&2; return 1; }
  curl -fsS "http://$ha/v1/stats" | grep -q "\"version\":\"$e2e_version\"" \
    || { echo "stats do not carry the ldflags-injected version" >&2; return 1; }

  echo "== cluster wave 3: ring-aware ingest on the rebalanced ring + verify"
  # The full history [0, 32) per hot stream — wave 1 (ring-aware), wave 2
  # (forwarded, across the leave), wave 3 (ring-aware on ring v2) — must be
  # bit-identical to the shadow pool on the 2-node cluster.
  "$bin/privreg-loadgen" -addr "http://$ha" -cluster -proto binary \
    -streams 48 -points 8 -from 24 -batch 4 -skew 1.2

  echo "== graceful shutdown"
  stop_server "$pid_node_a"
  stop_server "$pid_node_b"
  echo "e2e cluster OK: kill-mid-churn handoff is bit-identical"
}

# ---------------------------------------------------------------------------
# unclean: self-healing. 3 nodes with gossip failure detection (probe 100ms,
# suspicion 500ms) and replication factor 2, so every applied batch ships to
# a warm standby before its ack. A member is kill -9ed mid-wave — no drain,
# no handoff, no goodbye. The survivors' detectors must confirm the death and
# independently converge on ring v+1, promoting their standby copies and
# replaying the pre-ack batch queue, with no operator action. The loadgen
# rides the outage on retries (503/not-owner are retryable) and its
# conditional offsets make those retries exactly-once, so the final verify
# must be bit-identical for every stream — including those the dead node
# owned.
# ---------------------------------------------------------------------------
phase_unclean() {
  local ha="127.0.0.1:18339" wa="127.0.0.1:18340"
  local hb="127.0.0.1:18341" wb="127.0.0.1:18342"
  local hc="127.0.0.1:18343" wc_="127.0.0.1:18344"
  local peers="a=$ha/$wa,b=$hb/$wb,c=$hc/$wc_"
  local detector_flags=(-replicas 2 -probe-interval 100ms -probe-timeout 50ms
    -suspicion-timeout 500ms)

  echo "== unclean: booting 3 nodes (ring v1, failure detection on, replicas 2)"
  start_server uc_a "$ha" -wire-addr "$wa" -node-id a -peers "$peers" "${detector_flags[@]}" "${spec_flags[@]}"
  start_server uc_b "$hb" -wire-addr "$wb" -node-id b -peers "$peers" "${detector_flags[@]}" "${spec_flags[@]}"
  start_server uc_c "$hc" -wire-addr "$wc_" -node-id c -peers "$peers" "${detector_flags[@]}" "${spec_flags[@]}"

  for addr in "$ha" "$hb" "$hc"; do
    curl -fsS "http://$addr/v1/cluster/members" | grep -q '"failure_detection":true'       || { echo "node at $addr does not report failure detection on" >&2; return 1; }
  done

  echo "== unclean wave 1: ring-aware binary ingest, 48 skewed streams"
  "$bin/privreg-loadgen" -addr "http://$ha" -cluster -proto binary     -streams 48 -points 12 -batch 4 -skew 1.2

  echo "== unclean wave 2: churn via one entry node, kill -9 node c mid-wave"
  "$bin/privreg-loadgen" -addr "http://$ha"     -streams 48 -points 12 -from 12 -batch 4 -skew 1.2 -rate 10 &
  local lg_pid=$!
  sleep 0.4
  kill -9 "$pid_uc_c"
  wait "$pid_uc_c" 2>/dev/null || true
  local killed_at=$SECONDS
  wait "$lg_pid" || { echo "loadgen failed across the unclean kill of node c" >&2; return 1; }

  echo "== unclean: survivors must self-heal to ring v2 (no operator action)"
  # Suspicion is 500ms; allow generous CI slack on top of the wave itself.
  local deadline=$((killed_at + 20)) healed=0
  while [ $SECONDS -lt $deadline ]; do
    if curl -fsS "http://$ha/v1/ring" | grep -q '"version":2'       && curl -fsS "http://$hb/v1/ring" | grep -q '"version":2'; then
      healed=1
      break
    fi
    sleep 0.2
  done
  [ "$healed" -eq 1 ] || { echo "survivors never converged on ring v2 after the kill -9" >&2; return 1; }
  echo "   ring v2 adopted by both survivors $((SECONDS - killed_at))s after the kill"
  curl -fsS "http://$ha/v1/cluster/members" | grep -Eq '"state":"(dead|left)"'     || { echo "node a's member table does not show c dead/left" >&2; return 1; }
  curl -fsS "http://$ha/readyz" | grep -q '"members"'     || { echo "readyz does not carry the membership view" >&2; return 1; }

  echo "== unclean wave 3: ingest on the healed ring + bit-identical verify"
  # The full history [0, 32) per hot stream — including every batch acked by
  # the dead node, which must have survived via its pre-ack standby copies —
  # is verified against the shadow pool.
  "$bin/privreg-loadgen" -addr "http://$ha" -cluster -proto binary     -streams 48 -points 8 -from 24 -batch 4 -skew 1.2

  echo "== graceful shutdown"
  stop_server "$pid_uc_a"
  stop_server "$pid_uc_b"
  echo "e2e unclean OK: kill -9 self-healing is bit-identical"
}

for phase in $phases; do
  case "$phase" in
    restart) phase_restart ;;
    churn) phase_churn ;;
    wire) phase_wire ;;
    cluster) phase_cluster ;;
    unclean) phase_unclean ;;
    *) echo "unknown E2E phase: $phase (want restart|churn|wire|cluster|unclean)" >&2; exit 2 ;;
  esac
done

echo "e2e smoke OK: $phases"
