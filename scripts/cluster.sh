#!/usr/bin/env bash
# Boot a localhost LocoFS cluster (locod daemons), run the mdtest smoke
# workload over TCP, scrape per-daemon metrics, and shut everything
# down gracefully. With --data-dir the daemons run durably (WAL +
# checkpoints) and the cluster survives kill -9: the crash/restart
# subcommands drive exactly that.
#
# Usage:
#   scripts/cluster.sh [--fms N] [--ost N] [--base-port P] [--keep]
#                      [--data-dir DIR] [--sync-policy POLICY]
#                      [--workers N] [--checkpoint-every N]
#                      [--dms-standbys N]
#                      [--repl-ack POLICY] [--repl-lease-ms MS]
#   scripts/cluster.sh crash ROLE      # kill -9 one daemon (e.g. fms0)
#   scripts/cluster.sh restart ROLE    # restart it (same port + data dir)
#   scripts/cluster.sh promote ROLE    # make a standby dms the primary
#                                      # (bumps the fencing epoch) and
#                                      # rewrite $OUT/cluster.view
#   scripts/cluster.sh failover [ROLE] # kill -9 the current dms primary
#                                      # and promote ROLE (default: the
#                                      # first surviving standby)
#   scripts/cluster.sh status          # one-shot locotop JSON snapshot
#   scripts/cluster.sh logs [ROLE]     # tail structured logs (all roles
#                                      # or one, e.g. logs fms0; extra
#                                      # args pass through: --follow)
#   scripts/cluster.sh collect         # run the log collector against
#                                      # the recorded cluster (into
#                                      # $OUT/collect/; args pass through)
#   scripts/cluster.sh report          # merge $OUT/collect/ into the
#                                      # cluster timeline + report.md
#   scripts/cluster.sh stop            # graceful drain of the whole cluster
#
#   --fms N           number of FMS daemons (default 2)
#   --ost N           number of OST daemons (default 2)
#   --base-port P     first listen port (default 7100)
#   --data-dir DIR    run durably: each role persists under DIR/<role><i>/
#   --sync-policy     os-managed (default) or every-record
#   --workers N       event-loop workers per daemon (default: locod auto)
#   --checkpoint-every N  durable daemons checkpoint after N logged
#                     records (default: locod's, 100000); needs --data-dir
#   --max-inflight N  loco-guard admission watermark: shed mutations
#                     while a worker has N replies parked in the group
#                     committer (default: locod's, 0 = off)
#   --shed-watermark N loco-guard watermark on the group-commit queue
#                     depth (default: locod's, 0 = off)
#   --dms-standbys N  boot N warm-standby dms replicas (dms1..dmsN)
#                     with WAL replication from dms0 (needs --data-dir
#                     and --sync-policy every-record: only the group
#                     commit waits for the standby quorum)
#   --repl-ack        none|one|all standby acks before client acks
#                     release (default one)
#   --repl-lease-ms   primary lease for failover detection (default 500)
#   --keep            leave the cluster running (prints LOCO_CLUSTER and
#                     exits; use the stop subcommand to drain it later)
#
# A --keep cluster records its topology (replication layout included)
# in $OUT/cluster.state so the crash/restart/promote/failover/stop
# subcommands can find it again; status/collect/report discover
# standbys from the same file. The current client view (who is
# primary, who are standbys) is mirrored to $OUT/cluster.view —
# export LOCO_CLUSTER_FILE=$OUT/cluster.view and clients re-read it
# after a failover.
#
# Artifacts land in results/cluster/ (override with LOCO_SMOKE_OUT):
#   locod-<role><i>.log / .prom   per-daemon log + final metrics dump
#   client_metrics.prom           client-side RPC + op metrics
#   slow_ops.json                 flight-recorder span trees (traced
#                                 over the wire — LOCO_TRACE parity)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${LOCO_SMOKE_OUT:-results/cluster}"
STATE="$OUT/cluster.state"
LOCOD=target/release/locod

# --- subcommands against a recorded cluster ---------------------------

state_lines() { grep -v '^#' "$STATE"; }

find_role() { # name -> "role index port pid data_dir sync_policy repl"
  state_lines | awk -v n="$1" '$1 $2 == n { print; exit }'
}

start_one() { # role index port data_dir sync_policy [repl]
  local role=$1 index=$2 port=$3 data_dir=$4 sync_policy=$5 repl=${6:--}
  local addr="127.0.0.1:$port"
  local extra=()
  if [[ "$data_dir" != "-" ]]; then
    extra+=(--data-dir "$data_dir" --sync-policy "$sync_policy")
  fi
  if [[ -n "${WORKERS:-}" ]]; then
    extra+=(--workers "$WORKERS")
  fi
  if [[ "$data_dir" != "-" && -n "${CHECKPOINT_EVERY:-}" ]]; then
    extra+=(--checkpoint-every "$CHECKPOINT_EVERY")
  fi
  if [[ -n "${MAX_INFLIGHT:-}" ]]; then
    extra+=(--max-inflight "$MAX_INFLIGHT")
  fi
  if [[ -n "${SHED_WATERMARK:-}" ]]; then
    extra+=(--shed-watermark "$SHED_WATERMARK")
  fi
  # Replication spec (col 7): primary@PEERS@ACK@LEASE or
  # standby@PRIMARY@PEERS@ACK@LEASE (PEERS comma-joined).
  if [[ "$repl" != "-" ]]; then
    local kind a b c d
    IFS=@ read -r kind a b c d <<<"$repl"
    if [[ "$kind" == standby ]]; then
      extra+=(--standby-of "$a" --replicate-to "$b" --repl-ack "$c" --repl-lease-ms "$d")
    else
      extra+=(--replicate-to "$a" --repl-ack "$b" --repl-lease-ms "$c")
    fi
  fi
  "$LOCOD" serve --role "$role" --index "$index" --listen "$addr" \
    --metrics-out "$OUT/locod-$role$index.prom" "${extra[@]}" \
    >>"$OUT/locod-$role$index.log" 2>&1 &
  echo $!
}

# After a promotion, rewrite every dms state line's repl spec relative
# to the new primary, so `restart dms0` brings the old primary back as
# a *standby* — it catches up from the new primary's WAL instead of
# briefly claiming a stale epoch.
update_repl_roles() { # new_primary_name
  local newp=$1 spec ack lease paddr
  spec=$(state_lines | awk '$1=="dms" && $7 != "-" { print $7; exit }')
  [[ -n "$spec" ]] || return 0
  ack=$(awk -F@ '{print $(NF-1)}' <<<"$spec")
  lease=$(awk -F@ '{print $NF}' <<<"$spec")
  paddr="127.0.0.1:$(find_role "$newp" | awk '{print $3}')"
  local dms_ports
  mapfile -t dms_ports < <(state_lines | awk '$1=="dms" {print $3}')
  {
    echo "# role index port pid data_dir sync_policy repl"
    local role index port pid data_dir sync_policy repl peers p
    while read -r role index port pid data_dir sync_policy repl; do
      if [[ "$role" == dms && "${repl:--}" != "-" ]]; then
        peers=""
        for p in "${dms_ports[@]}"; do
          [[ "$p" == "$port" ]] || peers="${peers:+$peers,}127.0.0.1:$p"
        done
        if [[ "$role$index" == "$newp" ]]; then
          repl="primary@$peers@$ack@$lease"
        else
          repl="standby@$paddr@$peers@$ack@$lease"
        fi
      fi
      echo "$role $index $port $pid $data_dir $sync_policy ${repl:--}"
    done < <(state_lines)
  } >"$STATE.tmp" && mv "$STATE.tmp" "$STATE"
}

# Regenerate $OUT/cluster.view from the state file with the named dms
# (default dms0) as the primary and every other dms as a standby.
write_view() {
  local primary=${1:-dms0}
  local dms_list="" sby_list="" fms_list="" ost_list=""
  local role index port _rest addr
  while read -r role index port _rest; do
    addr="127.0.0.1:$port"
    case "$role" in
      dms)
        if [[ "$role$index" == "$primary" ]]; then dms_list=$addr
        else sby_list="${sby_list:+$sby_list,}$addr"; fi ;;
      fms) fms_list="${fms_list:+$fms_list,}$addr" ;;
      ost) ost_list="${ost_list:+$ost_list,}$addr" ;;
    esac
  done < <(state_lines)
  local view="dms=$dms_list"
  [[ -n "$sby_list" ]] && view="$view;dms_standby=$sby_list"
  view="$view;fms=$fms_list;ost=$ost_list"
  echo "$view" >"$OUT/cluster.view"
  echo "$view"
}

wait_ping() { # addr
  for _ in $(seq 1 100); do
    if "$LOCOD" ping "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

case "${1:-}" in
  crash)
    [[ -n "${2:-}" ]] || { echo "usage: cluster.sh crash ROLE" >&2; exit 2; }
    line=$(find_role "$2")
    [[ -n "$line" ]] || { echo "cluster.sh: no daemon $2 in $STATE" >&2; exit 1; }
    pid=$(awk '{print $4}' <<<"$line")
    kill -9 "$pid" 2>/dev/null || true
    echo "cluster.sh: crashed $2 (pid $pid, SIGKILL)"
    exit 0
    ;;
  restart)
    [[ -n "${2:-}" ]] || { echo "usage: cluster.sh restart ROLE" >&2; exit 2; }
    line=$(find_role "$2")
    [[ -n "$line" ]] || { echo "cluster.sh: no daemon $2 in $STATE" >&2; exit 1; }
    read -r role index port _pid data_dir sync_policy repl <<<"$line"
    newpid=$(start_one "$role" "$index" "$port" "$data_dir" "$sync_policy" "${repl:--}")
    if ! wait_ping "127.0.0.1:$port"; then
      echo "cluster.sh: $2 did not come back on 127.0.0.1:$port" >&2
      exit 1
    fi
    # Rewrite the state line with the new pid.
    awk -v n="$2" -v p="$newpid" '$1 $2 == n { $4 = p } { print }' "$STATE" \
      >"$STATE.tmp" && mv "$STATE.tmp" "$STATE"
    echo "cluster.sh: restarted $2 (pid $newpid) on 127.0.0.1:$port"
    exit 0
    ;;
  promote)
    [[ -n "${2:-}" ]] || { echo "usage: cluster.sh promote ROLE (e.g. dms1)" >&2; exit 2; }
    line=$(find_role "$2")
    [[ -n "$line" ]] || { echo "cluster.sh: no daemon $2 in $STATE" >&2; exit 1; }
    port=$(awk '{print $3}' <<<"$line")
    "$LOCOD" promote "127.0.0.1:$port" || exit 1
    update_repl_roles "$2"
    view=$(write_view "$2")
    echo "cluster.sh: promoted $2; new view: $view"
    echo "cluster.sh: clients pick it up via LOCO_CLUSTER_FILE=$OUT/cluster.view"
    exit 0
    ;;
  failover)
    # Kill the current dms primary with SIGKILL, then promote a standby
    # (the named one, or the first other dms in the state file).
    [[ -f "$STATE" ]] || { echo "cluster.sh: no $STATE (boot with --keep first)" >&2; exit 1; }
    target="${2:-}"
    primary=""
    while read -r role index port _rest; do
      [[ "$role" == dms ]] || continue
      if "$LOCOD" repl-status "127.0.0.1:$port" 2>/dev/null | grep -q "role=primary"; then
        primary="$role$index"
        break
      fi
    done < <(state_lines)
    primary="${primary:-dms0}"
    if [[ -z "$target" ]]; then
      target=$(state_lines | awk -v p="$primary" '$1 == "dms" && $1 $2 != p { print $1 $2; exit }')
    fi
    [[ -n "$target" ]] || { echo "cluster.sh: no standby to promote" >&2; exit 1; }
    pid=$(find_role "$primary" | awk '{print $4}')
    kill -9 "$pid" 2>/dev/null || true
    echo "cluster.sh: crashed primary $primary (pid $pid, SIGKILL)"
    exec "$0" promote "$target"
    ;;
  status)
    # One-shot dashboard snapshot of the recorded cluster: exits
    # non-zero if any daemon is unreachable. Extra args pass through
    # (e.g. `status --timeout-ms 5000`; drop --json with a table-mode
    # locotop invocation instead if you want the human view).
    [[ -f "$STATE" ]] || { echo "cluster.sh: no $STATE (boot with --keep first)" >&2; exit 1; }
    LOCOTOP=target/release/locotop
    [[ -x "$LOCOTOP" ]] || cargo build --release -q --bin locotop
    shift
    exec "$LOCOTOP" --state "$STATE" --once --json "$@"
    ;;
  logs)
    # Tail the in-memory log ring of one daemon (or all of them).
    [[ -f "$STATE" ]] || { echo "cluster.sh: no $STATE (boot with --keep first)" >&2; exit 1; }
    shift
    role=""
    if [[ -n "${1:-}" && "${1:0:2}" != "--" ]]; then role=$1; shift; fi
    if [[ -n "$role" ]]; then
      line=$(find_role "$role")
      [[ -n "$line" ]] || { echo "cluster.sh: no daemon $role in $STATE" >&2; exit 1; }
      port=$(awk '{print $3}' <<<"$line")
      exec "$LOCOD" logs "127.0.0.1:$port" "$@"
    fi
    while read -r role index port _rest; do
      echo "=== $role$index (127.0.0.1:$port) ==="
      "$LOCOD" logs "127.0.0.1:$port" "$@" || true
    done < <(state_lines)
    exit 0
    ;;
  collect)
    [[ -f "$STATE" ]] || { echo "cluster.sh: no $STATE (boot with --keep first)" >&2; exit 1; }
    shift
    mkdir -p "$OUT/collect"
    exec "$LOCOD" collect --state "$STATE" --out "$OUT/collect" "$@"
    ;;
  report)
    shift
    [[ -d "$OUT/collect" ]] || { echo "cluster.sh: no $OUT/collect (run the collect subcommand first)" >&2; exit 1; }
    exec "$LOCOD" report --out "$OUT/collect" "$@"
    ;;
  stop)
    [[ -f "$STATE" ]] || { echo "cluster.sh: no $STATE" >&2; exit 1; }
    while read -r role index port pid _rest; do
      addr="127.0.0.1:$port"
      "$LOCOD" shutdown "$addr" >/dev/null 2>&1 || true
      for _ in $(seq 1 50); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
      done
      kill -9 "$pid" 2>/dev/null || true
    done < <(state_lines)
    rm -f "$STATE"
    echo "cluster.sh: cluster stopped"
    exit 0
    ;;
esac

# --- boot path --------------------------------------------------------

FMS=2
OST=2
BASE_PORT=7100
KEEP=0
DATA_DIR="-"
SYNC_POLICY=os-managed
WORKERS="${WORKERS:-}"
CHECKPOINT_EVERY="${CHECKPOINT_EVERY:-}"
MAX_INFLIGHT="${MAX_INFLIGHT:-}"
SHED_WATERMARK="${SHED_WATERMARK:-}"
DMS_STANDBYS=0
REPL_ACK=one
REPL_LEASE_MS=500
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fms) FMS=$2; shift 2 ;;
    --ost) OST=$2; shift 2 ;;
    --base-port) BASE_PORT=$2; shift 2 ;;
    --data-dir) DATA_DIR=$2; shift 2 ;;
    --sync-policy) SYNC_POLICY=$2; shift 2 ;;
    --workers) WORKERS=$2; shift 2 ;;
    --checkpoint-every) CHECKPOINT_EVERY=$2; shift 2 ;;
    --max-inflight) MAX_INFLIGHT=$2; shift 2 ;;
    --shed-watermark) SHED_WATERMARK=$2; shift 2 ;;
    --dms-standbys) DMS_STANDBYS=$2; shift 2 ;;
    --repl-ack) REPL_ACK=$2; shift 2 ;;
    --repl-lease-ms) REPL_LEASE_MS=$2; shift 2 ;;
    --keep) KEEP=1; shift ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

if [[ "$DMS_STANDBYS" -gt 0 && "$DATA_DIR" == "-" ]]; then
  echo "cluster.sh: --dms-standbys needs --data-dir (replication ships the WAL)" >&2
  exit 2
fi
if [[ "$DMS_STANDBYS" -gt 0 && "$SYNC_POLICY" != every-record ]]; then
  echo "cluster.sh: --dms-standbys needs --sync-policy every-record" \
    "(only the group commit waits for the standby quorum)" >&2
  exit 2
fi

mkdir -p "$OUT"

cargo build --release -q --bin locod --bin mdtest_smoke --bin chaos_client
[[ "$DATA_DIR" == "-" ]] || mkdir -p "$DATA_DIR"

ADDRS=()
PIDS=()
ROLES=()
echo "# role index port pid data_dir sync_policy repl" >"$STATE"

start_daemon() { # role index port [repl]
  local role=$1 index=$2 port=$3 repl=${4:--} addr="127.0.0.1:$3"
  local pid
  pid=$(start_one "$role" "$index" "$port" "$DATA_DIR" "$SYNC_POLICY" "$repl")
  PIDS+=("$pid")
  ROLES+=("$role$index")
  ADDRS+=("$addr")
  echo "$role $index $port $pid $DATA_DIR $SYNC_POLICY $repl" >>"$STATE"
}

cleanup() {
  # Graceful drain first; SIGKILL only as a last resort.
  for addr in "${ADDRS[@]}"; do
    "$LOCOD" shutdown "$addr" >/dev/null 2>&1 || true
  done
  for i in "${!PIDS[@]}"; do
    for _ in $(seq 1 50); do
      kill -0 "${PIDS[$i]}" 2>/dev/null || continue 2
      sleep 0.1
    done
    echo "cluster.sh: ${ROLES[$i]} did not drain, killing" >&2
    kill -9 "${PIDS[$i]}" 2>/dev/null || true
  done
  rm -f "$STATE"
}

port=$BASE_PORT
# Allocate every dms address up front: each replica's peer list is all
# the *other* replicas (so a promoted standby can ship to the rest).
DMS_ADDRS=()
for i in $(seq 0 "$DMS_STANDBYS"); do
  DMS_ADDRS+=("127.0.0.1:$((BASE_PORT + i))")
done
peers_of() { # index -> comma list of the other dms addrs
  local me=$1 list="" j
  for j in "${!DMS_ADDRS[@]}"; do
    [[ "$j" == "$me" ]] || list="${list:+$list,}${DMS_ADDRS[$j]}"
  done
  echo "$list"
}
DMS_ADDR="${DMS_ADDRS[0]}"
if [[ "$DMS_STANDBYS" -gt 0 ]]; then
  start_daemon dms 0 "$port" "primary@$(peers_of 0)@$REPL_ACK@$REPL_LEASE_MS"
else
  start_daemon dms 0 "$port"
fi
port=$((port + 1))
SBY_ADDRS=""
for i in $(seq 1 "$DMS_STANDBYS"); do
  [[ "$DMS_STANDBYS" -gt 0 ]] || break
  start_daemon dms "$i" "$port" "standby@$DMS_ADDR@$(peers_of "$i")@$REPL_ACK@$REPL_LEASE_MS"
  SBY_ADDRS="${SBY_ADDRS:+$SBY_ADDRS,}127.0.0.1:$port"
  port=$((port + 1))
done
FMS_ADDRS=""
for i in $(seq 0 $((FMS - 1))); do
  start_daemon fms "$i" "$port"
  FMS_ADDRS="${FMS_ADDRS:+$FMS_ADDRS,}127.0.0.1:$port"
  port=$((port + 1))
done
OST_ADDRS=""
for i in $(seq 0 $((OST - 1))); do
  start_daemon ost "$i" "$port"
  OST_ADDRS="${OST_ADDRS:+$OST_ADDRS,}127.0.0.1:$port"
  port=$((port + 1))
done

export LOCO_CLUSTER="dms=$DMS_ADDR${SBY_ADDRS:+;dms_standby=$SBY_ADDRS};fms=$FMS_ADDRS;ost=$OST_ADDRS"
echo "$LOCO_CLUSTER" >"$OUT/cluster.view"
echo "cluster.sh: LOCO_CLUSTER=$LOCO_CLUSTER"
if [[ -n "$SBY_ADDRS" ]]; then
  echo "cluster.sh: failover-aware clients: export LOCO_CLUSTER_FILE=$OUT/cluster.view"
fi

# Wait until every daemon answers a control ping.
for addr in "${ADDRS[@]}"; do
  if ! wait_ping "$addr"; then
    echo "cluster.sh: $addr never came up" >&2
    cleanup
    exit 1
  fi
done
echo "cluster.sh: all $((1 + DMS_STANDBYS + FMS + OST)) daemons up \
(1 dms + $DMS_STANDBYS standby, $FMS fms, $OST ost)"

if [[ $KEEP -eq 1 ]]; then
  echo "cluster.sh: --keep: cluster left running; export LOCO_CLUSTER as above."
  echo "cluster.sh: drain with: scripts/cluster.sh stop"
  exit 0
fi

trap cleanup EXIT
rc=0
target/release/mdtest_smoke || rc=$?

# Scrape live per-daemon metrics before the graceful drain (the drain
# also writes each daemon's final dump via --metrics-out).
for i in "${!ADDRS[@]}"; do
  "$LOCOD" metrics "${ADDRS[$i]}" >"$OUT/locod-${ROLES[$i]}.live.prom" 2>/dev/null || true
done

echo "cluster.sh: artifacts in $OUT/"
exit $rc
