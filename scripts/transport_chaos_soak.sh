#!/usr/bin/env bash
# Real-TCP chaos soak (docs/CHAOS.md): two gsnd daemons federate over
# the epoll peer plane with the consumer side wrapped in the
# deterministic ChaosTransport decorator (--chaos-seed). The soak then
# scripts the fault plane over live traffic:
#
#   1. 20% frame loss in both directions       (repair must keep up)
#   2. a full partition, later healed          (stream must resume)
#   3. a forced connection reset               (redial must reconnect)
#   4. kill -9 of the producer + restart       (crash-recovery path)
#
# and asserts exactly-once admission at the consumer throughout: the
# mirror's row count equals its distinct-timestamp count (no gaps are
# abandoned, no duplicates are admitted). It also pins the determinism
# contract across processes: a twin daemon started with the same seed
# and the same rules must report the same schedule digest, and a
# different seed must not.
#
# usage: scripts/transport_chaos_soak.sh [gsnd]
set -euo pipefail

GSND="${1:-build/examples/example_gsnd}"
CHAOS_SEED=42
[ -x "$GSND" ] || { echo "FAIL: $GSND not built"; exit 1; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/gsn_chaos_soak.XXXXXX")"
PROD_DATA="$WORK/producer-data"
PROD_DESC="$WORK/producer-descriptors"
CONS_DATA="$WORK/consumer-data"
CONS_DESC="$WORK/consumer-descriptors"
mkdir -p "$PROD_DATA" "$PROD_DESC" "$CONS_DATA" "$CONS_DESC"
PROD_PID=""; CONS_PID=""; TWIN_PID=""
cleanup() {
  for pid in "$PROD_PID" "$CONS_PID" "$TWIN_PID"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$PROD_DESC/feed.xml" <<'XML'
<virtual-sensor name="feed">
  <metadata><predicate key="type" val="chaos-feed"/></metadata>
  <output-structure>
    <field name="seq" type="integer"/>
    <field name="value" type="double"/>
  </output-structure>
  <input-stream name="in">
    <stream-source alias="src" storage-size="1">
      <address wrapper="generator">
        <predicate key="interval-ms" val="20"/>
        <predicate key="payload-bytes" val="0"/>
      </address>
      <query>select seq, value from wrapper</query>
    </stream-source>
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>
XML

CONSUMER_XML='<virtual-sensor name="mirror">
  <output-structure>
    <field name="seq" type="integer"/>
    <field name="value" type="double"/>
  </output-structure>
  <input-stream name="in">
    <stream-source alias="src" storage-size="1">
      <address wrapper="remote">
        <predicate key="type" val="chaos-feed"/>
        <predicate key="retry-max-attempts" val="64"/>
        <predicate key="retry-max-backoff" val="1s"/>
      </address>
      <query>select * from wrapper</query>
    </stream-source>
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>'

# start_gsnd NAME LOG DATA DESC ARGS... — parses the HTTP port into
# $PORT and (with --listen) the peer port into $PEER_PORT.
start_gsnd() {
  local name="$1" log="$2" data="$3" desc="$4"; shift 4
  # Create the log before the daemon does: the port poll below reads it
  # under set -e, and sed on a missing file would end the script.
  : > "$log"
  "$GSND" --node-id "$name" --data-dir "$data" --descriptors "$desc" \
      --port 0 --tick-ms 20 "$@" > "$log" 2>&1 &
  local pid=$!
  disown "$pid"
  local port="" peer_port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")"
    peer_port="$(sed -n 's/.*peer plane on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")"
    [ -n "$port" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "FAIL: $name died:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "FAIL: $name never reported its port"; cat "$log"; exit 1; }
  PORT="$port"; PEER_PORT="$peer_port"; STARTED_PID="$pid"
}

api() { curl -fsS "http://127.0.0.1:$1/api/v1/$2"; }
chaos() {  # chaos PORT "command words"
  curl -fsS -X POST --data-binary "$2" "http://127.0.0.1:$1/api/v1/chaos"
}
digest_of() { api "$1" chaos | sed -n 's/.*"schedule_digest":"\([0-9a-f]*\)".*/\1/p'; }
metric_of() {  # metric_of PORT NAME -> summed value across label sets
  api "$1" metrics | awk -v name="$2" \
      '$1 ~ "^"name"([{]|$)" { sum += $NF } END { printf "%d\n", sum }'
}
# Exactly-once keys on `timed`: the generator restarts seq from 0 after
# the kill -9, but producer timestamps are unique — duplicates collide.
mirror_rows() {
  api "$CONS_PORT" \
      "query?sql=select%20count(*)%20as%20n%2C%20count(distinct%20timed)%20as%20d%20from%20mirror" |
      sed -n 's/.*"n":\([0-9]*\),"d":\([0-9]*\).*/\1 \2/p'
}
assert_no_dups() {  # assert_no_dups LABEL N D
  [ "$2" -eq "$3" ] || { echo "FAIL: duplicates $1 ($2 rows, $3 distinct)"; exit 1; }
}
wait_rows_past() {  # wait_rows_past THRESHOLD TRIES -> sets N, D
  local threshold="$1" tries="$2"
  for _ in $(seq 1 "$tries"); do
    set -- $(mirror_rows || echo "0 0"); N=$1; D=$2
    [ "$N" -gt "$threshold" ] && return 0
    sleep 0.1
  done
  return 1
}

# --- Bring up producer and chaos-wrapped consumer ---------------------
start_gsnd producer "$WORK/producer.log" "$PROD_DATA" "$PROD_DESC" --listen 0
PROD_PID="$STARTED_PID"; PROD_PORT="$PORT"; PROD_PEER_PORT="$PEER_PORT"
[ -n "$PROD_PEER_PORT" ] || { echo "FAIL: no peer plane banner"; cat "$WORK/producer.log"; exit 1; }
echo "ok: producer http=$PROD_PORT peer=$PROD_PEER_PORT"

start_gsnd consumer "$WORK/consumer.log" "$CONS_DATA" "$CONS_DESC" \
    --peer "producer=127.0.0.1:$PROD_PEER_PORT" --chaos-seed "$CHAOS_SEED"
CONS_PID="$STARTED_PID"; CONS_PORT="$PORT"
grep -q "chaos decorator armed (seed $CHAOS_SEED)" "$WORK/consumer.log" ||
    { echo "FAIL: consumer did not arm the chaos decorator"; cat "$WORK/consumer.log"; exit 1; }
echo "ok: consumer http=$CONS_PORT chaos seed=$CHAOS_SEED"

# --- Discovery + subscribe over the (still clean) chaos link ----------
FOUND=""
for _ in $(seq 1 100); do
  FOUND="$(api "$CONS_PORT" "discover?type=chaos-feed" | grep -o '"sensor":"feed"' || true)"
  [ -n "$FOUND" ] && break
  sleep 0.1
done
[ -n "$FOUND" ] || { echo "FAIL: consumer never discovered the feed";
                     cat "$WORK/consumer.log"; exit 1; }
curl -fsS -X POST --data-binary "$CONSUMER_XML" \
    "http://127.0.0.1:$CONS_PORT/api/v1/deploy" > /dev/null ||
    { echo "FAIL: consumer deploy"; cat "$WORK/consumer.log"; exit 1; }
wait_rows_past 20 150 || { echo "FAIL: stream never warmed up";
                           cat "$WORK/consumer.log"; exit 1; }
assert_no_dups "before chaos" "$N" "$D"
echo "ok: $N rows mirrored before chaos"

# --- Determinism: same seed + same rules => same digest ---------------
chaos "$CONS_PORT" "loss producer 0.2 both" | grep -q "loss producer = 0.2" ||
    { echo "FAIL: loss rule rejected"; exit 1; }
DIGEST="$(digest_of "$CONS_PORT")"
[ -n "$DIGEST" ] || { echo "FAIL: no schedule digest reported"; exit 1; }

start_gsnd twin "$WORK/twin.log" "$WORK/twin-data" "$WORK/twin-desc" \
    --peer "producer=127.0.0.1:$PROD_PEER_PORT" --chaos-seed "$CHAOS_SEED"
TWIN_PID="$STARTED_PID"; TWIN_PORT="$PORT"
chaos "$TWIN_PORT" "loss producer 0.2 both" > /dev/null
TWIN_DIGEST="$(digest_of "$TWIN_PORT")"
[ "$DIGEST" = "$TWIN_DIGEST" ] ||
    { echo "FAIL: same seed+rules, different digests ($DIGEST vs $TWIN_DIGEST)"; exit 1; }
chaos "$TWIN_PORT" "seed $((CHAOS_SEED + 1))" > /dev/null
RESEEDED="$(digest_of "$TWIN_PORT")"
[ "$DIGEST" != "$RESEEDED" ] ||
    { echo "FAIL: reseeding did not change the schedule digest"; exit 1; }
kill -9 "$TWIN_PID" 2>/dev/null || true
TWIN_PID=""
echo "ok: schedule digest $DIGEST reproduced by a twin daemon, reseed diverges"

# --- Soak under 20% loss: the repair protocol must keep up ------------
BEFORE="$N"
wait_rows_past $((BEFORE + 20)) 300 ||
    { echo "FAIL: stream stalled under 20% loss"; cat "$WORK/consumer.log"; exit 1; }
assert_no_dups "under loss" "$N" "$D"
DROPPED="$(api "$CONS_PORT" chaos | sed -n 's/.*"dropped":\([0-9]*\).*/\1/p')"
[ "$DROPPED" -gt 0 ] || { echo "FAIL: chaos injected no drops"; exit 1; }
echo "ok: grew $BEFORE -> $N rows under loss ($DROPPED frames dropped)"

# --- Partition, then heal ---------------------------------------------
chaos "$CONS_PORT" "partition producer" | grep -q "partitioned producer" ||
    { echo "FAIL: partition rejected"; exit 1; }
sleep 2
chaos "$CONS_PORT" "heal producer" > /dev/null
chaos "$CONS_PORT" "loss producer 0.2 both" > /dev/null  # keep residual loss
BEFORE="$N"
wait_rows_past $((BEFORE + 10)) 300 ||
    { echo "FAIL: stream did not resume after partition healed";
      cat "$WORK/consumer.log"; exit 1; }
assert_no_dups "after partition" "$N" "$D"
echo "ok: stream resumed after partition ($BEFORE -> $N rows)"

# --- Forced connection reset: redial must bring the link back ---------
RECONNECTS_BEFORE="$(metric_of "$CONS_PORT" gsn_transport_reconnects_total)"
chaos "$CONS_PORT" "reset producer" | grep -q "reset producer" ||
    { echo "FAIL: forced reset rejected"; exit 1; }
BEFORE="$N"
wait_rows_past $((BEFORE + 10)) 300 ||
    { echo "FAIL: stream did not survive a forced reset";
      cat "$WORK/consumer.log"; exit 1; }
assert_no_dups "after reset" "$N" "$D"
RESETS="$(metric_of "$CONS_PORT" gsn_transport_resets_total)"
[ "$RESETS" -ge 1 ] || { echo "FAIL: resets_total did not count"; exit 1; }
echo "ok: stream survived a forced reset ($BEFORE -> $N rows, resets=$RESETS)"

# --- kill -9 the producer mid-stream, restart on the same port --------
kill -9 "$PROD_PID"
wait "$PROD_PID" 2>/dev/null || true
PROD_PID=""
BEFORE="$N"
echo "ok: producer killed -9 at $BEFORE rows; restarting on the same port"
start_gsnd producer "$WORK/producer2.log" "$PROD_DATA" "$PROD_DESC" \
    --listen "$PROD_PEER_PORT"
PROD_PID="$STARTED_PID"
# Recovery rides the consumer's subscription restart detector: the
# redialed link looks healthy, so ~FederationEngine::kSilenceTimeout
# (10s) passes before the resubscribe, then streaming resumes at full
# rate.
wait_rows_past $((BEFORE + 20)) 400 ||
    { echo "FAIL: stream did not resume after producer restart";
      cat "$WORK/consumer.log"; exit 1; }
assert_no_dups "after producer restart" "$N" "$D"
RECONNECTS="$(metric_of "$CONS_PORT" gsn_transport_reconnects_total)"
[ "$RECONNECTS" -gt "$RECONNECTS_BEFORE" ] ||
    { echo "FAIL: reconnects_total never advanced ($RECONNECTS_BEFORE -> $RECONNECTS)"; exit 1; }
# Printed, not gated: how often the silence detector and failover had
# to repair the subscription. Durable producer subscriptions (ROADMAP
# item 5) should bring resubscribes to 0.
RESUBSCRIBES="$(metric_of "$CONS_PORT" gsn_federation_resubscribes_total)"
FAILOVERS="$(metric_of "$CONS_PORT" gsn_federation_failovers_total)"
echo "ok: stream resumed after kill -9 ($BEFORE -> $N rows, reconnects=$RECONNECTS, resubscribes=$RESUBSCRIBES, failovers=$FAILOVERS)"

# --- Final exactly-once sweep with the fault plane cleared ------------
chaos "$CONS_PORT" "heal" > /dev/null
BEFORE="$N"
wait_rows_past $((BEFORE + 20)) 200 ||
    { echo "FAIL: stream stalled after heal"; exit 1; }
assert_no_dups "final" "$N" "$D"
echo "PASS: transport chaos soak ($N rows, exactly once, seed $CHAOS_SEED)"
