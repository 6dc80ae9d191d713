#!/usr/bin/env bash
# Federation-over-real-sockets smoke test (docs/TRANSPORT.md): two gsnd
# daemons federate through a NAT-style TCP forwarder, then the producer
# is killed -9 mid-stream and restarted, and the consumer's mirror must
# keep growing with every admitted row exactly once.
#
# Topology (the paper's sensd gateway scenario):
#
#   consumer gsnd --peer producer=<forwarder>   (never listens)
#        |  dials
#   example_nat_forwarder                        (dumb byte relay)
#        |  dials
#   producer gsnd --listen <peer-port>           (never dials back)
#
# The producer cannot reach the consumer; directory gossip, subscribe
# acks, and the stream itself all ride the consumer-initiated
# connection (EpollTransport reply routing + announce-on-first-contact).
#
# usage: scripts/transport_gateway_smoke.sh [gsnd] [nat_forwarder]
set -euo pipefail

GSND="${1:-build/examples/example_gsnd}"
FWD="${2:-build/examples/example_nat_forwarder}"
[ -x "$GSND" ] || { echo "FAIL: $GSND not built"; exit 1; }
[ -x "$FWD" ] || { echo "FAIL: $FWD not built"; exit 1; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/gsn_gateway.XXXXXX")"
PROD_DATA="$WORK/producer-data"
PROD_DESC="$WORK/producer-descriptors"
CONS_DATA="$WORK/consumer-data"
CONS_DESC="$WORK/consumer-descriptors"
mkdir -p "$PROD_DATA" "$PROD_DESC" "$CONS_DATA" "$CONS_DESC"
PROD_PID=""; CONS_PID=""; FWD_PID=""
cleanup() {
  for pid in "$PROD_PID" "$CONS_PID" "$FWD_PID"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# Producer: a generator stream published with discovery metadata.
cat > "$PROD_DESC/feed.xml" <<'XML'
<virtual-sensor name="feed">
  <metadata><predicate key="type" val="gateway-feed"/></metadata>
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
        <predicate key="type" val="gateway-feed"/>
      </address>
      <query>select * from wrapper</query>
    </stream-source>
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>'

# start_gsnd NAME LOG DATA DESC LISTEN_ARGS... — parses the HTTP port
# into $PORT and (when --listen is used) the peer port into $PEER_PORT.
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
# Exactly-once keys on `timed`: the generator restarts seq from 0 after
# the kill, but producer timestamps are unique — duplicates collide.
mirror_rows() {
  api "$CONS_PORT" \
      "query?sql=select%20count(*)%20as%20n%2C%20count(distinct%20timed)%20as%20d%20from%20mirror" |
      sed -n 's/.*"n":\([0-9]*\),"d":\([0-9]*\).*/\1 \2/p'
}

# --- Bring up producer, forwarder, consumer ---------------------------
start_gsnd producer "$WORK/producer.log" "$PROD_DATA" "$PROD_DESC" --listen 0
PROD_PID="$STARTED_PID"; PROD_PORT="$PORT"; PROD_PEER_PORT="$PEER_PORT"
[ -n "$PROD_PEER_PORT" ] || { echo "FAIL: no peer plane banner"; cat "$WORK/producer.log"; exit 1; }
echo "ok: producer http=$PROD_PORT peer=$PROD_PEER_PORT"

"$FWD" --listen 0 --target "127.0.0.1:$PROD_PEER_PORT" > "$WORK/fwd.log" 2>&1 &
FWD_PID=$!
disown "$FWD_PID"
FWD_PORT=""
for _ in $(seq 1 100); do
  FWD_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/fwd.log")"
  [ -n "$FWD_PORT" ] && break
  sleep 0.1
done
[ -n "$FWD_PORT" ] || { echo "FAIL: forwarder never bound"; cat "$WORK/fwd.log"; exit 1; }
echo "ok: forwarder on $FWD_PORT -> $PROD_PEER_PORT"

# The consumer only knows the forwarder's address and never listens.
start_gsnd consumer "$WORK/consumer.log" "$CONS_DATA" "$CONS_DESC" \
    --peer "producer=127.0.0.1:$FWD_PORT"
CONS_PID="$STARTED_PID"; CONS_PORT="$PORT"
echo "ok: consumer http=$CONS_PORT dialing through forwarder"

# --- Discovery across the gateway -------------------------------------
# The consumer's first heartbeat through the forwarder makes the
# producer announce its directory back over the same connection.
FOUND=""
for _ in $(seq 1 100); do
  FOUND="$(api "$CONS_PORT" "discover?type=gateway-feed" | grep -o '"sensor":"feed"' || true)"
  [ -n "$FOUND" ] && break
  sleep 0.1
done
[ -n "$FOUND" ] || { echo "FAIL: consumer never discovered the feed";
                     cat "$WORK/consumer.log"; exit 1; }
echo "ok: feed discovered across the gateway"

curl -fsS -X POST --data-binary "$CONSUMER_XML" \
    "http://127.0.0.1:$CONS_PORT/api/v1/deploy" > /dev/null ||
    { echo "FAIL: consumer deploy"; cat "$WORK/consumer.log"; exit 1; }

# --- Stream across real sockets ---------------------------------------
ROWS=0
for _ in $(seq 1 150); do
  set -- $(mirror_rows || echo "0 0"); ROWS=$1
  [ "$ROWS" -ge 20 ] && break
  sleep 0.1
done
[ "$ROWS" -ge 20 ] || { echo "FAIL: only $ROWS rows crossed the gateway";
                        cat "$WORK/consumer.log"; exit 1; }
set -- $(mirror_rows); N=$1; D=$2
[ "$N" -eq "$D" ] || { echo "FAIL: duplicates before crash ($N vs $D)"; exit 1; }
echo "ok: $N rows mirrored across the gateway, no duplicates"

# The transport surfaces the live peer link on both sides.
api "$CONS_PORT" transport | grep -q '"kind":"peer-out"' ||
    { echo "FAIL: consumer transport shows no outbound peer link"; exit 1; }
api "$PROD_PORT" transport | grep -q '"kind":"peer-in"' ||
    { echo "FAIL: producer transport shows no inbound peer link"; exit 1; }

# --- kill -9 the producer mid-stream ----------------------------------
kill -9 "$PROD_PID"
wait "$PROD_PID" 2>/dev/null || true
PROD_PID=""
BEFORE="$N"
echo "ok: producer killed -9 at $BEFORE rows; restarting on the same port"

# Same peer port so the forwarder's target stays valid.
start_gsnd producer "$WORK/producer2.log" "$PROD_DATA" "$PROD_DESC" \
    --listen "$PROD_PEER_PORT"
PROD_PID="$STARTED_PID"; PROD_PORT="$PORT"

# The consumer must re-attach (redial through the forwarder, then its
# restart detector resubscribes once the old subscription goes silent)
# and the mirror must properly resume — a trickle row from late repair
# does not count, real streaming does.
NOW="$BEFORE"
for _ in $(seq 1 300); do
  set -- $(mirror_rows || echo "0 0"); NOW=$1; D=$2
  [ "$NOW" -gt $((BEFORE + 10)) ] && break
  sleep 0.1
done
[ "$NOW" -gt $((BEFORE + 10)) ] || { echo "FAIL: stream did not resume after restart";
                                     cat "$WORK/consumer.log"; exit 1; }
[ "$NOW" -eq "$D" ] || { echo "FAIL: duplicates after producer crash ($NOW vs $D)"; exit 1; }
echo "ok: stream resumed after kill -9 ($BEFORE -> $NOW rows, no duplicates)"

echo "PASS: transport gateway smoke"
