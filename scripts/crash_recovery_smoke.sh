#!/usr/bin/env bash
# Crash-recovery smoke test (docs/DURABILITY.md): start a gsnd daemon
# over a fresh --data-dir, hot-deploy a generator sensor, let it
# stream, kill -9 mid-stream, restart over the same --data-dir, and
# assert that the sensor redeployed and every fsynced row came back
# exactly once (count == distinct count > 0), then that the recovered
# node keeps streaming.
#
# Phase 3 exercises the tiered columnar history (docs/STORAGE.md): a
# second sensor with a 5-row retention window checkpoints its evicted
# history into segment files, survives another kill -9, and still
# serves its full history exactly once across the window/segment seam.
#
# Phase 4 exercises the sharded core (docs/CONCURRENCY.md): the same
# data dir recovers under GSN_SHARDS=4, survives a kill -9, and
# recovers again under GSN_SHARDS=2 — shard count is tuning, not state.
#
# usage: scripts/crash_recovery_smoke.sh [path-to-example_gsnd]
set -euo pipefail

GSND="${1:-build/examples/example_gsnd}"
[ -x "$GSND" ] || { echo "FAIL: $GSND not built"; exit 1; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/gsn_smoke.XXXXXX")"
DATA="$WORK/data"
DESC="$WORK/descriptors"
LOG="$WORK/gsnd.log"
mkdir -p "$DATA" "$DESC"
GSND_PID=""
cleanup() { [ -n "$GSND_PID" ] && kill -9 "$GSND_PID" 2>/dev/null || true
            rm -rf "$WORK"; }
trap cleanup EXIT

cat > "$DESC/smoke.xml" <<'XML'
<virtual-sensor name="smoke">
  <output-structure>
    <field name="seq" type="integer"/>
  </output-structure>
  <storage permanent-storage="true" size="10m"/>
  <input-stream name="in">
    <stream-source alias="src" storage-size="1">
      <address wrapper="generator">
        <predicate key="interval-ms" val="10"/>
        <predicate key="payload-bytes" val="0"/>
      </address>
      <query>select seq from wrapper order by seq desc limit 1</query>
    </stream-source>
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>
XML

# 5-row retention window: everything older is evicted to the columnar
# history tier at each checkpoint.
cat > "$DESC/cold.xml" <<'XML'
<virtual-sensor name="cold">
  <output-structure>
    <field name="seq" type="integer"/>
  </output-structure>
  <storage permanent-storage="true" size="5"/>
  <input-stream name="in">
    <stream-source alias="src" storage-size="1">
      <address wrapper="generator">
        <predicate key="interval-ms" val="10"/>
        <predicate key="payload-bytes" val="0"/>
      </address>
      <query>select seq from wrapper order by seq desc limit 1</query>
    </stream-source>
    <query>select * from src</query>
  </input-stream>
</virtual-sensor>
XML

start_gsnd() {
  # Create the log before the daemon does: the port poll below reads it
  # under set -e, and sed on a missing file would end the script.
  : > "$LOG"
  "$GSND" --data-dir "$DATA" --descriptors "$DESC" --port 0 \
      --tick-ms 20 > "$LOG" 2>&1 &
  GSND_PID=$!
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
    [ -n "$PORT" ] && return 0
    kill -0 "$GSND_PID" 2>/dev/null || { echo "FAIL: gsnd died:"; cat "$LOG"; exit 1; }
    sleep 0.1
  done
  echo "FAIL: gsnd never reported its port"; cat "$LOG"; exit 1
}

api() { curl -fsS "http://127.0.0.1:$PORT/api/v1/$1"; }
# Exactly-once check keys on `timed`, not seq: the generator restarts
# its sequence from 0 after a crash, but every element's timestamp is
# unique — replayed duplicates would collide on it.
count_rows() {
  local table="${1:-smoke}"
  api "query?sql=select%20count(*)%20as%20n%2C%20count(distinct%20timed)%20as%20d%20from%20$table" |
      sed -n 's/.*"n":\([0-9]*\),"d":\([0-9]*\).*/\1 \2/p'
}

# --- Phase 1: stream, then die hard ----------------------------------
start_gsnd
api healthz | grep -q '"status":"ok"' || { echo "FAIL: healthz"; exit 1; }
api readyz  | grep -q '"ready":true'  || { echo "FAIL: readyz"; exit 1; }

# Wait until the hot-deployed sensor has produced some rows.
ROWS=0
for _ in $(seq 1 100); do
  set -- $(count_rows || echo "0 0"); ROWS=$1
  [ "$ROWS" -ge 20 ] && break
  sleep 0.1
done
[ "$ROWS" -ge 20 ] || { echo "FAIL: sensor produced only $ROWS rows"; cat "$LOG"; exit 1; }
echo "ok: streamed $ROWS rows; kill -9 mid-stream"
kill -9 "$GSND_PID"
wait "$GSND_PID" 2>/dev/null || true
GSND_PID=""

# --- Phase 2: restart over the same --data-dir -----------------------
start_gsnd
grep -q "manifest records replayed" "$LOG" || { echo "FAIL: no recovery banner"; cat "$LOG"; exit 1; }
api sensors | grep -q '"name":"smoke"' || { echo "FAIL: sensor not redeployed"; cat "$LOG"; exit 1; }

set -- $(count_rows); RECOVERED=$1; DISTINCT=$2
[ "$RECOVERED" -gt 0 ] || { echo "FAIL: no rows recovered"; exit 1; }
[ "$RECOVERED" -eq "$DISTINCT" ] || {
  echo "FAIL: duplicate rows after recovery ($RECOVERED vs $DISTINCT distinct)"; exit 1; }
echo "ok: recovered $RECOVERED rows, no duplicates"

# The recovered node keeps streaming.
for _ in $(seq 1 100); do
  set -- $(count_rows); NOW=$1
  [ "$NOW" -gt "$RECOVERED" ] && break
  sleep 0.1
done
[ "$NOW" -gt "$RECOVERED" ] || { echo "FAIL: recovered node is not streaming"; exit 1; }

# --- Phase 3: segment tier survives another hard kill -----------------
# The "cold" sensor's 5-row window has evicted most of its history by
# now; a checkpoint flushes the evicted rows into columnar segments.
COLD=0
for _ in $(seq 1 100); do
  set -- $(count_rows cold || echo "0 0"); COLD=$1
  [ "$COLD" -ge 20 ] && break
  sleep 0.1
done
[ "$COLD" -ge 20 ] || { echo "FAIL: cold sensor produced only $COLD rows"; cat "$LOG"; exit 1; }
curl -fsS -X POST "http://127.0.0.1:$PORT/api/v1/checkpoint" > /dev/null ||
    { echo "FAIL: checkpoint"; exit 1; }
SEGMENTS="$(api segments)"
echo "$SEGMENTS" | grep -q '"enabled":true' || { echo "FAIL: segments disabled: $SEGMENTS"; exit 1; }
echo "$SEGMENTS" | grep -q '"table":"cold"' || { echo "FAIL: no cold segment: $SEGMENTS"; exit 1; }
set -- $(count_rows cold); COLD_N=$1; COLD_D=$2
[ "$COLD_N" -eq "$COLD_D" ] || { echo "FAIL: seam duplicated rows ($COLD_N vs $COLD_D)"; exit 1; }
[ "$COLD_N" -gt 5 ] || { echo "FAIL: history lost at checkpoint ($COLD_N rows)"; exit 1; }
echo "ok: $COLD_N cold rows tiered into segments; kill -9 again"

kill -9 "$GSND_PID"
wait "$GSND_PID" 2>/dev/null || true
GSND_PID=""
start_gsnd
SEGMENTS="$(api segments)"
echo "$SEGMENTS" | grep -q '"table":"cold"' || { echo "FAIL: segments lost in crash: $SEGMENTS"; exit 1; }
set -- $(count_rows cold); COLD_AFTER=$1; COLD_AFTER_D=$2
[ "$COLD_AFTER" -eq "$COLD_AFTER_D" ] || {
  echo "FAIL: duplicates across window/segment seam ($COLD_AFTER vs $COLD_AFTER_D)"; exit 1; }
# Rows appended after the checkpoint may not have been fsynced before
# the kill, but the flushed segments + the rewritten 5-row WAL are
# durable: far more history than the live window alone could hold.
[ "$COLD_AFTER" -gt 5 ] || {
  echo "FAIL: segment history lost in crash ($COLD_AFTER rows)"; exit 1; }
echo "ok: segment tier intact after kill -9 ($COLD_AFTER rows, no duplicates)"

# --- Phase 4: sharded recovery (GSN_SHARDS) ---------------------------
# The shard count is a runtime tuning knob, not durable state
# (docs/CONCURRENCY.md): the same data dir must recover under a 4-shard
# core, and a 4-shard node killed mid-stream must recover under 2
# shards — the FNV placement just re-buckets the sensors.
kill -TERM "$GSND_PID"
for _ in $(seq 1 100); do
  kill -0 "$GSND_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$GSND_PID" 2>/dev/null && { echo "FAIL: gsnd did not drain before phase 4"; exit 1; }
GSND_PID=""

GSN_SHARDS=4 start_gsnd
api status | grep -q '"index":3' || { echo "FAIL: not running 4 shards"; cat "$LOG"; exit 1; }
api sensors | grep -q '"name":"smoke"' || { echo "FAIL: sensor lost under 4 shards"; exit 1; }
set -- $(count_rows); SHARDED=$1; SHARDED_D=$2
[ "$SHARDED" -gt 0 ] || { echo "FAIL: no rows under 4 shards"; exit 1; }
[ "$SHARDED" -eq "$SHARDED_D" ] || {
  echo "FAIL: duplicates under 4 shards ($SHARDED vs $SHARDED_D)"; exit 1; }
for _ in $(seq 1 100); do
  set -- $(count_rows); NOW=$1
  [ "$NOW" -gt "$SHARDED" ] && break
  sleep 0.1
done
[ "$NOW" -gt "$SHARDED" ] || { echo "FAIL: 4-shard node is not streaming"; exit 1; }
echo "ok: 4-shard recovery streamed $NOW rows; kill -9 the sharded node"

kill -9 "$GSND_PID"
wait "$GSND_PID" 2>/dev/null || true
GSND_PID=""
GSN_SHARDS=2 start_gsnd
api sensors | grep -q '"name":"smoke"' || { echo "FAIL: sensor lost re-bucketing 4->2 shards"; exit 1; }
set -- $(count_rows); REBUCKET=$1; REBUCKET_D=$2
[ "$REBUCKET" -gt 0 ] || { echo "FAIL: no rows after 4->2 re-bucket"; exit 1; }
[ "$REBUCKET" -eq "$REBUCKET_D" ] || {
  echo "FAIL: duplicates after 4->2 re-bucket ($REBUCKET vs $REBUCKET_D)"; exit 1; }
echo "ok: crashed 4-shard node recovered under 2 shards ($REBUCKET rows, no duplicates)"

# Graceful path: SIGTERM drains and exits 0.
kill -TERM "$GSND_PID"
for _ in $(seq 1 100); do
  kill -0 "$GSND_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$GSND_PID" 2>/dev/null; then
  echo "FAIL: gsnd did not drain on SIGTERM"; exit 1
fi
GSND_PID=""
grep -q "gsnd: bye" "$LOG" || { echo "FAIL: no clean shutdown"; cat "$LOG"; exit 1; }

echo "PASS: crash recovery smoke"
