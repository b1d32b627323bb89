#!/bin/sh
# server-smoke.sh — end-to-end smoke of the serving layer: build the
# CLI and the load generator, init a dataset, start `decibel serve`,
# drive ~5s of mixed read/commit traffic with 32 concurrent clients,
# then assert zero errors, that the server's counters moved — served
# point reads included (decibel.point_lookups: every served read pins a
# commit, so this is the commit-pinned lookup path) — and that SIGTERM
# shuts the server down cleanly. A second, shorter phase serves a
# version-first dataset and asserts that its point reads are served as
# lookups and that the lineage cache still engages for its scans
# (decibel.vf.lineage_cache_hits moves), with zero errors. It serves
# the dataset without -engine, so the cache hits also show that the
# engine the dataset recorded opened it; after shutdown, stats must
# name that engine.
#
# Usage: sh scripts/server-smoke.sh [latency.json]
#
# Environment:
#   ADDR      listen address  (default 127.0.0.1:18527)
#   DURATION  loadgen run     (default 5s)
#   CLIENTS   loadgen clients (default 32)
set -eu

OUT="${1:-latency.json}"
ADDR="${ADDR:-127.0.0.1:18527}"
DURATION="${DURATION:-5s}"
CLIENTS="${CLIENTS:-32}"

WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/decibel" ./cmd/decibel
go build -o "$WORK/decibel-loadgen" ./cmd/decibel-loadgen

"$WORK/decibel" -dir "$WORK/data" init qty,price:float64,sku:bytes8

"$WORK/decibel" -dir "$WORK/data" serve -addr "$ADDR" &
SRV_PID=$!

# Wait for the server to come up.
i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "server-smoke: server never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

# var NAME [ADDR] — read one integer counter off /debug/vars.
var() {
    curl -fsS "http://${2:-$ADDR}/debug/vars" |
        tr '{,}' '\n' | grep "\"$1\"" | grep -o '[0-9][0-9]*$'
}

# Mixed traffic; the loadgen exits non-zero if any operation failed.
POINT_BEFORE="$(var decibel.point_lookups)"
"$WORK/decibel-loadgen" -url "http://$ADDR" -table r -branch master \
    -clients "$CLIENTS" -duration "$DURATION" -commit-frac 0.2 -json "$OUT" &
LOAD_PID=$!

# Mid-load, trigger a compaction pass over the live dataset: page
# re-encoding must retire files under the 32 clients without a single
# failed request.
sleep 2
COMPACT_BEFORE="$(var decibel.compactions)"
curl -fsS -X POST "http://$ADDR/v1/compact" >/dev/null
COMPACT_AFTER="$(var decibel.compactions)"

# set -eu: a loadgen failure (any errored operation) aborts here.
wait "$LOAD_PID"

# One join and one group-by over /v1/query: the relational-algebra
# clauses must serve against the freshly written dataset. The self-join
# on the primary key pairs every master row with itself; the grouped
# aggregate buckets by qty. Both must report a positive count.
JOIN_COUNT="$(curl -fsS -X POST "http://$ADDR/v1/query" \
    -d '{"table":"r","branches":["master"],"join":[{"table":"r","on":["id","id"]}]}' |
    grep -o '"count":[0-9][0-9]*' | grep -o '[0-9][0-9]*$')"
[ "$JOIN_COUNT" -gt 0 ] || { echo "server-smoke: join query returned no tuples" >&2; exit 1; }

GROUP_COUNT="$(curl -fsS -X POST "http://$ADDR/v1/query" \
    -d '{"table":"r","branches":["master"],"groupBy":["qty"],"aggs":[{"agg":"count"},{"agg":"avg","col":"price"}]}' |
    grep -o '"count":[0-9][0-9]*' | grep -o '[0-9][0-9]*$')"
[ "$GROUP_COUNT" -gt 0 ] || { echo "server-smoke: group-by query returned no groups" >&2; exit 1; }
echo "server-smoke: join tuples=$JOIN_COUNT groups=$GROUP_COUNT"

[ "$COMPACT_AFTER" -gt "$COMPACT_BEFORE" ] || {
    echo "server-smoke: compaction counter never moved ($COMPACT_BEFORE -> $COMPACT_AFTER)" >&2
    exit 1
}

REQUESTS="$(var decibel.server.requests)"
COMMITS="$(var decibel.server.commits)"
ERRORS="$(var decibel.server.errors)"
POINT_AFTER="$(var decibel.point_lookups)"
echo "server-smoke: requests=$REQUESTS commits=$COMMITS errors=$ERRORS point_lookups=$POINT_BEFORE->$POINT_AFTER"
[ "$REQUESTS" -gt 0 ] || { echo "server-smoke: request counter never moved" >&2; exit 1; }
[ "$POINT_AFTER" -gt "$POINT_BEFORE" ] || { echo "server-smoke: no served point read was a lookup" >&2; exit 1; }
[ "$COMMITS" -gt 0 ] || { echo "server-smoke: commit counter never moved" >&2; exit 1; }
[ "$ERRORS" -eq 0 ] || { echo "server-smoke: server counted $ERRORS errors" >&2; exit 1; }

# Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "server-smoke: serve did not exit cleanly on SIGTERM" >&2
    exit 1
fi
SRV_PID=""

# Version-first phase: serve a vf dataset and assert its point reads
# are lookups and the lineage cache engages under live traffic —
# repeated resolutions of the scans' versions must hit the cache, so a
# silently disabled cache fails the smoke.
VF_ADDR="${VF_ADDR:-127.0.0.1:18528}"
VF_DURATION="${VF_DURATION:-2s}"

"$WORK/decibel" -dir "$WORK/data-vf" -engine vf init qty,price:float64,sku:bytes8
"$WORK/decibel" -dir "$WORK/data-vf" serve -addr "$VF_ADDR" &
SRV_PID=$!

i=0
until curl -fsS "http://$VF_ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "server-smoke: vf server never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

VF_POINT_BEFORE="$(var decibel.point_lookups "$VF_ADDR")"
"$WORK/decibel-loadgen" -url "http://$VF_ADDR" -table r -branch master \
    -clients 8 -duration "$VF_DURATION" -commit-frac 0.2 -json "$WORK/vf-latency.json"

VF_HITS="$(var decibel.vf.lineage_cache_hits "$VF_ADDR")"
VF_ERRORS="$(var decibel.server.errors "$VF_ADDR")"
VF_POINT_AFTER="$(var decibel.point_lookups "$VF_ADDR")"
echo "server-smoke: vf lineage_cache_hits=$VF_HITS errors=$VF_ERRORS point_lookups=$VF_POINT_BEFORE->$VF_POINT_AFTER"
[ "$VF_HITS" -gt 0 ] || { echo "server-smoke: vf lineage cache never hit" >&2; exit 1; }
[ "$VF_POINT_AFTER" -gt "$VF_POINT_BEFORE" ] || { echo "server-smoke: no served vf point read was a lookup" >&2; exit 1; }
[ "$VF_ERRORS" -eq 0 ] || { echo "server-smoke: vf server counted $VF_ERRORS errors" >&2; exit 1; }

kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "server-smoke: vf serve did not exit cleanly on SIGTERM" >&2
    exit 1
fi
SRV_PID=""
"$WORK/decibel" -dir "$WORK/data-vf" stats | grep -Eq '^engine: +version-first ' || {
    echo "server-smoke: stats does not name the recorded engine version-first" >&2
    exit 1
}
echo "server-smoke: ok"
