#!/usr/bin/env bash
# Docs check: every `go run ./...` target the README quickstart mentions
# must actually build, and the quickstart example must run to completion.
# Keeps README.md from rotting as packages move.
set -euo pipefail
cd "$(dirname "$0")/.."

# `|| true`: under set -e a no-match grep would abort the substitution
# before the explicit diagnostic below can fire.
targets=$(grep -oE 'go run \./[a-zA-Z0-9_/-]+' README.md | awk '{print $3}' | sort -u || true)
if [ -z "$targets" ]; then
    echo "ERROR: no 'go run ./...' targets found in README.md" >&2
    exit 1
fi
for t in $targets; do
    echo "building README target $t"
    go build -o /dev/null "$t"
done

echo "running ./examples/quickstart"
go run ./examples/quickstart >/dev/null

echo "running ./cmd/paper-tables (regenerates and diffs the paper's tables)"
go run ./cmd/paper-tables >/dev/null

echo "quickstart docs check OK"

# Observability smoke: a live polygend must serve the V$ virtual tables
# over the wire (including a V$ x V$ join with tags intact) and a valid
# Prometheus text exposition on -metrics-addr.
echo "running observability smoke (V\$ tables + /metrics)"
go build -o /tmp/check-polygend ./cmd/polygend
go build -o /tmp/check-polygen ./cmd/polygen
/tmp/check-polygend -addr 127.0.0.1:7391 -metrics-addr 127.0.0.1:7392 -slow-query 1h >/tmp/check-polygend.log 2>&1 &
POLYGEND_PID=$!
trap 'kill "$POLYGEND_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    if grep -q "serving federation" /tmp/check-polygend.log; then break; fi
    sleep 0.1
done

out=$(/tmp/check-polygen -connect 127.0.0.1:7391 -sql 'SELECT SID, QUERIES, POLICY FROM V$SESSION')
echo "$out" | grep -q 'V\$' || { echo "ERROR: V\$SESSION answer carries no V\$ tag: $out" >&2; exit 1; }
/tmp/check-polygen -connect 127.0.0.1:7391 \
    -alg '(V$STMT [SID = SID] V$SESSION) [STMT_ID, STMT_TEXT, POLICY]' >/dev/null
/tmp/check-polygen -connect 127.0.0.1:7391 \
    -alg '(V$PLAN_CACHE [CACHE <> ONAME] PORGANIZATION) [CACHE, CAPACITY, ONAME]' | grep -q '{V\$}' \
    || { echo "ERROR: V\$ x real join lost the V\$ origin tag" >&2; exit 1; }

metrics=$(curl -sf http://127.0.0.1:7392/metrics)
echo "$metrics" | grep -q '^polygen_up 1$' || { echo "ERROR: /metrics lacks polygen_up 1" >&2; exit 1; }
echo "$metrics" | grep -q '^polygen_plan_cache_misses_total ' || { echo "ERROR: /metrics lacks plan-cache counters" >&2; exit 1; }
# Every line must be a well-formed comment or sample (Prometheus text
# format 0.0.4) — the same shape promtool would accept.
echo "$metrics" | awk '
    /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$/ { next }
    { print "ERROR: malformed /metrics line: " $0 > "/dev/stderr"; bad = 1 }
    END { exit bad }
'

kill "$POLYGEND_PID" 2>/dev/null || true
wait "$POLYGEND_PID" 2>/dev/null || true
trap - EXIT
echo "observability smoke OK"

# Sharded federation smoke: four lqpd daemons each serve one -shard i/4
# slice of AD, a polygend -shards scatters retrievals across them, and the
# answers must diff clean — byte for byte after a sort — against a
# single-node polygend over the same query. V$SHARD must expose the four
# shard endpoints.
echo "running sharded federation smoke (4x lqpd -shard + polygend -shards)"
go build -o /tmp/check-lqpd ./cmd/lqpd
SHARD_PIDS=()
cleanup_shard() { for p in "${SHARD_PIDS[@]}"; do kill "$p" 2>/dev/null || true; done; }
trap cleanup_shard EXIT
for i in 0 1 2 3; do
    /tmp/check-lqpd -db AD -addr "127.0.0.1:745$((i + 1))" -shard "$i/4" >"/tmp/check-lqpd-shard-$i.log" 2>&1 &
    SHARD_PIDS+=($!)
done
for i in 0 1 2 3; do
    ok=
    for _ in $(seq 1 50); do
        if grep -q "shard $i/4" "/tmp/check-lqpd-shard-$i.log"; then ok=1; break; fi
        sleep 0.1
    done
    [ -n "$ok" ] || { echo "ERROR: lqpd shard $i/4 did not come up" >&2; cat "/tmp/check-lqpd-shard-$i.log" >&2; exit 1; }
done
/tmp/check-polygend -addr 127.0.0.1:7455 \
    -shards 'AD=127.0.0.1:7451,127.0.0.1:7452,127.0.0.1:7453,127.0.0.1:7454' \
    >/tmp/check-polygend-shard.log 2>&1 &
SHARD_PIDS+=($!)
/tmp/check-polygend -addr 127.0.0.1:7456 >/tmp/check-polygend-single.log 2>&1 &
SHARD_PIDS+=($!)
for log in /tmp/check-polygend-shard.log /tmp/check-polygend-single.log; do
    ok=
    for _ in $(seq 1 50); do
        if grep -q "serving federation" "$log"; then ok=1; break; fi
        sleep 0.1
    done
    [ -n "$ok" ] || { echo "ERROR: polygend did not come up" >&2; cat "$log" >&2; exit 1; }
done

shard_queries=(
    'PALUMNUS [ANAME, DEGREE, MAJOR]'
    '(PALUMNUS [DEGREE = "MBA"]) [ANAME, DEGREE]'
    '((PALUMNUS [AID# = AID#] PCAREER) [ONAME = ONAME] PORGANIZATION) [ANAME, ONAME, INDUSTRY]'
)
for q in "${shard_queries[@]}"; do
    /tmp/check-polygen -connect 127.0.0.1:7455 -alg "$q" | sort >/tmp/shard-ans.txt
    /tmp/check-polygen -connect 127.0.0.1:7456 -alg "$q" | sort >/tmp/single-ans.txt
    diff /tmp/single-ans.txt /tmp/shard-ans.txt \
        || { echo "ERROR: sharded answer diverges from single-node on: $q" >&2; exit 1; }
done

vshard=$(/tmp/check-polygen -connect 127.0.0.1:7455 -alg 'V$SHARD [SOURCE, SHARD, SHARDS, REPLICA, HEALTHY, ROWS]')
echo "$vshard" | grep -q '(4 tuples)' \
    || { echo "ERROR: V\$SHARD does not list 4 shard endpoints:" >&2; echo "$vshard" >&2; exit 1; }
echo "$vshard" | grep -c '127.0.0.1:745' | grep -qx 4 \
    || { echo "ERROR: V\$SHARD rows lack the lqpd endpoints:" >&2; echo "$vshard" >&2; exit 1; }

cleanup_shard
trap - EXIT
echo "sharded federation smoke OK"
