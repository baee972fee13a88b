#!/bin/sh
# Demo: serve kill-safe servlets over real TCP, then have an
# administrator terminate a live session mid-request.
#
# Walkthrough (see also cmd/killserve/main.go):
#   1. start killserve on a loopback port
#   2. park a long request on /slow (it holds its connection open)
#   3. list live sessions via /admin/sessions and pick the parked one
#   4. /admin/kill it — its curl dies with a closed connection,
#      the server keeps serving, and the stats document's "serving"
#      object (/debug/killsafe/stats) counts the kill
#   5. SIGINT the server: graceful drain, final counters on stdout
set -eu

ADDR=${ADDR:-127.0.0.1:8931}
BASE="http://$ADDR"
cd "$(dirname "$0")/../.."

echo "==> building killserve"
go build -o /tmp/killserve ./cmd/killserve

echo "==> starting killserve on $ADDR"
/tmp/killserve -addr "$ADDR" -max-conns 16 -idle-timeout 10s &
SERVER=$!
trap 'kill $SERVER 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -sf "$BASE/hello" >/dev/null 2>&1 && break
    sleep 0.1
done

echo "==> a normal request"
curl -s "$BASE/hello?name=demo"

echo "==> parking a long request on /slow (background curl)"
curl -s --max-time 60 "$BASE/slow?ms=60000" > /tmp/killserve-victim.out 2>&1 &
VICTIM=$!
sleep 0.5

echo "==> live sessions (the admin's own is marked 'you')"
SESSIONS=$(curl -s "$BASE/admin/sessions")
echo "$SESSIONS"

# The parked session is every listed ID except the admin request's own.
YOU=$(echo "$SESSIONS" | sed -n 's/^you: //p')
TARGET=$(echo "$SESSIONS" | sed -n 's/^session //p' | grep -vx "$YOU" | head -n 1)
echo "==> killing session $TARGET mid-request"
curl -s "$BASE/admin/kill?id=$TARGET"

echo "==> the victim's curl exits with a closed connection:"
if wait $VICTIM; then
    echo "UNEXPECTED: victim completed: $(cat /tmp/killserve-victim.out)"
    exit 1
else
    echo "victim curl failed as expected (connection closed by kill)"
fi

echo "==> the server is unharmed"
curl -s "$BASE/hello?name=survivor"

echo "==> serving counters (the fleet totals of /debug/killsafe/stats)"
curl -s "$BASE/debug/killsafe/stats" | awk '/"serving"/ { p = 1 } p { print } p && /}/ { exit }'

echo "==> graceful shutdown (SIGINT)"
kill -INT $SERVER
wait $SERVER || true
trap - EXIT
echo "==> demo complete"
