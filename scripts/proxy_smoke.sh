#!/bin/sh
# proxy_smoke.sh — end-to-end smoke for the sharded serving topology
# (`make proxy-smoke`): one avserve -proxy in front of two backends, the
# second backend peered to the first for snapshot pull-through.
#
# Expects bin/avserve to exist (the make target builds it) and writes
# nothing outside a temp dir. Every default-mix route is requested for
# each seed, first straight at backend 1 and then through the proxy; any
# non-2xx answer fails the script. Throughput is not measured here: that
# is bash bench/run.sh -workload sharded.
#
# What it proves, in order:
#   1. both shards take traffic (per-backend proxy counters nonzero);
#   2. a conditional If-None-Match replay returns 304 through the proxy;
#   3. the two backends give byte-identical answers (and ETags) for the
#      same study — content-addressed snapshots, not luck;
#   4. a backend restarted with an empty snapshot directory warm-starts
#      from its peer: zero pipeline builds, >= 1 snapshot fetch.
set -eu

PROXY_ADDR=${PROXY_ADDR:-127.0.0.1:18090}
B1_ADDR=${B1_ADDR:-127.0.0.1:18091}
B2_ADDR=${B2_ADDR:-127.0.0.1:18092}
SEEDS=${PROXY_SEEDS:-1,2}

# The default query mix's routes, {seed} filled in per request.
ROUTES="disengagements?limit=50
disengagements?mfr=waymo&limit=50
disengagements?category=ml%2Fdesign&weather=raining&limit=100
disengagements?from=2015-01&to=2015-12&limit=100
disengagements?offset=500&limit=100
groupby?by=tag
groupby?by=category&mfr=waymo
groupby?by=road&modality=automatic
metrics/reliability
accidents?limit=50
tables/i
tables/vii"

TMP=$(mktemp -d)
PIDS=""
cleanup() {
	for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
	echo "proxy-smoke: FAIL: $*" >&2
	for log in "$TMP"/*.log; do
		[ -f "$log" ] && { echo "--- $log" >&2; tail -5 "$log" >&2; }
	done
	exit 1
}

# metric <addr> <name> — print a counter from /metrics, 0 if absent. The
# name must match the full first token, labels included.
metric() {
	curl -fsS "http://$1/metrics" |
		awk -v m="$2" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

# get_routes <addr> — request every route for every seed; any transport
# failure or non-2xx answer fails the script.
get_routes() {
	for seed in $(echo "$SEEDS" | tr , ' '); do
		while read -r r; do
			curl -fsS -o /dev/null "http://$1/v1/studies/$seed/$r" ||
				fail "GET http://$1/v1/studies/$seed/$r"
		done <<-EOF
			$ROUTES
		EOF
	done
}

wait_healthy() {
	for i in $(seq 1 100); do
		if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
		sleep 0.2
	done
	fail "$1 never answered /healthz"
}

mkdir -p "$TMP/snap1" "$TMP/snap2"

echo "proxy-smoke: starting 2 backends + proxy"
bin/avserve -addr "$B1_ADDR" -snapshot-dir "$TMP/snap1" -duration 600s 2>"$TMP/b1.log" &
PIDS="$PIDS $!"
bin/avserve -addr "$B2_ADDR" -snapshot-dir "$TMP/snap2" -peers "http://$B1_ADDR" -duration 600s 2>"$TMP/b2.log" &
B2_PID=$!
PIDS="$PIDS $B2_PID"
bin/avserve -proxy -backends "http://$B1_ADDR,http://$B2_ADDR" -addr "$PROXY_ADDR" -duration 600s 2>"$TMP/proxy.log" &
PIDS="$PIDS $!"
wait_healthy "$B1_ADDR"
wait_healthy "$B2_ADDR"
wait_healthy "$PROXY_ADDR"

# Straight at backend 1 first: it builds the seeds and writes their
# snapshots through — the material the peer pull-through below
# distributes. Then the same requests sharded through the proxy.
echo "proxy-smoke: requests straight at $B1_ADDR"
get_routes "$B1_ADDR"
echo "proxy-smoke: requests through $PROXY_ADDR"
get_routes "$PROXY_ADDR"

# 1. Both shards took traffic.
for b in "http://$B1_ADDR" "http://$B2_ADDR"; do
	n=$(metric "$PROXY_ADDR" "avserve_proxy_backend_requests_total{backend=\"$b\"}")
	[ "$n" -gt 0 ] || fail "proxy shard counter for $b is $n, want > 0"
done

# 2. A conditional replay returns 304 through the proxy.
q1="http://$PROXY_ADDR/v1/studies/1/groupby?by=category"
tag=$(curl -fsS -D- -o /dev/null -H 'Accept-Encoding: identity' "$q1" |
	awk -F': ' 'tolower($1) == "etag" {print $2}' | tr -d '\r')
[ -n "$tag" ] || fail "no ETag on $q1"
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $tag" -H 'Accept-Encoding: identity' "$q1")
[ "$code" = 304 ] || fail "conditional replay of $q1 = $code, want 304"

# 3. Byte-identical answers from either backend. Asking backend 2 directly
# forces it to hold seed 1 (peer-fetched or built); the bodies and the
# content-addressed ETags must match backend 1's exactly.
q="/v1/studies/1/disengagements?mfr=Waymo&limit=25"
curl -fsS -D "$TMP/b1.hdr" -H 'Accept-Encoding: identity' "http://$B1_ADDR$q" >"$TMP/b1.body"
curl -fsS -D "$TMP/b2.hdr" -H 'Accept-Encoding: identity' "http://$B2_ADDR$q" >"$TMP/b2.body"
cmp -s "$TMP/b1.body" "$TMP/b2.body" || fail "backends disagree on $q"
t1=$(awk -F': ' 'tolower($1) == "etag" {print $2}' "$TMP/b1.hdr" | tr -d '\r')
t2=$(awk -F': ' 'tolower($1) == "etag" {print $2}' "$TMP/b2.hdr" | tr -d '\r')
[ -n "$t1" ] && [ "$t1" = "$t2" ] || fail "backend ETags differ: $t1 vs $t2"

# 4. Warm-start: restart backend 2 with a wiped snapshot directory. It
# must serve seed 1 by pulling the snapshot from backend 1 — zero builds.
echo "proxy-smoke: restarting $B2_ADDR with an empty snapshot dir"
kill "$B2_PID" 2>/dev/null || true
wait "$B2_PID" 2>/dev/null || true
rm -rf "$TMP/snap2"
mkdir -p "$TMP/snap2"
bin/avserve -addr "$B2_ADDR" -snapshot-dir "$TMP/snap2" -peers "http://$B1_ADDR" -duration 600s 2>>"$TMP/b2.log" &
B2_PID=$!
PIDS="$PIDS $B2_PID"
wait_healthy "$B2_ADDR"
curl -fsS "http://$B2_ADDR/v1/studies/1/disengagements?limit=1" >/dev/null \
	|| fail "restarted backend cannot serve seed 1"
builds=$(metric "$B2_ADDR" avserve_cache_builds_total)
fetches=$(metric "$B2_ADDR" avserve_snapshot_fetches_total)
[ "$builds" = 0 ] || fail "restarted backend ran $builds pipeline builds, want 0 (peer warm-start)"
[ "$fetches" -ge 1 ] || fail "restarted backend fetched $fetches snapshots, want >= 1"

echo "proxy-smoke: OK — both shards hot, 304 through the proxy, identical backends, peer warm-start with 0 builds"
