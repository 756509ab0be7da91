#!/bin/sh
# Observability smoke test: boot spatialserverd with a metrics listener,
# run one spatial join over the wire via spatialsql, scrape /metrics,
# assert the core series moved, and check the daemon shuts down cleanly
# on SIGTERM. Dependency-free: POSIX sh + curl (grep for assertions).
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
ssd_pid=""
cleanup() {
	[ -n "$ssd_pid" ] && kill "$ssd_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/spatialserverd" ./cmd/spatialserverd
go build -o "$tmp/spatialsql" ./cmd/spatialsql

addr="127.0.0.1:7878"
maddr="127.0.0.1:9188"
"$tmp/spatialserverd" -addr "$addr" -metrics-addr "$maddr" \
	-load counties:200:1 -load stars:600:2 >"$tmp/ssd.log" 2>&1 &
ssd_pid=$!

# Wait for the metrics endpoint to come up (the daemon logs before the
# TCP listeners are ready).
i=0
until curl -fsS "http://$maddr/metrics" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "obs-smoke: metrics endpoint never came up" >&2
		cat "$tmp/ssd.log" >&2
		exit 1
	fi
	sleep 0.1
done

# One join over the wire so the server and join instruments move. The
# subtree path is forced: the node-pair assertion below needs an R-tree
# traversal, and the cost model may pick the grid path, which has none.
printf "SELECT count(*) FROM TABLE(spatial_join('counties','geom','stars','geom','anyinteract','algo=subtree', 2));\n\\\\q\n" |
	"$tmp/spatialsql" -connect "$addr" >"$tmp/sql.out" 2>&1
grep -q '(1 rows)' "$tmp/sql.out" || {
	echo "obs-smoke: join query failed:" >&2
	cat "$tmp/sql.out" >&2
	exit 1
}

scrape="$tmp/metrics.txt"
curl -fsS "http://$maddr/metrics" >"$scrape"

# Core series must be present with live values: one query served, join
# results produced, and the scrape must carry histograms with samples.
for pat in \
	'^server_queries_total 1$' \
	'^server_conns_accepted_total 1$' \
	'^join_results_total [1-9]' \
	'^join_node_pairs_total [1-9]' \
	'^geom_cache_misses_total [1-9]' \
	'^join_secondary_filter_seconds_count [1-9]' \
	'^# TYPE server_fetch_seconds histogram$'; do
	grep -q "$pat" "$scrape" || {
		echo "obs-smoke: /metrics missing $pat" >&2
		cat "$scrape" >&2
		exit 1
	}
done

# pprof must answer on the same mux.
curl -fsS "http://$maddr/debug/pprof/cmdline" >/dev/null || {
	echo "obs-smoke: pprof endpoint not serving" >&2
	exit 1
}

# Clean shutdown: SIGTERM must drain and exit within the wait below,
# leaving the shutdown log line behind.
kill "$ssd_pid"
wait "$ssd_pid" 2>/dev/null || true
ssd_pid=""
grep -q 'served 1 queries' "$tmp/ssd.log" || {
	echo "obs-smoke: daemon did not log its final stats line:" >&2
	cat "$tmp/ssd.log" >&2
	exit 1
}

echo "obs-smoke: ok (query served, metrics scraped, pprof up, clean shutdown)"
