package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// TestServerMetricsFrame: one registry shared by the server and the
// database, scraped over the wire — the Metrics frame must carry the
// server counters, the join instruments, and the cache views a /metrics
// scrape would show.
func TestServerMetricsFrame(t *testing.T) {
	db := newTestDB(t, 64)
	reg := telemetry.New()
	db.EnableTelemetry(reg)
	_, addr := startTestServer(t, db, Config{Telemetry: reg})

	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// runJoin runs a join to completion so the join instruments move.
	runJoin := func(sql string) {
		t.Helper()
		res, err := cli.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cursor == nil {
			t.Fatal("join did not stream")
		}
		for {
			_, done, err := res.Cursor.Fetch(64)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
	}
	metrics := func() map[string]telemetry.Point {
		t.Helper()
		pts, err := cli.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]telemetry.Point, len(pts))
		for _, p := range pts {
			byName[p.Name] = p
		}
		return byName
	}
	runJoin(joinSQL)
	byName := metrics()
	for _, name := range []string{
		"server_queries_total", "server_fetches_total", "server_conns_active",
		"join_results_total", "join_node_pairs_total",
		"geom_cache_hits_total", "geom_cache_misses_total",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("metrics frame missing %q", name)
		}
	}
	if q := byName["server_queries_total"].Value; q < 1 {
		t.Errorf("server_queries_total = %g, want >= 1", q)
	}
	if r := byName["join_results_total"].Value; r < 1 {
		t.Errorf("join_results_total = %g, want >= 1", r)
	}
	h, ok := byName["server_fetch_seconds"]
	if !ok || h.Kind != telemetry.KindHistogram {
		t.Fatalf("server_fetch_seconds = %+v, want a histogram", h)
	}
	if h.Count < 1 || len(h.Counts) != len(h.Bounds)+1 {
		t.Errorf("server_fetch_seconds histogram malformed: %+v", h)
	}
	if st, ok := byName["join_secondary_filter_seconds"]; !ok || st.Kind != telemetry.KindHistogram {
		t.Errorf("join stage histogram missing from the wire snapshot")
	}

	// The forced nested loop feeds the same join counters.
	runJoin("SELECT rid1, rid2 FROM TABLE(spatial_join('counties','geom','counties','geom','anyinteract','algo=nested'))")
	after := metrics()
	for _, name := range []string{"join_results_total", "join_candidates_total"} {
		if after[name].Value <= byName[name].Value {
			t.Errorf("algo=nested left %s at %g", name, after[name].Value)
		}
	}
}

// TestClientMetricsAgainstOldServer: a server that predates the Metrics
// frame answers it like any unknown frame — with an error frame — and
// the client must surface that as a RemoteError, not a desync or hang.
func TestClientMetricsAgainstOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		bw := bufio.NewWriter(nc)
		br := bufio.NewReader(nc)
		if wire.WriteMagic(bw) != nil || bw.Flush() != nil || wire.ExpectMagic(br) != nil {
			return
		}
		// The old server's dispatch loop: every frame type it does not
		// know gets an error reply.
		for {
			ft, _, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			msg := fmt.Sprintf("unknown frame type 0x%02x", byte(ft))
			if wire.WriteFrame(bw, wire.FrameError, wire.AppendError(nil, msg)) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	defer srvWG.Wait()

	cli, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Metrics()
	re, ok := err.(*wire.RemoteError)
	if !ok {
		t.Fatalf("Metrics against old server: err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "unknown frame") {
		t.Errorf("unexpected remote error %q", re.Msg)
	}
}

// TestServerSlowLog: a cursor that outlives Config.SlowQuery emits one
// trace line carrying the statement label and the fetch stage.
func TestServerSlowLog(t *testing.T) {
	db := newTestDB(t, 48)
	var mu sync.Mutex
	var lines []string
	_, addr := startTestServer(t, db, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		SlowLogf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, done, err := res.Cursor.Fetch(32)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow log emitted %d lines, want 1: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "spatial_join") || !strings.Contains(lines[0], "fetch=") {
		t.Errorf("slow log line %q missing label or fetch stage", lines[0])
	}
}

// TestServerPrivateRegistryDefault: with no Config.Telemetry the server
// still runs a live private registry, so Stats and scrapes work.
func TestServerPrivateRegistryDefault(t *testing.T) {
	db := newTestDB(t, 16)
	srv, addr := startTestServer(t, db, Config{})
	if srv.Telemetry() == nil || !srv.Telemetry().Enabled() {
		t.Fatal("server without Config.Telemetry must own a live registry")
	}
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query("SELECT count(*) FROM counties"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := srv.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "server_queries_total 1") {
		t.Errorf("private registry scrape missing query counter:\n%s", sb.String())
	}
}
