package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"spatialtf"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/server"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// The paper's Table 2 self-join as a user writes it: no algo= hint, so
// the facade takes its default dispatch.
const starJoinSQL = "SELECT rid1, rid2 FROM TABLE(spatial_join('stars','geom','stars','geom','anyinteract'))"

// served is a backend listening on loopback.
type served struct {
	srv  *server.Server
	ln   net.Listener
	addr string
	done chan error
}

// serve starts srv on a loopback port.
func serve(srv *server.Server) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{srv: srv, ln: ln, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return. The
// listener is closed here too: a Shutdown that runs before Serve has
// registered the listener would not close it.
func (s *served) stop() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.ln.Close()
	<-s.done
}

// starEnv is the star_join system under test: an in-memory database
// with the indexed star table, served on loopback.
type starEnv struct {
	db  *spatialtf.DB
	srv *served
	// build is the CREATE INDEX call's wall time.
	build time.Duration
}

func (s *starEnv) close() { s.srv.stop() }

func starCount(e *env) int {
	if e.short {
		return 800
	}
	return 5000
}

// setupStars loads ds and builds its R-tree with one worker per CPU.
// tel, when non-nil, receives the database's and server's telemetry.
func setupStars(ds spatialtf.Dataset, tel *spatialtf.TelemetryRegistry, tr *spatialtf.Tracer) (*starEnv, error) {
	db := spatialtf.Open()
	if tel != nil {
		db.EnableTelemetry(tel)
		db.SetTracer(tr)
	}
	if _, err := db.LoadDataset("stars", ds); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := db.CreateIndex("stars_idx", "stars", spatialtf.RTree,
		spatialtf.IndexOptions{Parallel: runtime.NumCPU()}); err != nil {
		return nil, err
	}
	build := time.Since(t0)
	srv, err := serve(server.New(db, server.Config{Telemetry: tel}))
	if err != nil {
		return nil, err
	}
	return &starEnv{db: db, srv: srv, build: build}, nil
}

// starSource is the star table with an R-tree the benchmark builds
// itself, the operand of the engine-level rungs and of the oracle.
func starSource(db *spatialtf.DB) (sjoin.Source, error) {
	t, err := db.Table("stars")
	if err != nil {
		return sjoin.Source{}, err
	}
	tree, _, err := idxbuild.CreateRtree(t.Inner(), "geom", 0, runtime.NumCPU())
	if err != nil {
		return sjoin.Source{}, err
	}
	return sjoin.Source{Table: t.Inner(), Column: "geom", Tree: tree}, nil
}

// joinOracle is the reference answer of the star self-join: the serial
// nested loop of the paper's baseline, computed off the clock.
func joinOracle(src sjoin.Source) (pairSum, error) {
	pairs, err := sjoin.NestedLoop(src, src, sjoin.DefaultConfig())
	if err != nil {
		return pairSum{}, err
	}
	var want pairSum
	for _, p := range pairs {
		want.add(p.A.String(), p.B.String())
	}
	return want, nil
}

// drain runs sql on cli and folds every returned row into a checksum
// over its first two columns.
func drain(cli *wire.Client, sql string) (pairSum, error) {
	var got pairSum
	res, err := cli.Query(sql)
	if err != nil {
		return got, err
	}
	if res.Cursor == nil {
		return got, fmt.Errorf("query returned no cursor: %s", res.Message)
	}
	for {
		rows, done, err := res.Cursor.Fetch(0)
		if err != nil {
			return got, err
		}
		for _, r := range rows {
			got.add(r[0].String(), r[1].String())
		}
		if done {
			return got, nil
		}
	}
}

// checkSum compares a drained answer to the oracle.
func checkSum(got, want pairSum) error {
	if got != want {
		return wrongf("%d rows (checksum %x), want %d (checksum %x)", got.n, got.sum, want.n, want.sum)
	}
	return nil
}

// starJoin is the analytic workload: one client repeating the hint-less
// star self-join over the wire, draining every pair. The oracle runs on
// a reference copy of the table: the same inserts into a fresh heap give
// the same rowids.
func starJoin(e *env) (*workload, error) {
	ds := spatialtf.Stars(starCount(e), e.seed)
	ref := spatialtf.Open()
	if _, err := ref.LoadDataset("stars", ds); err != nil {
		return nil, err
	}
	src, err := starSource(ref)
	if err != nil {
		return nil, err
	}
	want, err := joinOracle(src)
	if err != nil {
		return nil, err
	}
	if e.wrongAnswer {
		want.sum++
	}
	return &workload{headline: opJoin, reps: 9, start: func(traced bool) (*system, error) {
		var reg *telemetry.Registry
		var tr *telemetry.Tracer
		if traced {
			reg, tr = telemetry.New(), telemetry.NewTracer(telemetry.New(), -1, nil)
		}
		se, err := setupStars(ds, reg, tr)
		if err != nil {
			return nil, err
		}
		cli, err := wire.Dial(se.srv.addr)
		if err != nil {
			se.close()
			return nil, err
		}
		return &system{
			loop:  func(d time.Duration) *loopResult { return starLoop(cli, want, d) },
			close: func() { cli.Close(); se.close() },
		}, nil
	}}, nil
}

// starLoop repeats the star self-join on cli for dur.
func starLoop(cli *wire.Client, want pairSum, dur time.Duration) *loopResult {
	return closedLoop(1, 3, dur, func(c, seq int) (int, int, error) {
		got, err := drain(cli, starJoinSQL)
		if err != nil {
			return opJoin, 0, err
		}
		return opJoin, got.n, checkSum(got, want)
	})
}
