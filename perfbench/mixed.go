package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// mixedEnv is the mixed_serve system under test: a durable database
// that was loaded, checkpointed, closed and reopened, served on
// loopback.
type mixedEnv struct {
	dir string
	db  *spatialtf.DB
	srv *served
	// reopen is the OpenDir call's wall time: recovery and index rebuild.
	reopen time.Duration
}

func (m *mixedEnv) close() {
	m.srv.stop()
	if m.db != nil {
		m.db.Close()
	}
	os.RemoveAll(m.dir)
}

func countyCount(e *env) int {
	if e.short {
		return 2000
	}
	return 20000
}

// setupMixed builds the durable database in dir: load, index, the
// events table, checkpoint, close, and the reopen whose recovery and
// index rebuild a restart pays. The bulk load runs without per-row WAL
// fsyncs and is made durable by the checkpoint, which fsyncs; one fsync
// per loaded row would make set-up time a measure of the host's disk
// (3–9 s for the same load). The database is served with the default
// policy, SyncAlways, on every run. loadTel and tel, when non-nil,
// receive the storage and database telemetry of the load and of the
// reopened database.
func setupMixed(dir string, ds spatialtf.Dataset, loadTel, tel *spatialtf.TelemetryRegistry) (*mixedEnv, error) {
	opt := spatialtf.DirOptions{Parallel: runtime.NumCPU(), Sync: spatialtf.SyncOff, Telemetry: loadTel}
	db, err := spatialtf.OpenDir(dir, opt)
	if err != nil {
		return nil, err
	}
	err = loadMixed(db, ds)
	if err == nil {
		err = db.Checkpoint()
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	opt.Sync, opt.Telemetry = spatialtf.SyncAlways, tel
	t0 := time.Now()
	db, err = spatialtf.OpenDir(dir, opt)
	if err != nil {
		return nil, err
	}
	reopen := time.Since(t0)
	srv, err := serve(server.New(db, server.Config{Telemetry: tel}))
	if err != nil {
		db.Close()
		return nil, err
	}
	return &mixedEnv{dir: dir, db: db, srv: srv, reopen: reopen}, nil
}

func loadMixed(db *spatialtf.DB, ds spatialtf.Dataset) error {
	par := spatialtf.IndexOptions{Parallel: runtime.NumCPU()}
	if _, err := db.LoadDataset("counties", ds); err != nil {
		return err
	}
	if _, err := db.CreateIndex("counties_idx", "counties", spatialtf.RTree, par); err != nil {
		return err
	}
	if _, err := db.CreateSpatialTable("events"); err != nil {
		return err
	}
	_, err := db.CreateIndex("events_idx", "events", spatialtf.RTree, par)
	return err
}

// probe is one pooled read of mixed_serve with its oracle answer.
type probe struct {
	sql  string
	q    spatialtf.Geometry
	d    float64 // > 0: within-distance probe
	want pairSum
}

// mixedProbes draws the window and distance pools from rng and answers
// each by a brute-force scan of the generated rows: exact geom.Relate
// and geom.WithinDistance behind an MBR test.
func mixedProbes(rng *rand.Rand, ds spatialtf.Dataset, windows, points int) ([]probe, []probe) {
	wp := make([]probe, windows)
	for i := range wp {
		side := 5 + rng.Float64()*15
		x, y := rng.Float64()*(1000-side), rng.Float64()*(1000-side)
		q := spatialtf.MustRect(x, y, x+side, y+side)
		wp[i] = probe{q: q, sql: fmt.Sprintf(
			"SELECT id FROM counties WHERE SDO_RELATE(geom, '%s', 'mask=anyinteract') = 'TRUE'",
			geom.MarshalWKT(q))}
	}
	dp := make([]probe, points)
	for i := range dp {
		q := spatialtf.NewPoint(rng.Float64()*1000, rng.Float64()*1000)
		d := 2 + rng.Float64()*3
		dp[i] = probe{q: q, d: d, sql: fmt.Sprintf(
			"SELECT id FROM counties WHERE SDO_WITHIN_DISTANCE(geom, '%s', 'distance=%g') = 'TRUE'",
			geom.MarshalWKT(q), d)}
	}
	answer := func(p *probe) {
		qm := geom.MBROf(p.q)
		for id, g := range ds.Geoms {
			if p.d > 0 {
				if geom.MBROf(g).Dist(qm) <= p.d && geom.WithinDistance(g, p.q, p.d) {
					p.want.add(strconv.Itoa(id), "")
				}
			} else if geom.MBROf(g).Intersects(qm) && geom.Relate(g, p.q, geom.MaskAnyInteract) {
				p.want.add(strconv.Itoa(id), "")
			}
		}
	}
	for i := range wp {
		answer(&wp[i])
	}
	for i := range dp {
		answer(&dp[i])
	}
	return wp, dp
}

// drainIDs runs a single-column SELECT and checksums its rows.
func drainIDs(cli *wire.Client, sql string) (pairSum, error) {
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
			got.add(r[0].String(), "")
		}
		if done {
			return got, nil
		}
	}
}

// expectMessage runs a statement with an immediate result and checks
// its message.
func expectMessage(cli *wire.Client, sql, want string) error {
	res, err := cli.Query(sql)
	if err != nil {
		return err
	}
	if res.Cursor != nil {
		res.Cursor.Close()
		return wrongf("%q returned a cursor", sql)
	}
	if res.Message != want {
		return wrongf("%q: %q, want %q", sql, res.Message, want)
	}
	return nil
}

// expectCount checks SELECT COUNT(*) FROM table.
func expectCount(cli *wire.Client, table string, want int) error {
	res, err := cli.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return err
	}
	if !res.HasCount || res.Count != int64(want) {
		return wrongf("%s holds %d rows, want %d", table, res.Count, want)
	}
	return nil
}

// eventWriter issues one client's writes: an INSERT of a point into
// events, then the DELETE of that same row, so table sizes stay level.
// Clients draw points from disjoint x ranges, so a delete window never
// holds another client's row.
type eventWriter struct {
	client int
	seq    int
	live   bool
	x, y   float64
}

func (w *eventWriter) next(cli *wire.Client) error {
	if w.live {
		w.live = false
		return expectMessage(cli, deleteEventSQL(w.x, w.y), "1 rows deleted")
	}
	w.seq++
	w.x = 20 + float64(w.client)*480 + float64(w.seq%400)
	w.y = 20 + float64(w.seq/400%900)
	w.live = true
	return expectMessage(cli, fmt.Sprintf("INSERT INTO events VALUES (%d, 'ev-%d-%d', 'POINT (%g %g)')",
		w.client*1000000+w.seq, w.client, w.seq, w.x, w.y), "1 row inserted")
}

// deleteEventSQL deletes the events row at point (x, y) through a
// window 0.02 units wide around it.
func deleteEventSQL(x, y float64) string {
	return fmt.Sprintf("DELETE FROM events WHERE SDO_RELATE(geom, 'POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))', 'mask=anyinteract') = 'TRUE'",
		x-0.01, y-0.01, x+0.01, y-0.01, x+0.01, y+0.01, x-0.01, y+0.01, x-0.01, y-0.01)
}

// mixedClients is the closed-loop client count of mixed_serve.
const mixedClients = 2

// mixedLoop drives mixed_serve against addr: 70% windows, 15% distance
// probes, 15% writes, each op's kind drawn per client from seed. The
// draws are independent: a fixed per-client cycle would lock the two
// clients' writes into one seed-dependent alignment for the whole run,
// which moved window latency by 15% from seed to seed. writers carry
// each client's live event row from one loop to the next.
func mixedLoop(addr string, seed int64, warm int, dur time.Duration, wp, dp []probe, writers []*eventWriter) *loopResult {
	clis := make([]*wire.Client, len(writers))
	rngs := make([]*rand.Rand, len(writers))
	for c := range clis {
		cli, err := wire.Dial(addr)
		if err != nil {
			return &loopResult{attempted: 1, failed: 1, firstErr: err}
		}
		defer cli.Close()
		clis[c] = cli
		rngs[c] = rand.New(rand.NewSource(seed*7919 + int64(c)))
	}
	return closedLoop(len(clis), warm, dur, func(c, seq int) (int, int, error) {
		rng := rngs[c]
		switch u := rng.Float64(); {
		case u < 0.70:
			p := &wp[rng.Intn(len(wp))]
			got, err := drainIDs(clis[c], p.sql)
			if err != nil {
				return opWindow, 0, err
			}
			return opWindow, got.n, checkSum(got, p.want)
		case u < 0.85:
			p := &dp[rng.Intn(len(dp))]
			got, err := drainIDs(clis[c], p.sql)
			if err != nil {
				return opDistance, 0, err
			}
			return opDistance, got.n, checkSum(got, p.want)
		default:
			return opWrite, 1, writers[c].next(clis[c])
		}
	})
}

// newWriters returns one event writer per mixed_serve client.
func newWriters() []*eventWriter {
	ws := make([]*eventWriter, mixedClients)
	for c := range ws {
		ws[c] = &eventWriter{client: c}
	}
	return ws
}

// checkLevel verifies row counts after a run: every county is still
// there, and events holds exactly the rows inserted and not deleted.
func checkLevel(r *report, addr string, counties int, writers []*eventWriter) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	live := 0
	for _, w := range writers {
		if w.live {
			live++
		}
	}
	r.check("row counts", errors.Join(expectCount(cli, "counties", counties), expectCount(cli, "events", live)))
	return nil
}

// userBytes is the live row payload of the generated rows: the id, the
// name and the encoded geometry of each.
func userBytes(ds spatialtf.Dataset) int64 {
	var n int64
	for i, g := range ds.Geoms {
		n += 8 + int64(len(fmt.Sprintf("%s-%d", ds.Name, i))) + int64(geom.BinarySize(g))
	}
	return n
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// mixedServe is the serving workload: two clients mixing indexed window
// and distance reads with writes against a durable database whose page
// file is larger than the buffer pool. Each set-up gets its own
// directory under the run's scratch directory.
func mixedServe(e *env) (*workload, error) {
	ds := spatialtf.Counties(countyCount(e), e.seed)
	wp, dp := mixedProbes(rand.New(rand.NewSource(e.seed)), ds, 512, 256)
	if e.wrongAnswer {
		for i := range wp {
			wp[i].want.sum++
		}
	}
	k := 0
	return &workload{headline: opWindow, reps: 3, start: func(traced bool) (*system, error) {
		var reg *telemetry.Registry
		if traced {
			reg = telemetry.New()
		}
		k++
		me, err := setupMixed(filepath.Join(e.scratch, fmt.Sprintf("mixed-%d", k)), ds, nil, reg)
		if err != nil {
			return nil, err
		}
		writers := newWriters()
		return &system{
			loop: func(d time.Duration) *loopResult {
				return mixedLoop(me.srv.addr, e.seed, 200, d, wp, dp, writers)
			},
			check: func(r *report) error {
				if err := checkLevel(r, me.srv.addr, len(ds.Geoms), writers); err != nil {
					return err
				}
				disk, err := dirBytes(me.dir)
				if err != nil {
					return err
				}
				r.set("bytes_per_user_byte", "ratio", float64(disk)/float64(userBytes(ds)), 1)
				return nil
			},
			close: me.close,
		}, nil
	}}, nil
}
