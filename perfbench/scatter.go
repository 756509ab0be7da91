package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"spatialtf"
	"spatialtf/internal/cluster"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// The cluster's keyed distance join: rowids are shard-local, so a
// cluster join projects user keys.
const scatterJoinSQL = "SELECT key1, key2 FROM TABLE(spatial_join('bl','geom','br','geom','distance=3','keys=id:id'))"

// clusterBackend adapts the coordinator to the server's Backend, as the
// spatialrouterd daemon does.
type clusterBackend struct{ co *cluster.Coordinator }

func (b clusterBackend) NewSession() server.Session { return b.co.NewSession() }

// clusterEnv is a shard cluster served on loopback: shard servers over
// in-memory databases, a coordinator, and the router server in front.
type clusterEnv struct {
	shards []*served
	co     *cluster.Coordinator
	router *served
	cli    *wire.Client // the loader's router connection
}

func (c *clusterEnv) close() {
	if c.cli != nil {
		c.cli.Close()
	}
	c.router.stop()
	if c.co != nil {
		c.co.Close()
	}
	for _, s := range c.shards {
		s.stop()
	}
}

// startCluster boots n shards and a router over the shard map of the
// spatialrouterd shape: world bounds, a 4×4 tile grid, margin 6.
// reg and tr, when non-nil, receive the router's metrics and traces.
func startCluster(n int, reg *telemetry.Registry, tr *telemetry.Tracer) (*clusterEnv, error) {
	ce := &clusterEnv{}
	addrs := make([]string, n)
	for i := range addrs {
		s, err := serve(server.New(spatialtf.Open(), server.Config{}))
		if err != nil {
			ce.close()
			return nil, err
		}
		ce.shards = append(ce.shards, s)
		addrs[i] = s.addr
	}
	co, err := cluster.New(&cluster.ShardMap{
		Bounds: geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		Cols:   4, Rows: 4, Margin: 6, Shards: addrs,
	}, cluster.Options{DialTimeout: 5 * time.Second, ReadTimeout: 60 * time.Second, Registry: reg})
	if err != nil {
		ce.close()
		return nil, err
	}
	ce.co = co
	srv := server.NewWith(clusterBackend{co: co}, server.Config{Telemetry: reg})
	if tr != nil {
		co.SetTracer(tr)
	}
	if ce.router, err = serve(srv); err != nil {
		ce.close()
		return nil, err
	}
	if ce.cli, err = wire.Dial(ce.router.addr); err != nil {
		ce.close()
		return nil, err
	}
	return ce, nil
}

// datasetSQL renders a dataset as the DDL and INSERT statements that
// build it, so the cluster and the single-node reference ingest the
// same statement stream.
func datasetSQL(table string, ds spatialtf.Dataset) []string {
	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INT, name VARCHAR, geom GEOMETRY)", table),
		fmt.Sprintf("CREATE INDEX %s_idx ON %s(geom) INDEXTYPE IS RTREE", table, table),
	}
	for i, g := range ds.Geoms {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s-%d', '%s')",
			table, i, table, i, geom.MarshalWKT(g)))
	}
	return stmts
}

// execAll runs statements over a wire client, closing any cursor.
func execAll(cli *wire.Client, stmts []string) error {
	for _, sql := range stmts {
		res, err := cli.Query(sql)
		if err != nil {
			return fmt.Errorf("%.60s: %w", sql, err)
		}
		if res.Cursor != nil {
			res.Cursor.Close()
		}
	}
	return nil
}

// localSum runs sql on an in-process engine and checksums its rows over
// the first two columns (the second is "" for one-column results).
func localSum(eng *sqlmini.Engine, sql string) (pairSum, error) {
	var got pairSum
	st, err := eng.ExecuteStream(sql)
	if err != nil {
		return got, err
	}
	if st.Cursor == nil {
		return got, fmt.Errorf("%.60s: no cursor", sql)
	}
	defer st.Cursor.Close()
	for {
		_, row, ok, err := st.Cursor.Next()
		if err != nil {
			return got, err
		}
		if !ok {
			return got, nil
		}
		b := ""
		if len(row) > 1 {
			b = row[1].String()
		}
		got.add(row[0].String(), b)
	}
}

// scatterData is the generated input of cluster_scatter: the statements
// that load it and the oracle answers of its reads.
type scatterData struct {
	load    []string
	join    pairSum
	windows []probe
}

// scatterStars is n stars in clusters of 25, each cluster one call of
// the Stars generator. Stars(1000) makes four clusters, and whether one
// lands on a tile border, where its stars are replicated to several
// shards, moved the join's latency by ±25% from seed to seed; forty
// clusters average that out.
func scatterStars(n int, seed int64) spatialtf.Dataset {
	ds := spatialtf.Dataset{Name: "stars", Bounds: spatialtf.World}
	for i := 0; len(ds.Geoms) < n; i++ {
		part := spatialtf.Stars(min(25, n-len(ds.Geoms)), seed*1000+int64(i))
		ds.Geoms = append(ds.Geoms, part.Geoms...)
	}
	return ds
}

func scatterCounts(e *env) (int, int) {
	if e.short {
		return 300, 300
	}
	return 1000, 1000
}

// makeScatterData generates the tables from seed and answers every
// read on a single-node engine fed the same statements.
func makeScatterData(e *env, seed int64) (*scatterData, error) {
	nc, ns := scatterCounts(e)
	sd := &scatterData{load: append(datasetSQL("bl", spatialtf.Counties(nc, seed)),
		datasetSQL("br", scatterStars(ns, seed))...)}
	sd.load = append(sd.load,
		"CREATE TABLE events (id INT, name VARCHAR, geom GEOMETRY)",
		"CREATE INDEX events_idx ON events(geom) INDEXTYPE IS RTREE")
	eng := sqlmini.NewEngine()
	for _, sql := range sd.load {
		if _, err := eng.ExecuteStream(sql); err != nil {
			return nil, err
		}
	}
	var err error
	if sd.join, err = localSum(eng, scatterJoinSQL); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sd.windows = make([]probe, 256)
	for i := range sd.windows {
		side := 5 + rng.Float64()*15
		x, y := rng.Float64()*(1000-side), rng.Float64()*(1000-side)
		table := []string{"bl", "br"}[i%2]
		p := &sd.windows[i]
		p.q = spatialtf.MustRect(x, y, x+side, y+side)
		p.sql = fmt.Sprintf("SELECT id FROM %s WHERE SDO_RELATE(geom, '%s', 'mask=anyinteract') = 'TRUE'",
			table, geom.MarshalWKT(p.q))
		if p.want, err = localSum(eng, p.sql); err != nil {
			return nil, err
		}
	}
	return sd, nil
}

// clusterWriter is eventWriter for the router: an INSERT is replicated
// to every shard its margin-grown MBR touches, and the broadcast DELETE
// must remove exactly those replicas.
type clusterWriter struct {
	seq      int
	live     bool
	x, y     float64
	replicas int
	inserts  int
	// offset shifts the lattice by seed, so replica counts vary by seed.
	offset int
}

func (w *clusterWriter) next(cli *wire.Client) error {
	if w.live {
		w.live = false
		return expectMessage(cli, deleteEventSQL(w.x, w.y),
			fmt.Sprintf("%d replica rows deleted across 3 shards", w.replicas))
	}
	w.seq++
	// The lattice offset follows the seed, so which inserts fall within
	// the margin of a tile border, and are replicated, varies by seed.
	w.x = 3 + float64((w.seq*7+w.offset)%994)
	w.y = 3 + float64((w.seq*13+w.offset)%994)
	res, err := cli.Query(fmt.Sprintf("INSERT INTO events VALUES (%d, 'ev-%d', 'POINT (%g %g)')", w.seq, w.seq, w.x, w.y))
	if err != nil {
		return err
	}
	if _, err := fmt.Sscanf(res.Message, "1 row inserted (%d replicas)", &w.replicas); err != nil || w.replicas < 1 {
		return wrongf("insert answered %q", res.Message)
	}
	w.live = true
	w.inserts++
	return nil
}

// clusterScatter is the distributed workload: one client sending router
// windows, the keyed distance join and replicated writes through a
// three-shard cluster. Each of a run's set-ups loads its own tables,
// drawn from the run's seed: the join's latency depends on how many
// rows land near tile borders and are replicated, which moved it by
// 10% from one seed's tables to another's, and a run pools its set-ups.
func clusterScatter(e *env) (*workload, error) {
	const reps = 5
	sds := make([]*scatterData, reps)
	for i := range sds {
		sd, err := makeScatterData(e, e.seed*reps+int64(i))
		if err != nil {
			return nil, err
		}
		if e.wrongAnswer {
			sd.join.sum++
		}
		sds[i] = sd
	}
	k := 0
	return &workload{headline: opJoin, reps: reps, start: func(traced bool) (*system, error) {
		var reg *telemetry.Registry
		var tr *telemetry.Tracer
		if traced {
			reg, tr = telemetry.New(), telemetry.NewTracer(telemetry.New(), -1, nil)
		}
		sd := sds[k%reps]
		k++
		ce, err := startCluster(3, reg, tr)
		if err != nil {
			return nil, err
		}
		if err := execAll(ce.cli, sd.load); err != nil {
			ce.close()
			return nil, err
		}
		w := &clusterWriter{offset: int(e.seed % 997)}
		return &system{
			loop: func(d time.Duration) *loopResult { return scatterLoop(ce.cli, sd, d, e.seed, 2, w) },
			check: func(r *report) error {
				nc, ns := scatterCounts(e)
				live := 0
				if w.live {
					live = 1
				}
				r.check("row counts", errors.Join(expectCount(ce.cli, "bl", nc),
					expectCount(ce.cli, "br", ns), expectCount(ce.cli, "events", live)))
				return nil
			},
			close: ce.close,
		}, nil
	}}, nil
}

// scatterLoop drives the cluster mix for dur: 10% keyed distance joins,
// 85% windows on either table, 5% writes, in a cycle shuffled by seed.
// Warm-up ops are joins, so every run checks the join at least once.
func scatterLoop(cli *wire.Client, sd *scatterData, dur time.Duration, seed int64, warm int, w *clusterWriter) *loopResult {
	rng := rand.New(rand.NewSource(seed * 104729))
	kinds := schedule(rng, [numOps]int{opJoin: 2, opWindow: 17, opWrite: 1})
	return closedLoop(1, warm, dur, func(c, seq int) (int, int, error) {
		kind := kinds[seq%len(kinds)]
		if seq < warm {
			kind = opJoin
		}
		switch kind {
		case opJoin:
			got, err := drain(cli, scatterJoinSQL)
			if err != nil {
				return opJoin, 0, err
			}
			return opJoin, got.n, checkSum(got, sd.join)
		case opWindow:
			p := &sd.windows[rng.Intn(len(sd.windows))]
			got, err := drainIDs(cli, p.sql)
			if err != nil {
				return opWindow, 0, err
			}
			return opWindow, got.n, checkSum(got, p.want)
		default:
			return opWrite, 1, w.next(cli)
		}
	})
}
