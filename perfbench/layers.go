package main

// The traced run. It measures the per-layer metrics by timing calls into
// each layer's public functions from here, and by reading the counters
// and query traces the program already exposes (telemetry registries,
// DB.SetTracer, Coordinator.SetTracer, JoinStats). Nothing is
// instrumented inside the program.
//
// The same query is timed at each rung of a ladder down the stack, and
// a layer's self time is its rung minus the rung below it:
//
//	star join: geom.Relate over the candidates → sjoin.RunJoinFunction →
//	  DB.SpatialJoin drained → sqlmini ExecuteStream in-process → wire
//	  over loopback; keyed, all without telemetry: single node over
//	  wire → router at 1 shard → router at 3 shards
//	window:    rtree.SearchCounted → DB.Relate → ExecuteStream → wire
//
// Every traced run measures every layer: the ladders run on the
// star_join, mixed_serve and cluster_scatter data generated from the
// run's seed. The workload named on the command line only selects the
// loop whose traced-versus-untraced latency gives
// telemetry.overhead_frac.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// ladderRounds is how many interleaved rounds each ladder runs; every
// rung reports its median round. On a shared 2-CPU host single rounds
// of the star join vary by ±20%, so layer differences of a few ms need
// this many.
func ladderRounds(e *env) int {
	if e.short {
		return 2
	}
	return 11
}

func runLayers(e *env) (*report, error) {
	r := newReport()
	steps := []func(*env, *report) error{overhead, starLayers, mixedLayers}
	for _, step := range steps {
		if err := step(e, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// counter reads a counter or gauge from reg (0 when absent).
func counter(reg *telemetry.Registry, name string) float64 {
	p, _ := reg.Lookup(name)
	return p.Value
}

// hist reads a histogram's count and sum from reg.
func hist(reg *telemetry.Registry, name string) (int64, float64) {
	p, _ := reg.Lookup(name)
	return p.Count, p.Sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rungs times named calls in interleaved rounds and returns each
// call's median duration. Interleaving spreads host noise evenly over
// the rungs whose differences are reported.
type rungs struct {
	names []string
	fns   []func() error
	times map[string][]float64
}

func (l *rungs) add(name string, fn func() error) {
	l.names = append(l.names, name)
	l.fns = append(l.fns, fn)
}

func (l *rungs) run(rounds int) error {
	l.times = make(map[string][]float64)
	for i := 0; i < rounds; i++ {
		for j, fn := range l.fns {
			t0 := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", l.names[j], err)
			}
			l.times[l.names[j]] = append(l.times[l.names[j]], float64(time.Since(t0)))
		}
	}
	return nil
}

// med returns the median time of a rung.
func (l *rungs) med(name string) time.Duration { return time.Duration(median(l.times[name])) }

// mbrPairs returns the index pairs (i, j) whose MBRs lie within d of
// each other — the candidates a primary filter hands the exact test.
func mbrPairs(a, b []geom.Geometry, d float64) [][2]int32 {
	am := make([]geom.MBR, len(a))
	for i, g := range a {
		am[i] = geom.MBROf(g)
	}
	bm := make([]geom.MBR, len(b))
	order := make([]int32, len(b))
	maxW := 0.0
	for i, g := range b {
		bm[i] = geom.MBROf(g)
		order[i] = int32(i)
		maxW = max(maxW, bm[i].Width())
	}
	sort.Slice(order, func(x, y int) bool { return bm[order[x]].MinX < bm[order[y]].MinX })
	var out [][2]int32
	for i, m := range am {
		lo := sort.Search(len(order), func(k int) bool { return bm[order[k]].MinX >= m.MinX-maxW-d })
		for k := lo; k < len(order) && bm[order[k]].MinX <= m.MaxX+d; k++ {
			j := order[k]
			if (d == 0 && m.Intersects(bm[j])) || (d > 0 && m.Dist(bm[j]) <= d) {
				out = append(out, [2]int32{int32(i), j})
			}
		}
	}
	return out
}

// replay runs the exact predicate over every candidate and returns how
// many held.
func replay(a, b []geom.Geometry, cands [][2]int32, d float64) int {
	n := 0
	for _, c := range cands {
		var ok bool
		if d > 0 {
			ok = geom.WithinDistance(a[c[0]], b[c[1]], d)
		} else {
			ok = geom.Relate(a[c[0]], b[c[1]], geom.MaskAnyInteract)
		}
		if ok {
			n++
		}
	}
	return n
}

// traceLog collects the lines a tracer's slow log emits; with a zero
// threshold that is one line per query, carrying its stage totals.
type traceLog struct {
	mu    sync.Mutex
	lines []string
}

func (t *traceLog) logf(format string, args ...any) {
	t.mu.Lock()
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// stageMedian returns the median, over the logged queries whose line
// contains label, of the stage's accumulated time, in ms.
func (t *traceLog) stageMedian(label, stage string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, ln := range t.lines {
		if !strings.Contains(ln, label) {
			continue
		}
		for _, f := range strings.Fields(ln) {
			v, ok := strings.CutPrefix(f, stage+"=")
			if !ok {
				continue
			}
			dur, _, _ := strings.Cut(v, "/")
			if d, err := time.ParseDuration(dur); err == nil {
				xs = append(xs, ms(d))
			}
		}
	}
	return median(xs), len(xs)
}

// overhead measures telemetry.overhead_frac on the named workload: the
// headline latency with the program's telemetry and tracers attached,
// minus the latency without, over the latency without. Both systems are
// set up side by side and the loop alternates between them in slices
// over half the measured time; the ladders take the rest of the run.
func overhead(e *env, r *report) error {
	w, err := workloads[e.workload](e)
	if err != nil {
		return err
	}
	var sys [2]*system
	for i := range sys {
		if sys[i], err = w.start(i == 1); err != nil {
			return err
		}
		defer sys[i].close()
	}
	const slices = 6
	var lat [2]samples
	for i := 0; i < slices; i++ {
		loop := sys[i%2].loop(e.dur() / 2 / slices)
		r.attempted += loop.attempted
		r.failed += loop.failed
		if loop.firstErr != nil {
			r.notef("overhead loop: %v", loop.firstErr)
		}
		lat[i%2] = append(lat[i%2], loop.lat[w.headline]...)
	}
	p0, p1 := ms(lat[0].quantile(0.5)), ms(lat[1].quantile(0.5))
	r.set("telemetry.untraced_p50_ms", "ms", p0, len(lat[0]))
	r.set("telemetry.traced_p50_ms", "ms", p1, len(lat[1]))
	r.set("telemetry.overhead_frac", "ratio", ratio(p1-p0, p0), len(lat[0])+len(lat[1]))
	return nil
}

// keyedStarSQL is the star self-join in the keyed form a cluster needs.
const keyedStarSQL = "SELECT key1, key2 FROM TABLE(spatial_join('stars','geom','stars','geom','anyinteract','keys=id:id'))"

// starLayers runs the star-join ladder, the real-parallel worker sweep
// and the disputed ablations on the star_join data, and the router
// rungs and cluster counters on clusters of 1 and 3 shards.
func starLayers(e *env, r *report) error {
	ds := spatialtf.Stars(starCount(e), e.seed)
	reg := telemetry.New()
	se, err := setupStars(ds, reg, telemetry.NewTracer(telemetry.New(), -1, nil))
	if err != nil {
		return err
	}
	defer se.close()
	r.set("idxbuild.rtree_build_ms", "ms", ms(se.build), 1)
	src, err := starSource(se.db)
	if err != nil {
		return err
	}
	want, err := joinOracle(src)
	if err != nil {
		return err
	}
	cands := mbrPairs(ds.Geoms, ds.Geoms, 0)

	// The keyed rungs are subtracted from one another, so all three run
	// without telemetry: a single node served on loopback, and clusters
	// of 1 and 3 shards loaded with the same star rows.
	plain, err := setupStars(ds, nil, nil)
	if err != nil {
		return err
	}
	defer plain.close()
	load := datasetSQL("stars", ds)
	c1, err := startCluster(1, nil, nil)
	if err != nil {
		return err
	}
	defer c1.close()
	c3, err := startCluster(3, nil, nil)
	if err != nil {
		return err
	}
	defer c3.close()
	for _, c := range []*clusterEnv{c1, c3} {
		if err := execAll(c.cli, load); err != nil {
			return err
		}
	}
	cli, err := wire.Dial(se.srv.addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	plainCli, err := wire.Dial(plain.srv.addr)
	if err != nil {
		return err
	}
	defer plainCli.Close()
	eng := sqlmini.NewEngineOn(se.db)
	var keyed pairSum
	if keyed, err = drain(plainCli, keyedStarSQL); err != nil {
		return err
	}
	r.check("keyed star join row count", func() error {
		if keyed.n != want.n {
			return wrongf("%d rows, want %d", keyed.n, want.n)
		}
		return nil
	}())

	// The ladder.
	tracer := telemetry.NewTracer(telemetry.New(), -1, nil)
	// The engine rung shares one decoded-geometry cache across rounds,
	// as the facade shares the database's, so the rungs differ only by
	// the layers between them.
	cache := sjoin.NewGeomCache(sjoin.DefaultGeomCacheBytes)
	var stages [telemetry.NumStages][]float64
	var stats sjoin.JoinStats
	fetchNanos0 := counter(reg, "server_fetch_nanos_total")
	batches0, batchRows0 := hist(reg, "server_batch_rows")
	queries0 := counter(reg, "server_queries_total")
	var l rungs
	l.add("engine", func() error {
		cfg := sjoin.DefaultConfig()
		cfg.GeomCache = cache
		cfg.Trace = tracer.Begin("engine")
		fn, err := sjoin.NewJoinFunction(src, src, cfg)
		if err != nil {
			return err
		}
		n, st, err := sjoin.RunJoinFunction(fn, 0)
		cfg.Trace.Finish()
		if err != nil {
			return err
		}
		for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
			d, _ := cfg.Trace.StageTotal(s)
			stages[s] = append(stages[s], ms(d))
		}
		stats = st
		if n != want.n {
			return wrongf("engine returned %d pairs, want %d", n, want.n)
		}
		return nil
	})
	l.add("facade", func() error { return facadeJoin(se.db, spatialtf.JoinOptions{}, want.n) })
	l.add("sqlmini", func() error {
		got, err := localSum(eng, starJoinSQL)
		if err != nil {
			return err
		}
		return checkSum(got, want)
	})
	l.add("wire", func() error {
		got, err := drain(cli, starJoinSQL)
		if err != nil {
			return err
		}
		return checkSum(got, want)
	})
	l.add("keyed", func() error {
		got, err := drain(plainCli, keyedStarSQL)
		if err != nil {
			return err
		}
		return checkSum(got, keyed)
	})
	for _, c := range []struct {
		name string
		cli  *wire.Client
	}{{"router1", c1.cli}, {"router3", c3.cli}} {
		l.add(c.name, func() error {
			got, err := drain(c.cli, keyedStarSQL)
			if err != nil {
				return err
			}
			return checkSum(got, keyed)
		})
	}
	l.add("relate", func() error {
		if n := replay(ds.Geoms, ds.Geoms, cands, 0); n != want.n {
			return wrongf("replayed Relate holds for %d candidates, want %d", n, want.n)
		}
		return nil
	})
	rounds := ladderRounds(e)
	r.check("star ladder", l.run(rounds))
	rowsPerQuery := float64(want.n)
	wireQueries := counter(reg, "server_queries_total") - queries0
	batches, batchRows := hist(reg, "server_batch_rows")
	r.set("ladder.relate_ms", "ms", ms(l.med("relate")), rounds)
	r.set("geom.relate_ns", "ns", float64(l.med("relate"))/float64(len(cands)), rounds*len(cands))
	r.set("geom.relate_true_frac", "ratio", float64(want.n)/float64(len(cands)), len(cands))
	r.set("sjoin.engine_ms", "ms", ms(l.med("engine")), rounds)
	r.set("ladder.facade_ms", "ms", ms(l.med("facade")), rounds)
	r.set("ladder.sqlmini_ms", "ms", ms(l.med("sqlmini")), rounds)
	r.set("ladder.wire_ms", "ms", ms(l.med("wire")), rounds)
	r.set("ladder.keyed_ms", "ms", ms(l.med("keyed")), rounds)
	r.set("ladder.router1_ms", "ms", ms(l.med("router1")), rounds)
	r.set("ladder.router3_ms", "ms", ms(l.med("router3")), rounds)
	r.set("tablefunc.cursor_self_ms", "ms", ms(l.med("facade")-l.med("engine")), rounds)
	r.set("sqlmini.exec_self_ms", "ms", ms(l.med("sqlmini")-l.med("facade")), rounds)
	r.set("wire.self_ms", "ms", ms(l.med("wire")-l.med("sqlmini")), rounds)
	r.set("wire.ns_per_row", "ns", float64(l.med("wire")-l.med("sqlmini"))/rowsPerQuery, rounds)
	r.set("cluster.router_self_ms", "ms", ms(l.med("router1")-l.med("keyed")), rounds)
	r.set("cluster.fanout_ms", "ms", ms(l.med("router3")-l.med("router1")), rounds)
	r.set("server.rows_per_fetch", "rows", ratio(batchRows-batchRows0, float64(batches-batches0)), int(batches-batches0))
	r.set("server.fetch_ms_per_query", "ms",
		ratio(counter(reg, "server_fetch_nanos_total")-fetchNanos0, wireQueries)/1e6, int(wireQueries))
	for _, s := range []telemetry.Stage{telemetry.StagePrimary, telemetry.StageSort,
		telemetry.StageSecondary, telemetry.StageGeomFetch} {
		r.set("sjoin."+s.String()+"_ms", "ms", median(stages[s]), rounds)
	}
	r.set("sjoin.candidates", "count", float64(stats.Candidates), 1)
	r.set("sjoin.results_per_candidate", "ratio", ratio(float64(stats.Results), float64(stats.Candidates)), stats.Candidates)
	r.set("sjoin.node_accesses", "count", float64(stats.NodeAccesses), 1)
	r.set("sjoin.fast_accepts", "count", float64(stats.FastAccepts), 1)
	r.set("sjoin.geom_cache_hit_frac", "ratio",
		ratio(float64(stats.CacheHits), float64(stats.CacheHits+stats.CacheMisses)), stats.CacheHits+stats.CacheMisses)

	if err := sweep(e, r, src, want.n); err != nil {
		return err
	}
	if err := ablations(e, r, se.db, want.n); err != nil {
		return err
	}
	return clusterCounters(e, r)
}

// facadeJoin drains DB.SpatialJoin on the star table and checks the
// pair count.
func facadeJoin(db *spatialtf.DB, opt spatialtf.JoinOptions, want int) error {
	jc, err := db.SpatialJoin("stars", "stars_idx", "stars", "stars_idx", opt)
	if err != nil {
		return err
	}
	defer jc.Close()
	n := 0
	for {
		_, ok, err := jc.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	if n != want {
		return wrongf("facade join returned %d pairs, want %d", n, want)
	}
	return nil
}

// sweepWorkers is the worker counts of the parallel sweep: 1 to nproc,
// and at least 1 and 2 so the metric names are the same on every host.
func sweepWorkers() []int {
	n := max(2, runtime.NumCPU())
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i + 1
	}
	return ws
}

// sweep times the real grid and subtree parallel joins at each worker
// count, wall clock, beside the simulators' makespans. It also reads the
// grid path's partition and tile-sweep stages from a traced grid run.
func sweep(e *env, r *report, src sjoin.Source, want int) error {
	cfg := sjoin.DefaultConfig()
	var l rungs
	for _, w := range sweepWorkers() {
		l.add(fmt.Sprintf("grid.w%d", w), func() error {
			cur, err := sjoin.GridParallelJoin(src, src, cfg, w)
			if err != nil {
				return err
			}
			return countPairs(cur, want)
		})
		l.add(fmt.Sprintf("subtree.w%d", w), func() error {
			cur, err := sjoin.ParallelIndexJoin(src, src, cfg, w)
			if err != nil {
				return err
			}
			return countPairs(cur, want)
		})
	}
	rounds := ladderRounds(e)
	r.check("parallel sweep", l.run(rounds))
	for _, w := range sweepWorkers() {
		r.set(fmt.Sprintf("sjoin.grid_wall_ms.w%d", w), "ms", ms(l.med(fmt.Sprintf("grid.w%d", w))), rounds)
		r.set(fmt.Sprintf("sjoin.subtree_wall_ms.w%d", w), "ms", ms(l.med(fmt.Sprintf("subtree.w%d", w))), rounds)
		var gs, ss []float64
		for i := 0; i < 3; i++ {
			g, err := sjoin.SimulateGridJoin(src, src, cfg, w)
			if err != nil {
				return err
			}
			s, err := sjoin.SimulateParallelIndexJoin(src, src, cfg, w)
			if err != nil {
				return err
			}
			r.check("simulated join pair count", func() error {
				if len(g.Pairs) != want || len(s.Pairs) != want {
					return wrongf("simulators returned %d and %d pairs, want %d", len(g.Pairs), len(s.Pairs), want)
				}
				return nil
			}())
			gs = append(gs, ms(g.Elapsed))
			ss = append(ss, ms(s.Elapsed))
		}
		r.set(fmt.Sprintf("sjoin.grid_sim_ms.w%d", w), "ms", median(gs), 3)
		r.set(fmt.Sprintf("sjoin.subtree_sim_ms.w%d", w), "ms", median(ss), 3)
	}
	// Stage split of the grid path at all workers.
	tracer := telemetry.NewTracer(telemetry.New(), -1, nil)
	var part, tiles []float64
	for i := 0; i < 3; i++ {
		tcfg := cfg
		tcfg.Trace = tracer.Begin("grid")
		cur, err := sjoin.GridParallelJoin(src, src, tcfg, runtime.NumCPU())
		if err != nil {
			return err
		}
		r.check("traced grid join", countPairs(cur, want))
		tcfg.Trace.Finish()
		d, _ := tcfg.Trace.StageTotal(telemetry.StageGridPartition)
		part = append(part, ms(d))
		d, _ = tcfg.Trace.StageTotal(telemetry.StageTileSweep)
		tiles = append(tiles, ms(d))
	}
	r.set("sjoin.grid_partition_ms", "ms", median(part), 3)
	r.set("sjoin.tile_sweep_ms", "ms", median(tiles), 3)
	return nil
}

// countPairs drains a join cursor and checks its pair count.
func countPairs(cur storage.Cursor, want int) error {
	defer cur.Close()
	n := 0
	for {
		_, _, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	if n != want {
		return wrongf("%d pairs, want %d", n, want)
	}
	return nil
}

// ablations runs the disputed switches at the facade rung, interleaved
// with the default: the §4.2 rowid sort of candidates off, and the
// shared decoded-geometry cache disabled.
func ablations(e *env, r *report, db *spatialtf.DB, want int) error {
	var l rungs
	l.add("default", func() error { return facadeJoin(db, spatialtf.JoinOptions{}, want) })
	l.add("nosort", func() error { return facadeJoin(db, spatialtf.JoinOptions{NoSortCandidates: true}, want) })
	l.add("nocache", func() error { return facadeJoin(db, spatialtf.JoinOptions{GeomCacheBytes: -1}, want) })
	rounds := ladderRounds(e)
	r.check("ablations", l.run(rounds))
	r.set("sjoin.ablation_default_ms", "ms", ms(l.med("default")), rounds)
	r.set("sjoin.nosort_ms", "ms", ms(l.med("nosort")), rounds)
	r.set("sjoin.nocache_ms", "ms", ms(l.med("nocache")), rounds)
	return nil
}

// clusterCounters loads the cluster_scatter tables into a traced
// 3-shard cluster, runs its mix briefly and reads the router's counters
// and per-query scatter/merge stage times; it also replays the exact
// distance test over the cluster join's candidates.
func clusterCounters(e *env, r *report) error {
	sd, err := makeScatterData(e, e.seed)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	clog := &traceLog{}
	c3, err := startCluster(3, reg, telemetry.NewTracer(telemetry.New(), 0, clog.logf))
	if err != nil {
		return err
	}
	defer c3.close()
	if err := execAll(c3.cli, sd.load); err != nil {
		return err
	}
	clog.mu.Lock()
	clog.lines = nil
	clog.mu.Unlock()
	scat0, shards0 := counter(reg, "cluster_scatter_total"), counter(reg, "cluster_scatter_shards_total")
	reps0 := counter(reg, "cluster_insert_replicas_total")
	w := &clusterWriter{offset: int(e.seed % 997)}
	loop := scatterLoop(c3.cli, sd, probeDur(e), e.seed, 1, w)
	r.attempted += loop.attempted
	r.failed += loop.failed
	if loop.firstErr != nil {
		r.notef("cluster probe: %v", loop.firstErr)
	}
	inserts := w.inserts
	scat := counter(reg, "cluster_scatter_total") - scat0
	r.set("cluster.shards_per_query", "shards", ratio(counter(reg, "cluster_scatter_shards_total")-shards0, scat), int(scat))
	r.set("cluster.replicas_per_insert", "replicas",
		ratio(counter(reg, "cluster_insert_replicas_total")-reps0, float64(inserts)), inserts)
	v, n := clog.stageMedian("spatial_join", "scatter")
	r.set("cluster.scatter_ms", "ms", v, n)
	v, n = clog.stageMedian("spatial_join", "merge")
	r.set("cluster.merge_ms", "ms", v, n)

	nc, ns := scatterCounts(e)
	bl, br := spatialtf.Counties(nc, e.seed), scatterStars(ns, e.seed)
	cands := mbrPairs(bl.Geoms, br.Geoms, 3)
	var hits int
	d, err := medianDur(ladderRounds(e), func() error {
		hits = replay(bl.Geoms, br.Geoms, cands, 3)
		return nil
	})
	if err != nil {
		return err
	}
	r.check("replayed distance join", func() error {
		if hits != sd.join.n {
			return wrongf("WithinDistance holds for %d candidates, the join returned %d", hits, sd.join.n)
		}
		return nil
	}())
	r.set("geom.within_distance_ns", "ns", float64(d)/float64(len(cands)), len(cands))
	return nil
}

// probeDur is how long the traced run drives each counter probe loop.
func probeDur(e *env) time.Duration {
	return min(3*time.Second, max(e.dur()/3, time.Second))
}

// mixedLayers runs the window ladder on the mixed_serve data and reads
// the storage engine's counters over a short run of its mix.
func mixedLayers(e *env, r *report) error {
	ds := spatialtf.Counties(countyCount(e), e.seed)
	wp, dp := mixedProbes(rand.New(rand.NewSource(e.seed)), ds, 512, 256)
	reg, loadReg := telemetry.New(), telemetry.New()
	me, err := setupMixed(filepath.Join(e.scratch, "layers-mixed"), ds, loadReg, reg)
	if err != nil {
		return err
	}
	defer me.close()
	r.set("spatialtf.reopen_ms", "ms", ms(me.reopen), 1)
	t, err := me.db.Table("counties")
	if err != nil {
		return err
	}
	tree, _, err := idxbuild.CreateRtree(t.Inner(), "geom", 0, runtime.NumCPU())
	if err != nil {
		return err
	}
	eng := sqlmini.NewEngineOn(me.db)
	cli, err := wire.Dial(me.srv.addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	var nodes, hits, results int
	var l rungs
	l.add("rtree", func() error {
		nodes, hits, results = 0, 0, 0
		for i := range wp {
			nodes += tree.SearchCounted(geom.MBROf(wp[i].q), func(rtree.Item) bool { hits++; return true })
			results += wp[i].want.n
		}
		return nil
	})
	l.add("facade", func() error {
		for i := range wp {
			ids, err := me.db.Relate("counties", "counties_idx", wp[i].q, "anyinteract")
			if err != nil {
				return err
			}
			if len(ids) != wp[i].want.n {
				return wrongf("DB.Relate returned %d rows, want %d", len(ids), wp[i].want.n)
			}
		}
		return nil
	})
	l.add("sqlmini", func() error {
		for i := range wp {
			got, err := localSum(eng, wp[i].sql)
			if err != nil {
				return err
			}
			if err := checkSum(got, wp[i].want); err != nil {
				return err
			}
		}
		return nil
	})
	l.add("wire", func() error {
		for i := range wp {
			got, err := drainIDs(cli, wp[i].sql)
			if err != nil {
				return err
			}
			if err := checkSum(got, wp[i].want); err != nil {
				return err
			}
		}
		return nil
	})
	rounds := ladderRounds(e)
	r.check("window ladder", l.run(rounds))
	per := func(name string) float64 { return us(l.med(name)) / float64(len(wp)) }
	n := rounds * len(wp)
	r.set("rtree.window_search_us", "us", per("rtree"), n)
	r.set("rtree.nodes_per_search", "nodes", float64(nodes)/float64(len(wp)), len(wp))
	r.set("rtree.mbr_hits_per_result", "ratio", ratio(float64(hits), float64(results)), results)
	r.set("ladder.window_facade_us", "us", per("facade"), n)
	r.set("ladder.window_sqlmini_us", "us", per("sqlmini"), n)
	r.set("ladder.window_wire_us", "us", per("wire"), n)
	r.set("spatialtf.relate_self_us", "us", per("facade")-per("rtree"), n)
	r.set("sqlmini.window_self_us", "us", per("sqlmini")-per("facade"), n)
	r.set("wire.window_self_us", "us", per("wire")-per("sqlmini"), n)

	// Parse cost over the workload's statement text.
	stmts := []string{starJoinSQL, scatterJoinSQL}
	for i := range wp {
		stmts = append(stmts, wp[i].sql)
	}
	for i := range dp {
		stmts = append(stmts, dp[i].sql)
	}
	pd, err := medianDur(rounds, func() error {
		for _, s := range stmts {
			if _, err := sqlmini.Parse(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("sqlmini.parse_us", "us", us(pd)/float64(len(stmts)), rounds*len(stmts))

	// Storage counters over a short run of the mix.
	snap := func() map[string]float64 {
		m := map[string]float64{}
		for _, name := range []string{"pool_hits_total", "pool_misses_total", "pool_evictions_total",
			"pool_writebacks_total", "wal_bytes_total"} {
			m[name] = counter(reg, name)
		}
		c, _ := hist(reg, "wal_fsync_seconds")
		m["fsyncs"] = float64(c)
		return m
	}
	before := snap()
	writers := newWriters()
	loop := mixedLoop(me.srv.addr, e.seed, 20, probeDur(e), wp, dp, writers)
	r.attempted += loop.attempted
	r.failed += loop.failed
	if loop.firstErr != nil {
		r.notef("storage probe: %v", loop.firstErr)
	}
	if err := checkLevel(r, me.srv.addr, len(ds.Geoms), writers); err != nil {
		return err
	}
	after := snap()
	delta := func(k string) float64 { return after[k] - before[k] }
	ops := float64(loop.attempted)
	writes := float64(len(loop.lat[opWrite]))
	r.set("pager.pool_hit_frac", "ratio",
		ratio(delta("pool_hits_total"), delta("pool_hits_total")+delta("pool_misses_total")), int(ops))
	r.set("pager.evictions_per_op", "pages", ratio(delta("pool_evictions_total"), ops), int(ops))
	r.set("pager.wal_bytes_per_write", "bytes", ratio(delta("wal_bytes_total"), writes), int(writes))
	r.set("pager.fsyncs_per_write", "fsyncs", ratio(delta("fsyncs"), writes), int(writes))
	fp, _ := reg.Lookup("wal_fsync_seconds")
	r.set("pager.fsync_p50_us", "us", fp.Quantile(0.5)*1e6, int(fp.Count))
	r.set("pager.writebacks_per_op", "pages", ratio(delta("pool_writebacks_total"), ops), int(ops))
	// The serving mix logs too little to reach the checkpoint threshold
	// in a run; checkpoint work is read from the load, whose WAL does.
	r.set("pager.checkpoints", "count", counter(loadReg, "checkpoints_total"), 1)
	r.set("pager.checkpoint_pages", "pages", counter(loadReg, "checkpoint_pages_total"), 1)
	return nil
}
