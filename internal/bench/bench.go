// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4.3 and §5.1). The same runs
// back the testing.B benchmarks in the repository root and the
// cmd/spatialbench binary.
//
// Dataset sizes default to laptop-scale fractions of the paper's
// proprietary datasets; the options let callers run the full sizes
// (3230 counties / 250K stars / 230K block groups). The reproduction
// target is the shape of each result — who wins, by what factor, where
// the crossover falls — not the absolute 2003-hardware numbers.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spatialtf/internal/datagen"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/storage"
)

// buildJoinSource loads ds and creates its R-tree.
func buildJoinSource(name string, ds datagen.Dataset, fanout int) (sjoin.Source, error) {
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		return sjoin.Source{}, err
	}
	tree, _, err := idxbuild.CreateRtree(tab, "geom", fanout, 1)
	if err != nil {
		return sjoin.Source{}, err
	}
	return sjoin.Source{Table: tab, Column: "geom", Tree: tree}, nil
}

// --- Table 1: counties self-join, distance sweep ---

// Table1Options parameterises the counties experiment.
type Table1Options struct {
	// Counties is the dataset size (paper: 3230).
	Counties int
	// Seed fixes the generator.
	Seed int64
	// Distances is the sweep; 0 means plain intersection, matching the
	// paper's "specifying either intersection (distance of 0) or ... a
	// distance".
	Distances []float64
}

// DefaultTable1Options returns the paper-scale configuration. A nil
// Distances slice makes RunTable1 derive a sweep from the county cell
// size, growing the result set by roughly the same factors as the
// paper's Table 1 (every county already touches its 8 neighbours, so
// meaningful growth starts near one cell diameter).
func DefaultTable1Options() Table1Options {
	return Table1Options{Counties: 3230, Seed: 1}
}

// defaultDistances derives the Table 1 sweep from the dataset size: the
// counties tile a √n × √n grid, so one cell spans world/√n units.
func defaultDistances(counties int) []float64 {
	side := math.Ceil(math.Sqrt(float64(counties)))
	cell := datagen.World.Width() / side
	return []float64{0, 0.4 * cell, 0.8 * cell, 1.2 * cell}
}

// Table1Row is one line of Table 1. Alongside wall time it reports the
// logical index accesses ("buffer gets") of each strategy — the cost a
// disk-resident 2003 execution is dominated by, and the column in which
// the paper's nested-loop/index-join gap shows on an in-memory engine.
type Table1Row struct {
	Distance   float64
	ResultSize int
	NestedLoop time.Duration
	NLGets     int
	IndexJoin  time.Duration
	IJGets     int
}

// RunTable1 regenerates Table 1: for each distance, the counties
// self-join evaluated by nested loop and by the spatial_join table
// function.
func RunTable1(opt Table1Options) ([]Table1Row, error) {
	if opt.Distances == nil {
		opt.Distances = defaultDistances(opt.Counties)
	}
	src, err := buildJoinSource("counties", datagen.Counties(opt.Counties, opt.Seed), 0)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, d := range opt.Distances {
		cfg := sjoin.DefaultConfig()
		cfg.Distance = d

		t0 := time.Now()
		nl, nlStats, err := sjoin.NestedLoopStats(src, src, cfg)
		if err != nil {
			return nil, err
		}
		nlTime := time.Since(t0)

		fn, err := sjoin.NewJoinFunction(src, src, cfg)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		ijCount, ijStats, err := sjoin.RunJoinFunction(fn, 0)
		if err != nil {
			return nil, err
		}
		ijTime := time.Since(t0)

		if len(nl) != ijCount {
			return nil, fmt.Errorf("bench: result mismatch at d=%g: nested loop %d, index join %d", d, len(nl), ijCount)
		}
		rows = append(rows, Table1Row{
			Distance:   d,
			ResultSize: ijCount,
			NestedLoop: nlTime,
			NLGets:     nlStats.NodeAccesses,
			IndexJoin:  ijTime,
			IJGets:     ijStats.NodeAccesses,
		})
	}
	return rows, nil
}

// --- Table 2: star-cluster self-join, size sweep, 1 and 2 processors ---

// Table2Options parameterises the star-cluster experiment.
type Table2Options struct {
	// Sizes is the subset sweep (paper: 25, 2.5K, 25K, 100K, 250K).
	Sizes []int
	Seed  int64
	// Workers2 is the parallel degree of the second index-join column
	// (paper: 2 processors).
	Workers2 int
	// SkipNestedLoopAbove skips the nested-loop run for sizes above this
	// bound (0 = never skip); the full 250K nested loop is the slowest
	// cell of the whole reproduction.
	SkipNestedLoopAbove int
	// SimulateProcessors selects the deterministic multi-processor
	// simulator for the parallel column instead of goroutine wall-clock.
	// Required on hosts with fewer cores than Workers2 (the paper used a
	// 4-CPU machine); AutoSimulate picks it when needed.
	SimulateProcessors bool
}

// AutoSimulate reports whether the host has too few cores to
// demonstrate `workers`-way parallel speedup with wall-clock timing.
func AutoSimulate(workers int) bool {
	return runtime.NumCPU() < workers
}

// DefaultTable2Options returns the paper-scale configuration.
func DefaultTable2Options() Table2Options {
	return Table2Options{
		Sizes:              []int{25, 2500, 25000, 100000, 250000},
		Seed:               2,
		Workers2:           2,
		SimulateProcessors: AutoSimulate(2),
	}
}

// Table2Row is one line of Table 2 (buffer-gets columns as in Table 1).
type Table2Row struct {
	DataSize   int
	ResultSize int
	NestedLoop time.Duration // 0 when skipped
	NLSkipped  bool
	NLGets     int
	IndexJoin1 time.Duration
	IJGets     int
	IndexJoin2 time.Duration
}

// RunTable2 regenerates Table 2: self-joins of star-cluster subsets by
// nested loop, 1-worker index join, and Workers2-worker parallel join.
func RunTable2(opt Table2Options) ([]Table2Row, error) {
	if opt.Workers2 < 2 {
		opt.Workers2 = 2
	}
	full := datagen.Stars(maxInt(opt.Sizes), opt.Seed)
	var rows []Table2Row
	for _, n := range opt.Sizes {
		subset := datagen.Dataset{Name: "stars", Geoms: full.Geoms[:n], Bounds: full.Bounds}
		src, err := buildJoinSource(fmt.Sprintf("stars_%d", n), subset, 0)
		if err != nil {
			return nil, err
		}
		cfg := sjoin.DefaultConfig()
		row := Table2Row{DataSize: n}

		nlRan := false
		if opt.SkipNestedLoopAbove > 0 && n > opt.SkipNestedLoopAbove {
			row.NLSkipped = true
		} else {
			t0 := time.Now()
			nl, nlStats, err := sjoin.NestedLoopStats(src, src, cfg)
			if err != nil {
				return nil, err
			}
			row.NestedLoop = time.Since(t0)
			row.NLGets = nlStats.NodeAccesses
			row.ResultSize = len(nl)
			nlRan = true
		}

		fn, err := sjoin.NewJoinFunction(src, src, cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		i1Count, i1Stats, err := sjoin.RunJoinFunction(fn, 0)
		if err != nil {
			return nil, err
		}
		row.IndexJoin1 = time.Since(t0)
		row.IJGets = i1Stats.NodeAccesses
		if !nlRan {
			row.ResultSize = i1Count
		} else if row.ResultSize != i1Count {
			return nil, fmt.Errorf("bench: n=%d result mismatch: nested loop %d, index join %d", n, row.ResultSize, i1Count)
		}

		var i2 int
		if opt.SimulateProcessors {
			res, err := sjoin.SimulateParallelIndexJoin(src, src, cfg, opt.Workers2)
			if err != nil {
				return nil, err
			}
			row.IndexJoin2 = res.Elapsed
			i2 = len(res.Pairs)
		} else {
			t0 = time.Now()
			pcur, err := sjoin.ParallelIndexJoin(src, src, cfg, opt.Workers2)
			if err != nil {
				return nil, err
			}
			pp, err := sjoin.CollectPairs(pcur)
			if err != nil {
				return nil, err
			}
			row.IndexJoin2 = time.Since(t0)
			i2 = len(pp)
		}
		if i2 != i1Count {
			return nil, fmt.Errorf("bench: n=%d parallel join %d pairs, serial %d", n, i2, i1Count)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table 3: parallel index creation ---

// Table3Options parameterises the block-groups index-creation
// experiment.
type Table3Options struct {
	// BlockGroups is the dataset size (paper: ~230K).
	BlockGroups int
	Seed        int64
	// Workers is the parallelism sweep (paper: 1, 2, 4).
	Workers []int
	// TilingLevel is the quadtree tiling level.
	TilingLevel int
	// SimulateProcessors selects the multi-processor simulator (see
	// Table2Options.SimulateProcessors).
	SimulateProcessors bool
}

// DefaultTable3Options returns the paper-scale configuration.
func DefaultTable3Options() Table3Options {
	return Table3Options{
		BlockGroups:        230000,
		Seed:               3,
		Workers:            []int{1, 2, 4},
		TilingLevel:        9,
		SimulateProcessors: AutoSimulate(4),
	}
}

// Table3Row is one line of Table 3.
type Table3Row struct {
	Workers      int
	Quadtree     time.Duration
	QuadtreeTess time.Duration // tessellation (load) phase share
	Rtree        time.Duration
}

// RunTable3 regenerates Table 3: quadtree and R-tree creation times on
// the block-groups data at each parallel degree.
func RunTable3(opt Table3Options) ([]Table3Row, error) {
	ds := datagen.BlockGroups(opt.BlockGroups, opt.Seed)
	tab, _, err := datagen.LoadTable("blockgroups", ds)
	if err != nil {
		return nil, err
	}
	grid, err := quadtree.NewGrid(ds.Bounds, opt.TilingLevel)
	if err != nil {
		return nil, err
	}
	buildQuadtree, buildRtree := idxbuild.CreateQuadtree, idxbuild.CreateRtree
	if opt.SimulateProcessors {
		buildQuadtree, buildRtree = idxbuild.CreateQuadtreeSim, idxbuild.CreateRtreeSim
	}
	var rows []Table3Row
	for _, w := range opt.Workers {
		_, qs, err := buildQuadtree(tab, "geom", grid, w)
		if err != nil {
			return nil, err
		}
		_, rs, err := buildRtree(tab, "geom", 0, w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Workers:      w,
			Quadtree:     qs.Total,
			QuadtreeTess: qs.LoadPhase,
			Rtree:        rs.Total,
		})
	}
	return rows, nil
}

// --- Figure 1: subtree-pair decomposition demo ---

// Figure1Result is the executable rendering of Figure 1: the subtree
// roots of the two indexes after a one-level descent and the join pairs
// scheduled from them.
type Figure1Result struct {
	RootsA, RootsB int
	Pairs          []string // labels like "(R11, S11)"
	PrunedPairs    int      // MBR-disjoint pairs skipped
}

// RunFigure1 builds two small indexes and enumerates their subtree join
// pairs exactly as §4.1 describes. The first operand is a clustered
// star set, the second a contiguous counties map (which tiles the whole
// domain), so overlapping subtree pairs exist at any scale while some
// pairs still prune.
func RunFigure1(n int, seed int64) (Figure1Result, error) {
	a, err := buildJoinSource("fig1_a", datagen.Stars(n, seed), 8)
	if err != nil {
		return Figure1Result{}, err
	}
	b, err := buildJoinSource("fig1_b", datagen.Counties(n/4+1, seed+1), 8)
	if err != nil {
		return Figure1Result{}, err
	}
	cfg := sjoin.DefaultConfig()
	ra := a.Tree.SubtreeRoots(1)
	rb := b.Tree.SubtreeRoots(1)
	pairs := sjoin.SubtreePairs(a.Tree, b.Tree, 1, cfg)
	res := Figure1Result{
		RootsA:      len(ra),
		RootsB:      len(rb),
		PrunedPairs: len(ra)*len(rb) - len(pairs),
	}
	// Label pairs R1i / S1j in root order, as in the figure.
	for _, p := range pairs {
		ia := indexOfRoot(ra, p.A)
		ib := indexOfRoot(rb, p.B)
		res.Pairs = append(res.Pairs, fmt.Sprintf("(R1%d, S1%d)", ia+1, ib+1))
	}
	return res, nil
}

// indexOfRoot locates a subtree root within the enumeration order.
func indexOfRoot(roots []rtree.NodeRef, want rtree.NodeRef) int {
	for i, r := range roots {
		if r == want {
			return i
		}
	}
	return -1
}

// --- Figure 2: parallel quadtree creation pipeline demo ---

// Figure2Result is the executable rendering of Figure 2: row counts at
// each pipeline stage of the parallel quadtree build.
type Figure2Result struct {
	GeometryRows int
	Partitions   []int // geometry rows per tessellator instance
	TileRows     int   // index-table rows produced
	IndexEntries int   // entries in the final B-tree
}

// RunFigure2 drives the Figure 2 pipeline with instrumentation.
func RunFigure2(n, workers int, seed int64, level int) (Figure2Result, error) {
	ds := datagen.BlockGroups(n, seed)
	tab, _, err := datagen.LoadTable("fig2", ds)
	if err != nil {
		return Figure2Result{}, err
	}
	grid, err := quadtree.NewGrid(ds.Bounds, level)
	if err != nil {
		return Figure2Result{}, err
	}
	res := Figure2Result{GeometryRows: tab.Len()}
	// Count the partition sizes the table function would receive.
	for _, r := range tab.PageRanges(workers) {
		count := 0
		tab.ScanRange(r[0], r[1], func(storage.RowID, storage.Row) bool {
			count++
			return true
		})
		res.Partitions = append(res.Partitions, count)
	}
	idx, stats, err := idxbuild.CreateQuadtree(tab, "geom", grid, workers)
	if err != nil {
		return Figure2Result{}, err
	}
	res.TileRows = stats.Entries
	res.IndexEntries = idx.EntryCount()
	return res, nil
}

// --- helpers ---

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
