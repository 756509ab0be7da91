package sjoin

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
)

// This file implements the grid-partitioned parallel join: a uniform
// W×H grid over the joint extent of both inputs, a per-tile plane sweep
// as the primary filter, and dynamic dealing of tiles to the parallel
// table-function instances (work stealing over a shared tile cursor
// instead of the static subtree-pair partitioning of §4.1).
//
// Replicated rectangles would produce duplicate result pairs, so each
// copy of an entry is tagged with its two-layer class for that tile
// (Tsitsigkos et al., "Two-layer Space-oriented Partitioning for
// Non-point Data"): whether the entry's low-x and low-y coordinates
// fall inside the tile. A pair is reported by the one tile that
// contains the bottom-left corner of the pair's MBR intersection, which
// is exactly the tile where the classes of the two entries OR to
// "both starts present" — one bit test per candidate pair, no
// reference-point arithmetic and no global dedup pass.

// Entry classes. classXStart marks a copy whose (distance-expanded) low
// x lies in the tile's column; classYStart the same for low y and the
// tile's row. The four A/B/C/D classes of the paper are the four bit
// combinations: A = both (the MBR starts in this tile), B = y only
// (entered from the west), C = x only (entered from the south),
// D = neither (entered diagonally).
const (
	classXStart uint8 = 1
	classYStart uint8 = 2
	// classBoth is the acceptance mask: a candidate pair is emitted in
	// the tile where the ORed classes cover both starts.
	classBoth uint8 = classXStart | classYStart
)

// Grid is the uniform partitioning of the joint extent.
type Grid struct {
	Bounds     geom.MBR
	Cols, Rows int

	cellW, cellH float64
}

// NewGrid partitions bounds into cols×rows equal tiles.
func NewGrid(bounds geom.MBR, cols, rows int) Grid {
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return Grid{
		Bounds: bounds,
		Cols:   cols,
		Rows:   rows,
		cellW:  (bounds.MaxX - bounds.MinX) / float64(cols),
		cellH:  (bounds.MaxY - bounds.MinY) / float64(rows),
	}
}

// ColOf returns the column containing x, clamped to the grid. Tiles are
// half-open ([lo, hi)) so every coordinate maps to exactly one tile;
// clamping keeps the class algebra consistent for coordinates at or
// beyond the boundary (everything left of the grid "starts" in
// column 0, everything right of it in the last column). The clamping
// also makes ColOf/RowOf a total ownership function over the plane,
// which is what the cluster layer shards reference points by.
func (g Grid) ColOf(x float64) int {
	if g.cellW <= 0 {
		return 0
	}
	c := int((x - g.Bounds.MinX) / g.cellW)
	if c < 0 {
		return 0
	}
	if c >= g.Cols {
		return g.Cols - 1
	}
	return c
}

// RowOf returns the row containing y, clamped to the grid.
func (g Grid) RowOf(y float64) int {
	if g.cellH <= 0 {
		return 0
	}
	r := int((y - g.Bounds.MinY) / g.cellH)
	if r < 0 {
		return 0
	}
	if r >= g.Rows {
		return g.Rows - 1
	}
	return r
}

// Tiles returns the tile count.
func (g Grid) Tiles() int { return g.Cols * g.Rows }

// Grid sizing: enough tiles that dynamic dealing can balance skew
// (several tiles per worker) without shrinking tiles so far that
// replication dominates.
const (
	// gridTargetPerTile is the combined input cardinality one tile aims
	// to hold.
	gridTargetPerTile = 128
	// gridTilesPerWorker is the minimum tile-to-worker ratio; dynamic
	// dealing needs a margin of tiles per instance to smooth skew.
	gridTilesPerWorker = 8
	// gridMaxTiles caps the grid so tiny inputs with many workers don't
	// allocate a huge, mostly-empty grid.
	gridMaxTiles = 1 << 14
)

// GridShape picks the grid dimensions from the input cardinalities and
// the worker count: the larger of (input size / target tile load) and
// (a few tiles per worker), capped, as a square grid.
func GridShape(nA, nB, workers int) (cols, rows int) {
	workers = normWorkers(workers)
	t := (nA + nB) / gridTargetPerTile
	if m := workers * gridTilesPerWorker; t < m {
		t = m
	}
	if t > gridMaxTiles {
		t = gridMaxTiles
	}
	if t < 1 {
		t = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(t))))
	return side, side
}

// gridTile holds the two per-tile entry lists, in xlo order (the inputs
// are sorted once globally before assignment, so appends preserve sweep
// order and no per-tile sort is needed). Each entry copy keeps the
// coordinates of the original (unexpanded) MBR — the kernel expands the
// first side by the join distance inline, so assignment and sweep agree
// bit-for-bit — and its idx into the grid's sorted item slice.
type gridTile struct {
	ra, rb []sweepEntry
}

// cost estimates a tile's sweep work for the longest-first queue order.
func (t *gridTile) cost() float64 {
	return float64(len(t.ra)) * float64(len(t.rb))
}

// gridState is the shared state of one grid join: both inputs' items
// in xlo order (tile entries index into them), the tile queue in
// longest-first order, and the atomic claim cursor the parallel
// instances steal tiles from.
type gridState struct {
	grid           Grid
	d              float64 // join distance (first side expanded by it)
	itemsA, itemsB []rtree.Item
	tiles          []gridTile
	next           atomic.Int64
}

// claim steals the next unclaimed tile index, or -1 when the queue is
// exhausted. This is the dynamic dealing: instances that finish early
// keep claiming, so a skewed tile delays only the instance holding it.
func (gs *gridState) claim() int {
	k := gs.next.Add(1) - 1
	if k >= int64(len(gs.tiles)) {
		return -1
	}
	return int(k)
}

// assignGrid appends one side's items to the dense tile array, tagging
// each copy with its class. expand widens the rectangles for tile
// assignment and class computation (the distance-join expansion of the
// first side); the stored coordinates stay unexpanded.
func assignGrid(dense []gridTile, g Grid, items []rtree.Item, expand float64, sideA bool) {
	for i, it := range items {
		c0 := g.ColOf(it.MBR.MinX - expand)
		c1 := g.ColOf(it.MBR.MaxX + expand)
		r0 := g.RowOf(it.MBR.MinY - expand)
		r1 := g.RowOf(it.MBR.MaxY + expand)
		e := sweepEntry{
			xlo: it.MBR.MinX, ylo: it.MBR.MinY,
			xhi: it.MBR.MaxX, yhi: it.MBR.MaxY,
			idx: int32(i),
		}
		for r := r0; r <= r1; r++ {
			base := r * g.Cols
			for c := c0; c <= c1; c++ {
				e.class = 0
				if c == c0 {
					e.class |= classXStart
				}
				if r == r0 {
					e.class |= classYStart
				}
				t := &dense[base+c]
				if sideA {
					t.ra = append(t.ra, e)
				} else {
					t.rb = append(t.rb, e)
				}
			}
		}
	}
}

// byMinX orders items for the global pre-assignment sort; per-tile
// lists inherit the order, which is what the tile sweep requires.
func byMinX(p, q rtree.Item) int {
	switch {
	case p.MBR.MinX < q.MBR.MinX:
		return -1
	case p.MBR.MinX > q.MBR.MinX:
		return 1
	default:
		return 0
	}
}

// buildGridState materialises both inputs, sizes the grid, assigns and
// classifies every rectangle, and queues the non-empty tiles longest
// first. Returns nil when either side is empty (the join is empty).
func buildGridState(a, b Source, cfg Config, workers int) *gridState {
	itemsA := a.Tree.Items()
	itemsB := itemsA
	if a.Tree != b.Tree {
		itemsB = b.Tree.Items()
	}
	if len(itemsA) == 0 || len(itemsB) == 0 {
		return nil
	}
	d := cfg.Distance
	bounds := a.Tree.Bounds().Expand(d).Union(b.Tree.Bounds())
	cols, rows := GridShape(len(itemsA), len(itemsB), workers)
	g := NewGrid(bounds, cols, rows)
	slices.SortFunc(itemsA, byMinX)
	if a.Tree != b.Tree {
		slices.SortFunc(itemsB, byMinX)
	}
	dense := make([]gridTile, g.Tiles())
	assignGrid(dense, g, itemsA, d, true)
	assignGrid(dense, g, itemsB, 0, false)
	gs := &gridState{grid: g, d: d, itemsA: itemsA, itemsB: itemsB}
	for i := range dense {
		if len(dense[i].ra) == 0 || len(dense[i].rb) == 0 {
			continue // a one-sided tile can produce no pairs
		}
		gs.tiles = append(gs.tiles, dense[i])
	}
	// Longest first: under dynamic dealing the expensive tiles are
	// claimed while everyone is still busy, so a straggler can't start
	// last and extend the makespan on its own.
	slices.SortStableFunc(gs.tiles, func(p, q gridTile) int {
		cp, cq := p.cost(), q.cost()
		switch {
		case cp > cq:
			return -1
		case cp < cq:
			return 1
		default:
			return 0
		}
	})
	return gs
}

// sweepTile sweeps tile ti of a grid instance's shared queue through
// the emit step: every pair the tile owns becomes one candidate (or one
// fast accept). It is the per-tile step fillCandidates and
// SimulateGridJoin share.
func (j *JoinFunction) sweepTile(ti int) {
	gs := j.grid
	//spatiallint:ignore hotalloc span closure only allocates when a telemetry sink is attached, once per tile sweep not per row
	end := j.span(telemetry.StageTileSweep)
	t := &gs.tiles[ti]
	sweep(t.ra, t.rb, gs.d, func(ai, bi int) { j.emit(gs.itemsA[ai], gs.itemsB[bi]) })
	end()
	j.stats.TilesSwept++
}

// gridSetup is the setup GridParallelJoin and SimulateGridJoin share:
// the parallel-instance preparation, then the grid build and
// classification (timed as the grid-partition stage). gs is nil when
// either side is empty.
func gridSetup(a, b Source, cfg Config, workers int) (Config, *gridState, int, error) {
	cfg, workers, err := prepareInstances(a, b, cfg, workers)
	if err != nil {
		return cfg, nil, 0, err
	}
	endPart := stageSpan(cfg.Instr, cfg.Trace, telemetry.StageGridPartition)
	gs := buildGridState(a, b, cfg, workers)
	endPart()
	return cfg, gs, workers, nil
}

// GridParallelJoin evaluates the spatial join on the grid-partitioned
// parallel path: build and classify the grid once, then run `workers`
// table-function instances that steal tiles dynamically. The returned
// cursor merges the instances' pipelined outputs (order unspecified);
// the result-pair set is identical to the other join paths.
func GridParallelJoin(a, b Source, cfg Config, workers int) (storage.Cursor, error) {
	cfg, gs, workers, err := gridSetup(a, b, cfg, workers)
	if err != nil {
		return nil, err
	}
	if gs == nil || len(gs.tiles) == 0 {
		return storage.NewSliceCursor(nil, nil), nil
	}
	if workers > len(gs.tiles) {
		workers = len(gs.tiles)
	}
	factory := func(instance int, input storage.Cursor) (tablefunc.TableFunction, error) {
		fn, err := newJoinFn(a, b, cfg, nil)
		if err != nil {
			return nil, err
		}
		fn.grid = gs // a grid instance claims tiles instead of node pairs
		return tablefunc.Traced(fn, cfg.Trace), nil
	}
	// The instances' input "partition" is the shared tile queue; the
	// per-instance cursors are positional placeholders.
	return tablefunc.Parallel(placeholderCursors(workers), factory, cfg.FetchBatch), nil
}

// GridSimResult reports a simulated grid-parallel run (see simulate.go
// for why simulation: hosts with fewer cores than the requested degree
// cannot show the speedup in wall clock).
type GridSimResult struct {
	// Pairs is the join result (identical to the goroutine execution up
	// to order).
	Pairs []Pair
	// Elapsed is the simulated makespan: tiles are timed serially and
	// list-scheduled greedily onto `workers` virtual processors in
	// queue (longest-first) order — the schedule dynamic dealing
	// produces when every claim goes to the first free instance.
	Elapsed time.Duration
	// InstanceTimes are the virtual processors' busy times; their max
	// is Elapsed, their sum approximates the 1-processor time.
	InstanceTimes []time.Duration
	// TileTimes are the per-tile costs (sweep plus that tile's share of
	// the secondary filter), in queue order. Max/mean is the skew the
	// benchmarks report.
	TileTimes []time.Duration
	// Grid is the partitioning used.
	Grid Grid
	// Stats aggregates the work counters.
	Stats JoinStats
}

// TileSkew returns the max and mean per-tile time; their ratio is the
// skew factor the benchmarks report (1.0 = perfectly even tiles).
func (r GridSimResult) TileSkew() (max, mean time.Duration) {
	if len(r.TileTimes) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range r.TileTimes {
		sum += d
		if d > max {
			max = d
		}
	}
	return max, sum / time.Duration(len(r.TileTimes))
}

// SimulateGridJoin runs the grid join under the deterministic
// multi-processor simulator: one real instance over the same setup as
// GridParallelJoin takes the tiles serially in queue order, each tile's
// full cost (sweep + secondary drain) is measured, and the longest-first
// tile queue is list-scheduled onto `workers` virtual processors — the
// assignment dynamic dealing converges to. Results are identical to
// GridParallelJoin.
func SimulateGridJoin(a, b Source, cfg Config, workers int) (GridSimResult, error) {
	cfg, gs, workers, err := gridSetup(a, b, cfg, workers)
	if err != nil || gs == nil {
		return GridSimResult{}, err
	}
	j, err := newJoinFn(a, b, cfg, nil)
	if err != nil {
		return GridSimResult{}, err
	}
	j.grid = gs
	defer j.Close()
	res := GridSimResult{Grid: gs.grid}
	for ti := range gs.tiles {
		t0 := time.Now()
		j.sweepTile(ti)
		if err := j.secondaryFilter(); err != nil {
			return GridSimResult{}, err
		}
		res.TileTimes = append(res.TileTimes, time.Since(t0))
		res.Pairs = append(res.Pairs, j.ready...)
		j.ready = j.ready[:0]
	}
	res.Stats = j.Stats()
	res.InstanceTimes, res.Elapsed = tablefunc.ListSchedule(res.TileTimes, workers)
	return res, nil
}
