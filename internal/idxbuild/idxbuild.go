// Package idxbuild implements the paper's §5: parallel spatial index
// creation via parallel table functions.
//
// Quadtree creation follows Figure 2 exactly:
//
//	geometry table → table-fn partitioning → N tessellators → index table
//
// The geometry table's scan cursor is partitioned across N instances of
// a tessellation table function; each instance tessellates its
// geometries into tiles and emits (tile code, rowid) index rows; the
// B-tree over the codes is then built with the parallel clause
// (btree.ParallelBulkLoad).
//
// R-tree creation uses parallel table functions "(1) to load the
// geometry data and compute minimum bounding rectangles, and (2) to
// cluster subtrees in parallel" — an MBR-loader table function fans out
// over the table partition cursors, and the collected (mbr, rowid) items
// go through the parallel subtree build of rtree.ParallelBulkLoad.
//
// Every builder has a *Sim twin for hosts with fewer cores than the
// degree of parallelism measured (the paper's Table 3 ran on 4 CPUs).
// It is a mode of the same build, not a second one: the same partitions,
// table-function instances and decoding step, with the instances run
// one at a time by tablefunc.Simulate and the load phase charged as the
// makespan of their list schedule on `workers` processors. The index
// contents are identical to the goroutine-parallel build's.
package idxbuild

import (
	"encoding/binary"
	"fmt"
	"time"

	"spatialtf/internal/btree"
	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
)

// Stats reports what a build did, phase by phase; the Table 3 bench
// prints the totals.
type Stats struct {
	Rows       int           // geometry rows read
	Entries    int           // index entries produced (tiles or MBRs)
	Workers    int           // degree of parallelism used
	LoadPhase  time.Duration // tessellation / MBR-computation phase
	BuildPhase time.Duration // B-tree build / subtree clustering+merge
	Total      time.Duration
	// InstanceTimes are the simulated processors' load-phase busy
	// times (their max is LoadPhase); nil for a goroutine-parallel build.
	InstanceTimes []time.Duration
}

// load is the load phase both build modes share: tab is partitioned
// across `workers` instances of the table function newFn builds, and
// add decodes every row they emit. The goroutine mode runs the
// instances through tablefunc.Parallel and times the phase by wall
// clock; the simulated mode runs them through tablefunc.Simulate.
func load(tab *storage.Table, column string, workers int, simulate bool,
	newFn func(geomCol int, input storage.Cursor) tablefunc.TableFunction,
	add func(storage.Row) error) (Stats, error) {
	workers = max(workers, 1)
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Rows: tab.Len(), Workers: workers}
	start := time.Now()
	parts := tablefunc.PartitionTable(tab, workers)
	factory := func(instance int, input storage.Cursor) (tablefunc.TableFunction, error) {
		return newFn(col, input), nil
	}
	consume := func(c storage.Cursor) error {
		for {
			_, row, ok, err := c.Next()
			if err != nil || !ok {
				return err
			}
			if err := add(row); err != nil {
				return err
			}
		}
	}
	if simulate {
		times, err := tablefunc.Simulate(parts, factory, 0, consume)
		if err != nil {
			return Stats{}, err
		}
		st.InstanceTimes, st.LoadPhase = tablefunc.ListSchedule(times, workers)
		return st, nil
	}
	out := tablefunc.Parallel(parts, factory, 0)
	err = consume(out)
	out.Close()
	st.LoadPhase = time.Since(start)
	return st, err
}

// --- Quadtree creation (Figure 2) ---

// tessellateFn is the tessellation table function: it consumes geometry
// rows from its input partition cursor and produces index rows
// (tile code, rowid). One instance runs per partition.
type tessellateFn struct {
	input   storage.Cursor
	geomCol int
	grid    quadtree.Grid

	// pending holds tile rows produced by the current geometry but not
	// yet fetched — the pipelining state between fetch calls.
	pending []storage.Row
}

func (f *tessellateFn) Start() error { return nil }

func (f *tessellateFn) Fetch(max int) ([]storage.Row, error) {
	out := make([]storage.Row, 0, max)
	for len(out) < max {
		if len(f.pending) > 0 {
			n := max - len(out)
			if n > len(f.pending) {
				n = len(f.pending)
			}
			out = append(out, f.pending[:n]...)
			f.pending = f.pending[n:]
			continue
		}
		id, row, ok, err := f.input.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tiles, err := quadtree.Tessellate(f.grid, row[f.geomCol].G)
		if err != nil {
			return nil, fmt.Errorf("idxbuild: tessellate row %v: %w", id, err)
		}
		for _, t := range tiles {
			f.pending = append(f.pending, tileRow(t, id))
		}
	}
	return out, nil
}

func (f *tessellateFn) Close() error { return f.input.Close() }

// tileRow encodes one quadtree index-table row: the tile code and the
// base-table rowid.
func tileRow(t quadtree.Tile, id storage.RowID) storage.Row {
	return storage.Row{storage.Int(int64(t)), storage.Bytes(id.AppendTo(nil))}
}

// tileRowKey turns an index-table row back into a B-tree key.
func tileRowKey(row storage.Row) ([]byte, error) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(row[0].I))
	rid := row[1].B
	if len(rid) != 6 {
		return nil, fmt.Errorf("idxbuild: bad rowid payload length %d", len(rid))
	}
	return append(buf[:], rid...), nil
}

// CreateQuadtree builds a linear quadtree index on tab's geometry column
// with the given degree of parallelism, returning the index and build
// statistics.
func CreateQuadtree(tab *storage.Table, column string, grid quadtree.Grid, workers int) (*quadtree.Index, Stats, error) {
	return createQuadtree(tab, column, grid, workers, false)
}

// CreateQuadtreeSim is CreateQuadtree under the multi-processor
// simulator. The B-tree build phase is charged as measured (its chunk
// sort parallelises for real on multi-core hosts).
func CreateQuadtreeSim(tab *storage.Table, column string, grid quadtree.Grid, workers int) (*quadtree.Index, Stats, error) {
	return createQuadtree(tab, column, grid, workers, true)
}

func createQuadtree(tab *storage.Table, column string, grid quadtree.Grid, workers int, simulate bool) (*quadtree.Index, Stats, error) {
	// Step 1 (parallel): tessellate geometries into tiles — the table
	// function with a partitioned input cursor.
	var entries []btree.Entry
	st, err := load(tab, column, workers, simulate,
		func(col int, input storage.Cursor) tablefunc.TableFunction {
			return &tessellateFn{input: input, geomCol: col, grid: grid}
		},
		func(row storage.Row) error {
			key, err := tileRowKey(row)
			if err != nil {
				return err
			}
			entries = append(entries, btree.Entry{Key: key})
			return nil
		})
	if err != nil {
		return nil, Stats{}, err
	}

	// Step 2 (parallel): build the B-tree on the tile codes.
	t0 := time.Now()
	idx := quadtree.NewIndexFromEntries(grid, entries, st.Workers)
	st.BuildPhase = time.Since(t0)
	st.Entries = len(entries)
	st.Total = st.LoadPhase + st.BuildPhase
	return idx, st, nil
}

// --- R-tree creation ---

// mbrLoadFn is the MBR-computation table function: it consumes geometry
// rows and emits (mbr, interior, rowid) rows. Interior approximations
// (Kothuri & Ravada, SSTD 2001) are computed when interiorEffort > 0;
// they cost extra build time but let joins fast-accept candidates.
type mbrLoadFn struct {
	input          storage.Cursor
	geomCol        int
	interiorEffort int
}

func (f *mbrLoadFn) Start() error { return nil }

func (f *mbrLoadFn) Fetch(max int) ([]storage.Row, error) {
	out := make([]storage.Row, 0, max)
	for len(out) < max {
		id, row, ok, err := f.input.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		g := row[f.geomCol].G
		m := geom.MBROf(g)
		if !m.Valid() {
			return nil, fmt.Errorf("idxbuild: row %v has invalid MBR", id)
		}
		interior := geom.MBR{}
		if f.interiorEffort > 0 {
			if r := geom.InteriorRect(g, f.interiorEffort); r.Valid() && r.Area() > 0 {
				interior = r
			}
		}
		out = append(out, mbrRow(m, interior, id))
	}
	return out, nil
}

func (f *mbrLoadFn) Close() error { return f.input.Close() }

// mbrRow encodes one (mbr, interior, rowid) row. An absent interior is
// stored as four zeros (zero area = none).
func mbrRow(m, interior geom.MBR, id storage.RowID) storage.Row {
	return storage.Row{
		storage.Float(m.MinX), storage.Float(m.MinY),
		storage.Float(m.MaxX), storage.Float(m.MaxY),
		storage.Float(interior.MinX), storage.Float(interior.MinY),
		storage.Float(interior.MaxX), storage.Float(interior.MaxY),
		storage.Bytes(id.AppendTo(nil)),
	}
}

// mbrRowItem decodes an (mbr, interior, rowid) row into an R-tree item.
func mbrRowItem(row storage.Row) (rtree.Item, error) {
	id, err := storage.RowIDFromBytes(row[8].B)
	if err != nil {
		return rtree.Item{}, err
	}
	return rtree.Item{
		MBR:      geom.MBR{MinX: row[0].F, MinY: row[1].F, MaxX: row[2].F, MaxY: row[3].F},
		Interior: geom.MBR{MinX: row[4].F, MinY: row[5].F, MaxX: row[6].F, MaxY: row[7].F},
		ID:       id,
	}, nil
}

// RtreeOptions tunes CreateRtreeOpts.
type RtreeOptions struct {
	// Fanout is the node capacity (0 = default).
	Fanout int
	// Workers is the degree of parallelism.
	Workers int
	// InteriorEffort, when positive, computes interior approximations
	// for each geometry at the given search granularity (see
	// geom.InteriorRect).
	InteriorEffort int
}

// CreateRtree builds an R-tree index on tab's geometry column with the
// given node fanout (0 = default) and degree of parallelism.
func CreateRtree(tab *storage.Table, column string, fanout, workers int) (*rtree.Tree, Stats, error) {
	return CreateRtreeOpts(tab, column, RtreeOptions{Fanout: fanout, Workers: workers})
}

// CreateRtreeOpts builds an R-tree index with full options.
func CreateRtreeOpts(tab *storage.Table, column string, opt RtreeOptions) (*rtree.Tree, Stats, error) {
	return createRtree(tab, column, opt, false)
}

// CreateRtreeSim is CreateRtree under the multi-processor simulator:
// the MBR-load phase is simulated per instance, and the subtree
// clustering by rtree.ParallelBulkLoadSim (the partitions' packing
// makespan plus the measured serial sort and merge).
func CreateRtreeSim(tab *storage.Table, column string, fanout, workers int) (*rtree.Tree, Stats, error) {
	return createRtree(tab, column, RtreeOptions{Fanout: fanout, Workers: workers}, true)
}

func createRtree(tab *storage.Table, column string, opt RtreeOptions, simulate bool) (*rtree.Tree, Stats, error) {
	// Step 1 (parallel): load geometries and compute MBRs (plus
	// interior approximations when requested).
	var items []rtree.Item
	st, err := load(tab, column, opt.Workers, simulate,
		func(col int, input storage.Cursor) tablefunc.TableFunction {
			return &mbrLoadFn{input: input, geomCol: col, interiorEffort: opt.InteriorEffort}
		},
		func(row storage.Row) error {
			it, err := mbrRowItem(row)
			if err != nil {
				return err
			}
			items = append(items, it)
			return nil
		})
	if err != nil {
		return nil, Stats{}, err
	}

	// Step 2 (parallel): cluster subtrees in parallel and merge.
	var tree *rtree.Tree
	if simulate {
		var cluster, serial time.Duration
		tree, cluster, serial = rtree.ParallelBulkLoadSim(items, opt.Fanout, st.Workers)
		st.BuildPhase = cluster + serial
	} else {
		t0 := time.Now()
		tree = rtree.ParallelBulkLoad(items, opt.Fanout, st.Workers)
		st.BuildPhase = time.Since(t0)
	}
	st.Entries = len(items)
	st.Total = st.LoadPhase + st.BuildPhase
	return tree, st, nil
}
