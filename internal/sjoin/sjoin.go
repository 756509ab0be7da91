// Package sjoin implements the paper's primary contribution (§4):
// spatial joins over two R-tree-indexed tables evaluated through
// parallel and pipelined table functions.
//
// Three evaluation strategies are provided:
//
//   - NestedLoop — the pre-9i baseline: iterate the first table and run
//     an index-assisted spatial query on the second table per row.
//   - IndexJoin — the spatial_join table function: a synchronized
//     traversal of both R-trees pipelined through start-fetch-close,
//     with the two-stage candidate-array evaluation of §4.2.
//   - ParallelIndexJoin — §4.1: descend both trees to a level, enumerate
//     subtree roots, and run the join of the subtree-pair cross product
//     on parallel table-function instances.
//
// A quadtree tile join is provided as an extension (QuadtreeJoin).
package sjoin

import (
	"fmt"
	"slices"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Pair is one join result: the rowids of the interacting rows in the
// first and second table — the (rid1, rid2) rows returned by the
// spatial_join table function.
type Pair struct {
	A, B storage.RowID
}

// Less orders pairs by (A, B); tests sort results for comparison.
func (p Pair) Less(q Pair) bool {
	if c := p.A.Compare(q.A); c != 0 {
		return c < 0
	}
	return p.B.Less(q.B)
}

// comparePairs is the (A, B) ordering as a slices.SortFunc comparator.
// The concrete comparator avoids the per-call interface indirection of
// sort.Slice on the candidate-sort hot path.
func comparePairs(p, q Pair) int {
	if c := p.A.Compare(q.A); c != 0 {
		return c
	}
	return p.B.Compare(q.B)
}

// Source names one join operand: the base table, its geometry column,
// and the R-tree index on that column.
type Source struct {
	Table  *storage.Table
	Column string
	Tree   *rtree.Tree
}

// geomColumn resolves and type-checks the geometry column.
func (s Source) geomColumn() (int, error) {
	col, err := s.Table.ColumnIndex(s.Column)
	if err != nil {
		return 0, err
	}
	if s.Table.Schema()[col].Type != storage.TGeometry {
		return 0, fmt.Errorf("sjoin: column %q of %q is %v, not GEOMETRY",
			s.Column, s.Table.Name(), s.Table.Schema()[col].Type)
	}
	return col, nil
}

// DefaultCandidateCap bounds the in-memory candidate array of the
// two-stage join — the paper's "size of this array is determined by
// existing memory resources". When the array fills, the primary filter
// suspends, the secondary filter drains the array, and the traversal
// resumes: that is what makes the table function pipelined rather than
// materializing.
const DefaultCandidateCap = 4096

// Config tunes a join.
type Config struct {
	// Mask is the interaction predicate (default ANYINTERACT). With a
	// Distance > 0 the predicate is within-distance instead.
	Mask geom.Mask
	// Distance, when positive, selects a within-distance join: pairs
	// whose exact geometries lie within this distance. Zero means the
	// Mask relationship ("intersection (distance of 0)" per the paper).
	Distance float64
	// CandidateCap bounds the candidate array (0 = DefaultCandidateCap).
	CandidateCap int
	// SortCandidates controls whether the candidate array is sorted by
	// first rowid before the secondary filter. The paper adopts sorting
	// ("within 20% of the best approximate solutions"); disabling it is
	// the ablation baseline ("a random order of fetching").
	SortCandidates bool
	// FetchBatch is the table-function fetch size (0 = framework
	// default).
	FetchBatch int
	// UseInteriorApprox enables the interior-approximation fast accept
	// (Kothuri & Ravada, SSTD 2001): primary-filter survivors (leaf
	// entry pairs or tile pairs) whose interior rectangles overlap — or
	// where one interior contains the other's MBR — are emitted as
	// results without fetching exact geometries.
	// Only applies to ANYINTERACT joins (Distance == 0) on indexes
	// built with interior approximations; a no-op otherwise.
	UseInteriorApprox bool
	// GeomCacheBytes bounds the decoded-geometry cache of the secondary
	// filter in bytes (0 = DefaultGeomCacheBytes; negative disables the
	// cache). Ignored when GeomCache is set.
	GeomCacheBytes int
	// GeomCache, when non-nil, is a shared cache instance used instead
	// of a join-private one — the facade shares one cache per database
	// so parallel instances and successive joins reuse decodes.
	GeomCache *GeomCache
	// Instr, when non-nil, receives the join's work counters and
	// batch-granular stage latencies. Shared across parallel instances;
	// nil (the default) keeps the join free of telemetry writes.
	Instr *Instruments
	// Trace, when non-nil, is the per-query span trace the join's
	// stages are recorded on (it also enables per-fetch geometry-fetch
	// timing, which is too hot for always-on collection).
	Trace *telemetry.Trace
}

// withDefaults normalises a config.
func (c Config) withDefaults() Config {
	if c.CandidateCap <= 0 {
		c.CandidateCap = DefaultCandidateCap
	}
	return c
}

// DefaultConfig returns the configuration the paper's experiments use:
// ANYINTERACT (or a distance), sorted candidate fetch.
func DefaultConfig() Config {
	return Config{Mask: geom.MaskAnyInteract, SortCandidates: true}
}

// primaryAccepts reports whether a pair of index MBRs survives the
// primary filter.
func (c Config) primaryAccepts(a, b geom.MBR) bool {
	if c.Distance > 0 {
		return a.Dist(b) <= c.Distance
	}
	return a.Intersects(b)
}

// secondaryAccepts evaluates the exact predicate on fetched geometries.
func (c Config) secondaryAccepts(a, b geom.Geometry) bool {
	if c.Distance > 0 {
		return geom.WithinDistance(a, b, c.Distance)
	}
	return geom.Relate(a, b, c.Mask)
}

// pairRow encodes a result pair as a table-function output row
// (rid1, rid2).
func pairRow(p Pair) storage.Row {
	return storage.Row{
		storage.Bytes(p.A.AppendTo(nil)),
		storage.Bytes(p.B.AppendTo(nil)),
	}
}

// rowIDImageLen is the size of one storage.RowID binary image
// (RowID.AppendTo writes 4 bytes of page + 2 of slot).
const rowIDImageLen = 6

// pairArena batches the backing storage for one Fetch batch of output
// rows: a single Value slab and a single rowid-byte slab serve every
// pair in the batch, replacing pairRow's three heap allocations per row
// with two per batch. Slabs are sized exactly for max rows, and every
// row is handed out as a full-capacity slice so an appending caller
// cannot clobber its neighbour.
type pairArena struct {
	vals []storage.Value
	ids  []byte
}

func (a *pairArena) init(max int) {
	a.vals = make([]storage.Value, 0, 2*max)
	a.ids = make([]byte, 0, 2*rowIDImageLen*max)
}

// row encodes p like pairRow, carving the result out of the batch slabs.
func (a *pairArena) row(p Pair) storage.Row {
	i := len(a.ids)
	a.ids = p.A.AppendTo(a.ids)
	j := len(a.ids)
	a.ids = p.B.AppendTo(a.ids)
	k := len(a.ids)
	v := len(a.vals)
	a.vals = append(a.vals, storage.Bytes(a.ids[i:j:j]), storage.Bytes(a.ids[j:k:k]))
	return storage.Row(a.vals[v : v+2 : v+2])
}

// PairFromRow decodes a spatial_join output row.
func PairFromRow(row storage.Row) (Pair, error) {
	if len(row) != 2 {
		return Pair{}, fmt.Errorf("sjoin: pair row has %d columns", len(row))
	}
	a, err := storage.RowIDFromBytes(row[0].B)
	if err != nil {
		return Pair{}, err
	}
	b, err := storage.RowIDFromBytes(row[1].B)
	if err != nil {
		return Pair{}, err
	}
	return Pair{A: a, B: b}, nil
}

// CollectPairs drains a join cursor into a pair slice.
func CollectPairs(c storage.Cursor) ([]Pair, error) {
	defer c.Close()
	var out []Pair
	for {
		_, row, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		p, err := PairFromRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
}

// PairsCursor wraps a materialised pair slice as a join-output cursor
// (rows encoded like the table function's), for paths that compute
// eagerly — the facade's nested-loop algorithm choice.
func PairsCursor(pairs []Pair) storage.Cursor {
	rows := make([]storage.Row, len(pairs))
	for i, p := range pairs {
		rows[i] = pairRow(p)
	}
	return storage.NewSliceCursor(nil, rows)
}

// SortPairs orders pairs by (A, B) for deterministic comparison.
func SortPairs(pairs []Pair) {
	slices.SortFunc(pairs, comparePairs)
}
