package sjoin

import (
	"fmt"

	"spatialtf/internal/quadtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// QuadtreeJoin is the extension join over two linear quadtree indexes
// sharing a grid: the primary filter is a merge join of the two
// tile-code B-trees (rows sharing a tile become candidates), followed by
// the same sorted-candidate secondary filter as the R-tree join. The
// paper focuses on R-tree joins but notes both indextypes; this
// completes the pairing.
//
// QSource names one quadtree join operand.
type QSource struct {
	Table  *storage.Table
	Column string
	Index  *quadtree.Index
}

// QuadtreeJoin evaluates the join and returns the result pairs.
// Within-distance joins are not supported: the tile merge join only
// surfaces pairs sharing a tile, which is incomplete for a distance
// predicate — use the R-tree join for those.
func QuadtreeJoin(a, b QSource, cfg Config) ([]Pair, error) {
	if cfg.Distance > 0 {
		return nil, fmt.Errorf("sjoin: quadtree join does not support within-distance predicates")
	}
	j, err := newJoinFn(Source{Table: a.Table, Column: a.Column}, Source{Table: b.Table, Column: b.Column}, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	// Primary filter: tile merge join, deduped (a pair sharing several
	// tiles appears once).
	end := j.span(telemetry.StagePrimary)
	seen := map[Pair]bool{}
	err = quadtree.TilePairs(a.Index, b.Index, func(ida, idb storage.RowID) bool {
		seen[Pair{A: ida, B: idb}] = true
		return true
	})
	end()
	if err != nil {
		return nil, err
	}
	j.cands = make([]Pair, 0, len(seen))
	for p := range seen {
		j.cands = append(j.cands, p)
	}
	j.stats.Candidates = len(j.cands)
	// Secondary filter: the R-tree join's own drain — sorted fetch
	// through the decoded-geometry cache (shared when Config.GeomCache
	// is set, so a database serving both index kinds reuses decodes),
	// with its counters, instruments and trace spans.
	if err := j.secondaryFilter(); err != nil {
		return nil, err
	}
	return j.ready, nil // evaluated before the deferred Close drops it
}
