package sjoin

import (
	"fmt"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// NestedLoop evaluates the join with the pre-table-function strategy the
// paper measures as the baseline: "iterate on the first table ...
// performing a spatial query on the second table using each geometry in
// the first table". Each outer row runs an index-assisted sdo_relate
// probe (primary filter on b's R-tree, then the exact predicate).
func NestedLoop(a, b Source, cfg Config) ([]Pair, error) {
	pairs, _, err := NestedLoopStats(a, b, cfg)
	return pairs, err
}

// nestedCand is one probe hit: the outer row (by position in the outer
// scan) and the inner rowid.
type nestedCand struct {
	outer int
	id    storage.RowID
}

// NestedLoopStats is NestedLoop reporting work counters. NodeAccesses
// counts every inner-index node visited across all probes; repeated
// descents are counted each time, because a disk-resident execution
// pays a buffer get for each — this is the cost structure that makes
// the paper's nested loop ~6x slower than the tree join at scale. The
// counters and the primary/secondary stage times also reach cfg.Instr
// and cfg.Trace, as on the other join paths.
//
// No lock is held across a geometry fetch: the outer scan finishes (and
// releases the heap's read lock) before the first probe, and each probe
// collects its hits before any of them is fetched. A self-join reads one
// heap on both sides, so fetching inside the scan would take a second
// read lock on it, and a writer queued between the two would deadlock
// both.
func NestedLoopStats(a, b Source, cfg Config) ([]Pair, JoinStats, error) {
	cfg = cfg.withDefaults()
	var stats JoinStats
	colA, err := a.geomColumn()
	if err != nil {
		return nil, stats, err
	}
	colB, err := b.geomColumn()
	if err != nil {
		return nil, stats, err
	}
	var (
		ids   []storage.RowID
		outer []geom.Geometry
	)
	if err := a.Table.Scan(func(id storage.RowID, row storage.Row) bool {
		ids = append(ids, id)
		outer = append(outer, row[colA].G)
		return true
	}); err != nil {
		return nil, stats, err
	}

	// Primary filter: one index probe per outer row.
	end := stageSpan(cfg.Instr, cfg.Trace, telemetry.StagePrimary)
	var cands []nestedCand
	cur := 0
	probe := func(it rtree.Item) bool {
		cands = append(cands, nestedCand{outer: cur, id: it.ID})
		return true
	}
	for i, gA := range outer {
		cur = i
		if cfg.Distance > 0 {
			stats.NodeAccesses += b.Tree.SearchWithinDistCounted(geom.MBROf(gA), cfg.Distance, probe)
		} else {
			stats.NodeAccesses += b.Tree.SearchCounted(geom.MBROf(gA), probe)
		}
	}
	stats.Candidates = len(cands)
	end()

	// Secondary filter: fetch each hit and evaluate the exact predicate.
	end = stageSpan(cfg.Instr, cfg.Trace, telemetry.StageSecondary)
	cache := cfg.resolveCache()
	var pairs []Pair
	for _, c := range cands {
		gB, hit, err := cachedFetch(cache, b.Table, colB, c.id)
		if err != nil {
			end()
			return nil, stats, fmt.Errorf("sjoin: nested loop fetch %v: %w", c.id, err)
		}
		if hit {
			stats.CacheHits++
		} else {
			stats.GeomFetches++
			if cache != nil {
				stats.CacheMisses++
			}
		}
		if cfg.secondaryAccepts(outer[c.outer], gB) {
			pairs = append(pairs, Pair{A: ids[c.outer], B: c.id})
			stats.Results++
		}
	}
	end()
	cfg.Instr.add(stats, JoinStats{})
	return pairs, stats, nil
}
