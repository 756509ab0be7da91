package sjoin

import (
	"fmt"
	"slices"

	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
)

// This file implements §4.1: "to better avail of the table-function-
// level parallelism, we modify our approach to perform a spatial-join of
// subtrees of the R-tree indexes. ... we descend each index by a certain
// level and identify the roots of the subtrees at that level and join
// the subtrees." The subtree-pair stream plays the role of the
//
//	CURSOR(select * from table(subtree_root(idxA, level)),
//	                table(subtree_root(idxB, level)))
//
// operand: it is partitioned across the parallel instances of the
// spatial_join function, each of which joins its assigned pairs.

// SubtreePairs enumerates the cross product of the subtree roots of
// both trees after descending each by the given level, keeping only
// pairs whose subtree MBRs can satisfy the predicate (a disjoint pair
// can produce no results and is pruned before scheduling). Descending
// by 1 on Figure 1's trees yields (R11,S11), (R11,S12), (R12,S11),
// (R12,S12).
func SubtreePairs(a, b *rtree.Tree, descend int, cfg Config) []PairOfRoots {
	cfg = cfg.withDefaults()
	return crossRootPairs(a.SubtreeRoots(descend), b.SubtreeRoots(descend), cfg)
}

// PairOfRoots is one subtree-join task.
type PairOfRoots struct {
	A, B rtree.NodeRef
}

// SubtreePairsForWorkers picks the smallest descend level whose pruned
// cross product yields at least `want` tasks (the paper: "we descend
// both trees as far below as to get appropriate number of subtree-
// joins"), defaulting to a few tasks per worker for balance. The
// descent is incremental: each level's root lists are expanded from the
// previous level's, so the trees are walked once to the final level
// instead of re-descending from the root per candidate level.
func SubtreePairsForWorkers(a, b *rtree.Tree, workers int, cfg Config) []PairOfRoots {
	workers = normWorkers(workers)
	cfg = cfg.withDefaults()
	want := workers * 4 // a few tasks per instance smooths skew
	maxDescend := a.Height() - 1
	if h := b.Height() - 1; h < maxDescend {
		maxDescend = h
	}
	ra := a.SubtreeRoots(0)
	rb := b.SubtreeRoots(0)
	for d := 0; ; d++ {
		pairs := crossRootPairs(ra, rb, cfg)
		if len(pairs) >= want || d >= maxDescend {
			return pairs
		}
		ra = childRoots(ra)
		rb = childRoots(rb)
	}
}

// crossRootPairs is the pruned cross product of two root lists — the
// inner step of SubtreePairs, shared by the incremental descent.
func crossRootPairs(ra, rb []rtree.NodeRef, cfg Config) []PairOfRoots {
	var out []PairOfRoots
	for _, na := range ra {
		ma := na.MBR()
		for _, nb := range rb {
			if cfg.primaryAccepts(ma, nb.MBR()) {
				out = append(out, PairOfRoots{A: na, B: nb})
			}
		}
	}
	return out
}

// childRoots expands a root list by one level, preserving left-to-right
// order (so the incremental descent enumerates the same roots, in the
// same order, as SubtreeRoots at that level). Leaves stay as they are —
// the descent cap keeps them out in practice, this is a guard.
func childRoots(roots []rtree.NodeRef) []rtree.NodeRef {
	out := make([]rtree.NodeRef, 0, len(roots)*2)
	for _, r := range roots {
		if r.IsLeaf() {
			out = append(out, r)
			continue
		}
		for i := 0; i < r.NumEntries(); i++ {
			out = append(out, r.Child(i))
		}
	}
	return out
}

// dealPairs deals subtree-pair tasks into `workers` static partitions,
// longest first: tasks are ordered by estimated cost (the entry-count
// product of the two roots) descending and each goes to the least
// loaded partition — the classic LPT schedule, which keeps a skewed
// task from landing on an already-full partition the way round-robin
// dealing can. Deterministic: the sort is stable over the enumeration
// order and ties pick the lowest partition index.
func dealPairs(pairs []PairOfRoots, workers int) [][]nodePair {
	parts := make([][]nodePair, workers)
	if len(pairs) == 0 {
		return parts
	}
	costs := make([]float64, len(pairs))
	order := make([]int, len(pairs))
	for i, p := range pairs {
		costs[i] = float64(p.A.NumEntries()) * float64(p.B.NumEntries())
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		switch {
		case costs[x] > costs[y]:
			return -1
		case costs[x] < costs[y]:
			return 1
		default:
			return 0
		}
	})
	loads := make([]float64, workers)
	for _, idx := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if loads[i] < loads[w] {
				w = i
			}
		}
		p := pairs[idx]
		parts[w] = append(parts[w], nodePair{p.A, p.B})
		// The +1 spreads zero-cost tasks (empty roots) instead of piling
		// them all on one partition.
		loads[w] += costs[idx] + 1
	}
	return parts
}

// prepareInstances is the preparation every parallel join path and its
// simulator share: config defaults, one decoded-geometry cache for all
// instances (the sharded LRU is safe for concurrent instances; otherwise
// each instance would warm a private cache), the resolved worker count,
// and the operand column checks.
func prepareInstances(a, b Source, cfg Config, workers int) (Config, int, error) {
	cfg = cfg.withDefaults()
	cfg.GeomCache = cfg.resolveCache()
	if _, err := a.geomColumn(); err != nil {
		return cfg, 0, err
	}
	if _, err := b.geomColumn(); err != nil {
		return cfg, 0, err
	}
	return cfg, normWorkers(workers), nil
}

// placeholderCursors returns n empty input cursors for tablefunc.Parallel:
// the instances' real input is delivered through the factory closure, so
// the cursors are positional only.
func placeholderCursors(n int) []storage.Cursor {
	cursors := make([]storage.Cursor, n)
	for i := range cursors {
		cursors[i] = storage.NewSliceCursor(nil, nil)
	}
	return cursors
}

// subtreeInstances is the setup ParallelIndexJoin and
// SimulateParallelIndexJoin share: the parallel-instance preparation,
// the subtree-pair decomposition, and the longest-first deal into
// `workers` partitions, returning one spatial_join instance per
// non-empty partition plus the resolved worker count.
func subtreeInstances(a, b Source, cfg Config, workers int) ([]*JoinFunction, int, error) {
	cfg, workers, err := prepareInstances(a, b, cfg, workers)
	if err != nil {
		return nil, 0, err
	}
	var fns []*JoinFunction
	for _, part := range dealPairs(SubtreePairsForWorkers(a.Tree, b.Tree, workers, cfg), workers) {
		if len(part) == 0 {
			continue
		}
		fn, err := newJoinFn(a, b, cfg, part)
		if err != nil {
			return nil, 0, err
		}
		fns = append(fns, fn)
	}
	return fns, workers, nil
}

// ParallelIndexJoin evaluates the spatial join with `workers` parallel
// instances of the spatial_join table function, each joining a
// partition of the subtree-pair stream. The returned cursor merges the
// instances' pipelined outputs (order unspecified).
func ParallelIndexJoin(a, b Source, cfg Config, workers int) (storage.Cursor, error) {
	fns, _, err := subtreeInstances(a, b, cfg, workers)
	if err != nil {
		return nil, err
	}
	if len(fns) == 0 {
		return storage.NewSliceCursor(nil, nil), nil
	}
	factory := func(instance int, input storage.Cursor) (tablefunc.TableFunction, error) {
		if instance < 0 || instance >= len(fns) {
			return nil, fmt.Errorf("sjoin: no tasks for instance %d", instance)
		}
		// All instances share cfg.Trace (stage aggregates are atomic),
		// so one per-query trace sums the parallel instances' work.
		return tablefunc.Traced(fns[instance], cfg.Trace), nil
	}
	return tablefunc.Parallel(placeholderCursors(len(fns)), factory, cfg.FetchBatch), nil
}
