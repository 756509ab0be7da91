package rtree

import (
	"slices"
	"sync"
	"time"
)

// ParallelBulkLoad builds an R-tree using the paper's §5 strategy:
// "subtrees are constructed on subsets of data in parallel and merged at
// the end". Items are range-partitioned on X centroid (so subtrees
// cover disjoint vertical strips and the merged tree stays well
// clustered), each partition is STR-packed by its own goroutine, and the
// subtree roots are merged under packed upper levels.
//
// The result is structurally equivalent to a sequential STR build: same
// height discipline (all leaves at one depth) and the same item set;
// tests assert query-result equivalence.
func ParallelBulkLoad(items []Item, maxEntries, workers int) *Tree {
	t, _, _ := parallelBulkLoad(items, maxEntries, workers, false)
	return t
}

// ParallelBulkLoadSim performs the ParallelBulkLoad build under the
// multi-processor simulator for hosts with fewer cores than workers: the
// partitions' subtrees are packed one after another and timed in
// isolation, and clusterMakespan is the maximum (the parallel phase's
// completion time on `workers` processors). serialTime is the
// inherently serial work around it: the partitioning sort and the
// upper-level merge. The tree is identical to ParallelBulkLoad's.
func ParallelBulkLoadSim(items []Item, maxEntries, workers int) (tree *Tree, clusterMakespan, serialTime time.Duration) {
	return parallelBulkLoad(items, maxEntries, workers, true)
}

// parallelBulkLoad is the one body of both modes; simulate packs the
// partitions serially and times them instead of on goroutines.
func parallelBulkLoad(items []Item, maxEntries, workers int, simulate bool) (*Tree, time.Duration, time.Duration) {
	if workers < 1 {
		workers = 1
	}
	t := New(maxEntries)
	if len(items) == 0 {
		return t, 0, 0
	}
	if workers == 1 || len(items) < workers*t.maxEntries*2 {
		t0 := time.Now()
		return BulkLoad(items, maxEntries), time.Since(t0), 0
	}

	// Phase 1 (parallelised in the paper by a table function): the items
	// — already (mbr, rowid) pairs here — are range-partitioned on X.
	t0 := time.Now()
	slices.SortFunc(items, func(a, b Item) int {
		return cmpFloat(a.MBR.Center().X, b.MBR.Center().X)
	})
	chunkLen := (len(items) + workers - 1) / workers
	var chunks [][]Item
	for start := 0; start < len(items); start += chunkLen {
		chunks = append(chunks, items[start:min(start+chunkLen, len(items))])
	}
	serial := time.Since(t0)

	// Phase 2: cluster subtrees in parallel.
	subLeaves := make([][]*node, len(chunks))
	var cluster time.Duration
	if simulate {
		for i, c := range chunks {
			t0 := time.Now()
			subLeaves[i] = packLeaves(c, t.maxEntries)
			cluster = max(cluster, time.Since(t0))
		}
	} else {
		var wg sync.WaitGroup
		for i, c := range chunks {
			wg.Add(1)
			go func(i int, c []Item) {
				defer wg.Done()
				subLeaves[i] = packLeaves(c, t.maxEntries)
			}(i, c)
		}
		wg.Wait()
	}

	// Phase 3: merge. All partitions produced leaves at the same level,
	// so concatenating the leaf lists and packing upward yields a valid
	// tree with uniform leaf depth.
	t0 = time.Now()
	var leaves []*node
	for _, ls := range subLeaves {
		leaves = append(leaves, ls...)
	}
	t.root, t.height = packUpward(leaves, t.maxEntries)
	t.size = len(items)
	return t, cluster, serial + time.Since(t0)
}
