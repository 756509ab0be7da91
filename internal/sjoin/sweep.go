package sjoin

import (
	"math"
	"slices"

	"spatialtf/internal/rtree"
)

// This file is the join's one plane-sweep kernel. The synchronized
// R-tree traversal sweeps the entries of each equal-height node pair
// with it, and the grid-partitioned path sweeps each tile's two entry
// lists with it; both hand it xlo-sorted sweepEntry lists.

// sweepEntry is one rectangle in plane-sweep order: its coordinates,
// the index it came from (a node slot, or a position in the grid's
// sorted item slice) to recover rowids/children after sorting, and its
// two-layer class. Node-pair entries carry classBoth, so the class test
// always passes for them; tile entries carry their class for the tile.
type sweepEntry struct {
	xlo, xhi, ylo, yhi float64
	idx                int32
	class              uint8
}

// fillSweep copies a node's structure-of-arrays rectangles into the
// scratch list and sorts it by low x for the sweep.
func fillSweep(dst []sweepEntry, r rtree.NodeRef) []sweepEntry {
	xlo, ylo, xhi, yhi := r.EntryRects()
	dst = dst[:0]
	for i := range xlo {
		dst = append(dst, sweepEntry{xlo: xlo[i], xhi: xhi[i], ylo: ylo[i], yhi: yhi[i], idx: int32(i), class: classBoth})
	}
	slices.SortFunc(dst, func(a, b sweepEntry) int {
		switch {
		case a.xlo < b.xlo:
			return -1
		case a.xlo > b.xlo:
			return 1
		default:
			return 0
		}
	})
	return dst
}

// sweep runs a forward plane sweep over two xlo-sorted entry lists,
// calling emit(ai, bi) with the idx of both entries once for every pair
// whose rectangles interact within distance d (the first side is
// expanded by d) and whose classes OR to classBoth. The sweep advances
// through both lists in (expanded) xlo order; each entry scans forward
// in the other list while the x intervals overlap, testing y overlap
// per pair. For distance joins the x/y interval tests are necessary but
// not sufficient (corner-to-corner distance exceeds either axis gap), so
// survivors take the exact rectangle-distance check before emission.
func sweep(ea, eb []sweepEntry, d float64, emit func(ai, bi int)) {
	i, k := 0, 0
	for i < len(ea) && k < len(eb) {
		if ea[i].xlo-d <= eb[k].xlo {
			e := &ea[i]
			xmax := e.xhi + d
			ylo, yhi := e.ylo-d, e.yhi+d
			for kk := k; kk < len(eb) && eb[kk].xlo <= xmax; kk++ {
				o := &eb[kk]
				if o.ylo > yhi || o.yhi < ylo {
					continue
				}
				if e.class|o.class != classBoth {
					continue
				}
				if d > 0 && !sweepDistOK(e, o, d) {
					continue
				}
				emit(int(e.idx), int(o.idx))
			}
			i++
		} else {
			e := &eb[k]
			for ii := i; ii < len(ea) && ea[ii].xlo-d <= e.xhi; ii++ {
				o := &ea[ii]
				if o.ylo-d > e.yhi || o.yhi+d < e.ylo {
					continue
				}
				if e.class|o.class != classBoth {
					continue
				}
				if d > 0 && !sweepDistOK(o, e, d) {
					continue
				}
				emit(int(o.idx), int(e.idx))
			}
			k++
		}
	}
}

// sweepDistOK is the exact distance-join acceptance on sweep entries:
// the rectangle distance (diagonal across both axis gaps, matching
// geom.MBR.Dist) between the unexpanded rectangles is within d.
func sweepDistOK(a, b *sweepEntry, d float64) bool {
	dx := math.Max(0, math.Max(b.xlo-a.xhi, a.xlo-b.xhi))
	dy := math.Max(0, math.Max(b.ylo-a.yhi, a.ylo-b.yhi))
	if dx == 0 {
		return dy <= d
	}
	if dy == 0 {
		return dx <= d
	}
	return math.Hypot(dx, dy) <= d
}
