package geom

import "math"

// Distance returns the minimum Euclidean distance between g and h
// (zero if they intersect, and only then). Nearest-neighbour search
// needs the value; the within-distance joins (the paper's Table 1
// distance sweep) use WithinDistance, which stops at the first witness.
func Distance(g, h Geometry) float64 {
	if Intersects(g, h) {
		return 0
	}
	// No part pair meets, so no part contains another: the distance is
	// the least boundary-to-boundary distance.
	best := math.Inf(1)
	for i := range g.numParts() {
		a := g.part(i)
		for j := range h.numParts() {
			best = primDist(a, h.part(j), best)
		}
	}
	return best
}

// WithinDistance reports whether the minimum distance between g and h is
// at most d. A distance of 0 is equivalent to ANYINTERACT, matching the
// paper's note that intersection is "distance of 0". After the MBR
// reject it returns true at the first witness — a vertex inside the
// other shape or an edge pair within d — skipping edge pairs whose
// boxes lie more than d apart, so it never computes the full distance.
func WithinDistance(g, h Geometry, d float64) bool {
	if !(d >= 0) { // negative or NaN
		return false
	}
	// Cheap sound rejection before the exact test.
	if MBROf(g).Dist(MBROf(h)) > d {
		return false
	}
	return partsWithin(&g, &h, d)
}

// primDist returns the lesser of best and the boundary distance between
// primitives a and b, which the caller knows do not intersect.
func primDist(a, b *Geometry, best float64) float64 {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return min(best, a.Pts[0].Dist(b.Pts[0]))
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointChainDist(a.Pts[0], b.Pts, false, best)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		for _, r := range b.Rings {
			best = pointChainDist(a.Pts[0], r, true, best)
		}
		return best
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return chainsDist(a.Pts, false, b.Pts, false, best)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		for _, r := range b.Rings {
			best = chainsDist(a.Pts, false, r, true, best)
		}
		return best
	default: // polygon-polygon
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				best = chainsDist(r, true, s, true, best)
			}
		}
		return best
	}
}

// pointChainDist returns the lesser of best and the distance from p to
// chain pts.
func pointChainDist(p Point, pts []Point, closed bool, best float64) float64 {
	for i := range edgeCount(pts, closed) {
		a, b := edgeAt(pts, i)
		best = min(best, pointSegDist(p, a, b))
	}
	return best
}

// chainsDist returns the lesser of best and the least endpointDist over
// the edge pairs of chains p and q. It walks the pairs like
// chainsWithin, with best as the shrinking box margin: a pair whose
// boxes lie farther apart than the best distance so far cannot lower it.
func chainsDist(p []Point, pClosed bool, q []Point, qClosed bool, best float64) float64 {
	n, m := edgeCount(p, pClosed), edgeCount(q, qClosed)
	if m > n {
		p, q, n, m = q, p, m, n
	}
	qb := boxOf(q)
	for i := 0; i < n; i++ {
		a, b := edgeAt(p, i)
		x0, x1 := min(a.X, b.X)-best, max(a.X, b.X)+best
		y0, y1 := min(a.Y, b.Y)-best, max(a.Y, b.Y)+best
		if qb.MinX > x1 || qb.MaxX < x0 || qb.MinY > y1 || qb.MaxY < y0 {
			continue
		}
		for j := 0; j < m; j++ {
			c, e := edgeAt(q, j)
			if (c.X > x1 && e.X > x1) || (c.X < x0 && e.X < x0) ||
				(c.Y > y1 && e.Y > y1) || (c.Y < y0 && e.Y < y0) {
				continue
			}
			best = min(best, endpointDist(a, b, c, e))
		}
	}
	return best
}
