package geom

import "math"

// This file keeps the straightforward closure-based evaluators that the
// edge-pruned kernels replaced, as a reference for the differential and
// fuzz tests in package geom_test (which may import datagen without an
// import cycle). They test every edge pair, allocate freely and share
// only the segment primitives (the guarded segIntersects, segSegDist,
// pointInPolygon) with the production code, so any disagreement points
// at the loops, the pruning or the early exits.

// RefIntersects is the reference ANYINTERACT evaluator.
func RefIntersects(g, h Geometry) bool {
	if !MBROf(g).Intersects(MBROf(h)) {
		return false
	}
	for _, a := range refParts(g) {
		for _, b := range refParts(h) {
			if refPrimIntersects(a, b) {
				return true
			}
		}
	}
	return false
}

// RefDistance is the reference minimum distance: zero when
// RefIntersects holds, else the least edge-pair (or vertex) distance.
func RefDistance(g, h Geometry) float64 {
	if RefIntersects(g, h) {
		return 0
	}
	best := math.Inf(1)
	for _, a := range refParts(g) {
		for _, b := range refParts(h) {
			if d := refPrimDistance(a, b); d < best {
				best = d
			}
		}
	}
	return best
}

// RefWithinDistance is the reference within-distance test: the MBR
// reject, then the full RefDistance.
func RefWithinDistance(g, h Geometry, d float64) bool {
	return d >= 0 && MBROf(g).Dist(MBROf(h)) <= d && RefDistance(g, h) <= d
}

func refParts(g Geometry) []Geometry {
	if g.IsMulti() {
		return g.Elems
	}
	return []Geometry{g}
}

func refPrimIntersects(a, b Geometry) bool {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return refPointOnPath(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) >= 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return refChainsIntersect(pathEdges, a.Pts, pathEdges, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		for _, v := range a.Pts {
			if pointInPolygon(v, b) >= 0 {
				return true
			}
		}
		for _, r := range b.Rings {
			if refChainsIntersect(pathEdges, a.Pts, ringEdges, r) {
				return true
			}
		}
		return false
	default: // polygon-polygon
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				if refChainsIntersect(ringEdges, r, ringEdges, s) {
					return true
				}
			}
		}
		return pointInPolygon(a.Rings[0][0], b) > 0 || pointInPolygon(b.Rings[0][0], a) > 0
	}
}

func refPointOnPath(p Point, pts []Point) bool {
	found := false
	pathEdges(pts, func(a, b Point) bool {
		if orient(a, b, p) == 0 && onSegment(a, b, p) {
			found = true
			return false
		}
		return true
	})
	return found
}

type edgeWalker func([]Point, func(a, b Point) bool)

func refChainsIntersect(pw edgeWalker, p []Point, qw edgeWalker, q []Point) bool {
	found := false
	pw(p, func(a, b Point) bool {
		qw(q, func(c, d Point) bool {
			if segIntersects(a, b, c, d) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// refPrimDistance mirrors the old primDistance, including its own
// containment checks.
func refPrimDistance(a, b Geometry) float64 {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0])
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return refPointChainDist(a.Pts[0], pathEdges, b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		if pointInPolygon(a.Pts[0], b) >= 0 {
			return 0
		}
		best := math.Inf(1)
		for _, r := range b.Rings {
			best = math.Min(best, refPointChainDist(a.Pts[0], ringEdges, r))
		}
		return best
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return refChainsDist(pathEdges, a.Pts, pathEdges, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		if refPrimIntersects(a, b) {
			return 0
		}
		best := math.Inf(1)
		for _, r := range b.Rings {
			best = math.Min(best, refChainsDist(pathEdges, a.Pts, ringEdges, r))
		}
		return best
	default: // polygon-polygon
		if refPrimIntersects(a, b) {
			return 0
		}
		best := math.Inf(1)
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				best = math.Min(best, refChainsDist(ringEdges, r, ringEdges, s))
			}
		}
		return best
	}
}

func refPointChainDist(p Point, w edgeWalker, pts []Point) float64 {
	best := math.Inf(1)
	w(pts, func(a, b Point) bool {
		best = math.Min(best, pointSegDist(p, a, b))
		return true
	})
	return best
}

func refChainsDist(pw edgeWalker, p []Point, qw edgeWalker, q []Point) float64 {
	best := math.Inf(1)
	pw(p, func(a, b Point) bool {
		qw(q, func(c, d Point) bool {
			best = math.Min(best, segSegDist(a, b, c, d))
			return true
		})
		return best > 0
	})
	return best
}

// ringEdges calls fn for each edge of the implicitly closed ring r.
// fn returning false stops the iteration early.
func ringEdges(r []Point, fn func(a, b Point) bool) {
	n := len(r)
	for i := 0; i < n; i++ {
		if !fn(r[i], r[(i+1)%n]) {
			return
		}
	}
}

// pathEdges calls fn for each edge of the open polyline pts.
func pathEdges(pts []Point, fn func(a, b Point) bool) {
	for i := 1; i < len(pts); i++ {
		if !fn(pts[i-1], pts[i]) {
			return
		}
	}
}

// segSegDist returns the minimum distance between segments ab and cd
// (zero if they intersect): the per-pair test chainsWithin applies as
// segIntersects || endpointDist ≤ d.
func segSegDist(a, b, c, d Point) float64 {
	if segIntersects(a, b, c, d) {
		return 0
	}
	return endpointDist(a, b, c, d)
}
