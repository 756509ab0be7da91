package geom

// This file implements the exact intersection test between arbitrary
// geometry pairs — the heart of the "secondary filter" that the paper's
// two-stage join applies to each candidate pair after the index-level
// MBR (primary) filter.

// Intersects reports whether g and h share at least one point
// (Oracle's ANYINTERACT relationship). Both geometries must be valid.
// It allocates nothing.
func Intersects(g, h Geometry) bool {
	return MBROf(g).Intersects(MBROf(h)) && partsWithin(&g, &h, 0)
}

// partsWithin reports whether some primitive part of g comes within d
// of some part of h (primWithin). Simple shapes are their own single
// part, so no slice of parts is built.
func partsWithin(g, h *Geometry, d float64) bool {
	for i := range g.numParts() {
		a := g.part(i)
		for j := range h.numParts() {
			if primWithin(a, h.part(j), d) {
				return true
			}
		}
	}
	return false
}

// anyPartPair reports whether f holds for some pair of primitive parts
// of g and h.
func anyPartPair(g, h Geometry, f func(a, b Geometry) bool) bool {
	for i := range g.numParts() {
		a := g.part(i)
		for j := range h.numParts() {
			if f(*a, *h.part(j)) {
				return true
			}
		}
	}
	return false
}

// primWithin reports whether primitives a and b come within d of each
// other. With d = 0 it is the primitive ANYINTERACT test; with d > 0
// the per-part test of WithinDistance. Either way it returns at the
// first witness: a vertex inside the other shape, or an edge pair that
// touches (or lies within d).
func primWithin(a, b *Geometry, d float64) bool {
	// Normalise so a.Kind <= b.Kind in the dispatch order
	// point < line < polygon.
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= max(eps, d)
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointWithinChain(a.Pts[0], b.Pts, false, d)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		if pointInPolygon(a.Pts[0], *b) >= 0 {
			return true
		}
		if d > 0 {
			for _, r := range b.Rings {
				if pointWithinChain(a.Pts[0], r, true, d) {
					return true
				}
			}
		}
		return false
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return chainsWithin(a.Pts, false, b.Pts, false, d)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		// Any vertex of the line inside/on the polygon?
		for _, v := range a.Pts {
			if pointInPolygon(v, *b) >= 0 {
				return true
			}
		}
		// Any edge meeting any ring? (Covers the case where the line
		// passes through the polygon without a vertex inside, and the
		// case where it only clips a hole boundary.)
		for _, r := range b.Rings {
			if chainsWithin(a.Pts, false, r, true, d) {
				return true
			}
		}
		return false
	case a.Kind == KindPolygon && b.Kind == KindPolygon:
		return polyPolyWithin(a, b, d)
	default:
		return false
	}
}

// pointWithinChain reports whether p lies on chain pts or (d > 0)
// within d of one of its edges.
func pointWithinChain(p Point, pts []Point, closed bool, d float64) bool {
	for i := range edgeCount(pts, closed) {
		a, b := edgeAt(pts, i)
		if orient(a, b, p) == 0 && onSegment(a, b, p) || d > 0 && pointSegDist(p, a, b) <= d {
			return true
		}
	}
	return false
}

// polyPolyWithin reports whether two polygons come within d of each
// other (d = 0: share a point).
func polyPolyWithin(p, q *Geometry, d float64) bool {
	// Boundary-boundary contact (or an edge pair within d).
	for _, r := range p.Rings {
		for _, s := range q.Rings {
			if chainsWithin(r, true, s, true, d) {
				return true
			}
		}
	}
	// No boundary contact: either disjoint or one strictly inside the
	// other. A single vertex test per direction decides it (holes are
	// handled by pointInPolygon).
	return pointInPolygon(p.Rings[0][0], *q) > 0 || pointInPolygon(q.Rings[0][0], *p) > 0
}

// boundariesIntersect reports whether the boundaries of g and h share a
// point. For points the boundary is the point itself; for lines the
// polyline; for polygons all rings.
func boundariesIntersect(g, h Geometry) bool {
	return anyPartPair(g, h, primBoundariesIntersect)
}

func primBoundariesIntersect(a, b Geometry) bool {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointWithinChain(a.Pts[0], b.Pts, false, 0)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) == 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return chainsWithin(a.Pts, false, b.Pts, false, 0)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		for _, r := range b.Rings {
			if chainsWithin(a.Pts, false, r, true, 0) {
				return true
			}
		}
		return false
	default: // polygon-polygon
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				if chainsWithin(r, true, s, true, 0) {
					return true
				}
			}
		}
		return false
	}
}

// interiorsIntersect reports whether the interiors of g and h share a
// point. For a point the interior is the point; for a line the polyline
// minus its two endpoints; for a polygon the open region.
func interiorsIntersect(g, h Geometry) bool {
	return anyPartPair(g, h, primInteriorsIntersect)
}

func primInteriorsIntersect(a, b Geometry) bool {
	// Interior intersection is symmetric, so normalising operand order
	// is safe.
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointOnPathInterior(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) > 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return lineInteriorsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		return lineInteriorInPolygonInterior(a, b)
	default:
		return polyInteriorsIntersect(a, b)
	}
}

// pointOnPathInterior reports whether p lies on pts excluding the two
// polyline endpoints.
func pointOnPathInterior(p Point, pts []Point) bool {
	if !pointWithinChain(p, pts, false, 0) {
		return false
	}
	return p.Dist(pts[0]) > eps && p.Dist(pts[len(pts)-1]) > eps
}

// lineInteriorsIntersect reports whether two polylines intersect at a
// point interior to both (any shared point that is not exclusively an
// endpoint-endpoint touch).
func lineInteriorsIntersect(p, q []Point) bool {
	if !chainsWithin(p, false, q, false, 0) {
		return false
	}
	// A proper segment crossing is always interior-interior.
	if chainsCross(p, false, q, false) {
		return true
	}
	// Otherwise all contacts are touches/overlaps; check whether some
	// contact point is interior to both polylines. Sample candidate
	// points: all vertices of each line lying on the other.
	for _, v := range p {
		if pointOnPathInterior(v, q) && pointOnPathInterior(v, p) {
			return true
		}
	}
	for _, v := range q {
		if pointOnPathInterior(v, p) && pointOnPathInterior(v, q) {
			return true
		}
	}
	return false
}

// lineInteriorInPolygonInterior reports whether the interior of line l
// reaches the interior of polygon p.
func lineInteriorInPolygonInterior(l, p Geometry) bool {
	// Any vertex strictly inside?
	for _, v := range l.Pts {
		if pointInPolygon(v, p) > 0 {
			return true
		}
	}
	// Any edge properly crossing a ring means the line passes from
	// outside to inside (or between interior regions).
	for _, r := range p.Rings {
		if chainsCross(l.Pts, false, r, true) {
			return true
		}
	}
	// Edge midpoints catch the case of a segment whose endpoints both
	// lie on the boundary but whose middle runs inside.
	return anyMidpoint(l.Pts, false, p, 1)
}

// anyMidpoint reports whether the midpoint of some edge of chain pts
// classifies as want against polygon p: 1 strictly inside, -1 outside.
func anyMidpoint(pts []Point, closed bool, p Geometry, want int) bool {
	for i := range edgeCount(pts, closed) {
		a, b := edgeAt(pts, i)
		if pointInPolygon(midpoint(a, b), p) == want {
			return true
		}
	}
	return false
}

// polyInteriorsIntersect reports whether the open interiors of two
// polygons overlap.
func polyInteriorsIntersect(p, q Geometry) bool {
	// A proper edge crossing forces interior overlap.
	for _, r := range p.Rings {
		for _, s := range q.Rings {
			if chainsCross(r, true, s, true) {
				return true
			}
		}
	}
	// No proper crossings: interiors overlap iff some vertex of one is
	// strictly inside the other, or (pure boundary-sharing cases) some
	// boundary edge midpoint of one is strictly inside the other.
	for _, r := range p.Rings {
		for _, v := range r {
			if pointInPolygon(v, q) > 0 && pointInPolygon(v, p) >= 0 {
				return true
			}
		}
	}
	for _, s := range q.Rings {
		for _, v := range s {
			if pointInPolygon(v, p) > 0 && pointInPolygon(v, q) >= 0 {
				return true
			}
		}
	}
	// Edge midpoints: handles equal polygons and containment with all
	// vertices on the boundary.
	for _, r := range p.Rings {
		if anyMidpoint(r, true, q, 1) {
			return true
		}
	}
	for _, s := range q.Rings {
		if anyMidpoint(s, true, p, 1) {
			return true
		}
	}
	// Final fallback: centroid of the MBR intersection.
	c := MBROf(p).Intersect(MBROf(q)).Center()
	return pointInPolygon(c, p) > 0 && pointInPolygon(c, q) > 0
}

// coveredBy reports whether every point of g lies in (interior or
// boundary of) h. It backs the COVEREDBY/COVERS/INSIDE/CONTAINS masks.
func coveredBy(g, h Geometry) bool {
	if !MBROf(h).Contains(MBROf(g)) {
		return false
	}
	for i := range g.numParts() {
		if !primCoveredByAny(*g.part(i), h) {
			return false
		}
	}
	return true
}

// primCoveredByAny reports whether primitive a is covered by the union
// of the primitive parts of h. For simplicity (and matching how the
// synthetic datasets are built) a must be covered by a single part;
// geometries spanning multiple members of a multi-polygon are reported
// not covered, which keeps the predicate conservative (sound for
// CONTAINS pruning in joins, never claiming coverage that does not
// hold).
func primCoveredByAny(a Geometry, h Geometry) bool {
	for j := range h.numParts() {
		if primCoveredBy(a, *h.part(j)) {
			return true
		}
	}
	return false
}

func primCoveredBy(a, b Geometry) bool {
	switch {
	case a.Kind == KindPoint:
		switch b.Kind {
		case KindPoint:
			return a.Pts[0].Dist(b.Pts[0]) <= eps
		case KindLineString:
			return pointWithinChain(a.Pts[0], b.Pts, false, 0)
		default:
			return pointInPolygon(a.Pts[0], b) >= 0
		}
	case a.Kind == KindLineString:
		switch b.Kind {
		case KindPolygon:
			return lineCoveredByPolygon(a, b)
		case KindLineString:
			return lineCoveredByLine(a.Pts, b.Pts)
		default:
			return false
		}
	case a.Kind == KindPolygon:
		if b.Kind != KindPolygon {
			return false
		}
		return polyCoveredByPoly(a, b)
	}
	return false
}

// lineCoveredByPolygon reports whether every point of line l lies in
// polygon p (closed region).
func lineCoveredByPolygon(l, p Geometry) bool {
	for _, v := range l.Pts {
		if pointInPolygon(v, p) < 0 {
			return false
		}
	}
	// No edge may properly cross a ring (that would exit the region),
	// and edge midpoints must stay in the closed region (catches edges
	// hopping across a concavity or a hole).
	for _, r := range p.Rings {
		if chainsCross(l.Pts, false, r, true) {
			return false
		}
	}
	return !anyMidpoint(l.Pts, false, p, -1)
}

// lineCoveredByLine reports whether polyline a is a sub-path of
// polyline b: every vertex of a on b and every edge midpoint of a on b.
func lineCoveredByLine(a, b []Point) bool {
	for _, v := range a {
		if !pointWithinChain(v, b, false, 0) {
			return false
		}
	}
	for i := range edgeCount(a, false) {
		p, q := edgeAt(a, i)
		if !pointWithinChain(midpoint(p, q), b, false, 0) {
			return false
		}
	}
	return true
}

// polyCoveredByPoly reports whether polygon a lies entirely within the
// closed region of polygon b.
func polyCoveredByPoly(a, b Geometry) bool {
	// Every vertex of a inside/on b.
	for _, r := range a.Rings {
		for _, v := range r {
			if pointInPolygon(v, b) < 0 {
				return false
			}
		}
	}
	// No proper boundary crossing.
	for _, r := range a.Rings {
		for _, s := range b.Rings {
			if chainsCross(r, true, s, true) {
				return false
			}
		}
	}
	// Edge midpoints of a must remain in b (catches concavities).
	for _, r := range a.Rings {
		if anyMidpoint(r, true, b, -1) {
			return false
		}
	}
	// No hole of b may poke into the interior of a: if a hole boundary
	// of b lies strictly inside a, part of a would be excluded from b.
	for _, h := range b.Rings[1:] {
		if pointInPolygon(h[0], a) > 0 {
			// The hole starts inside a. It excludes area from b, so a is
			// not fully covered (unless a has a matching hole, which the
			// midpoint test above would usually have caught; be
			// conservative here).
			hp := Geometry{Kind: KindPolygon, Rings: [][]Point{h}}
			if !coveredByAnyHole(hp, a) {
				return false
			}
		}
	}
	return true
}

// coveredByAnyHole reports whether polygon hole hp is covered by one of
// a's own holes, meaning the excluded region was already excluded.
func coveredByAnyHole(hp, a Geometry) bool {
	for _, h := range a.Rings[1:] {
		ah := Geometry{Kind: KindPolygon, Rings: [][]Point{h}}
		if polyCoveredByPoly(hp, ah) {
			return true
		}
	}
	return false
}
