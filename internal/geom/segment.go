package geom

import "math"

// This file holds the low-level computational-geometry kernels:
// orientation tests, segment intersection, and point/segment distances.
// Everything above (predicates, relate masks, distances) is built from
// these few primitives, so their edge-case behaviour is tested heavily.

// eps is the tolerance used for orientation and on-segment tests. The
// synthetic datasets use coordinates in roughly [0, 1000], for which
// 1e-12 comfortably exceeds accumulated float error without swallowing
// genuine near-touches.
const eps = 1e-12

// orient returns the sign of the cross product (b-a) × (c-a):
// +1 if a→b→c turns counter-clockwise, -1 if clockwise, 0 if collinear
// (within eps, scaled by the segment magnitudes).
func orient(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	// Scale tolerance by the magnitude of the operands so the test is
	// meaningful for both tiny and huge coordinates.
	scale := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) + math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	tol := eps * (1 + scale)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether point p lies on segment ab, assuming the
// three points are already known to be collinear.
func onSegment(a, b, p Point) bool {
	return min(a.X, b.X)-eps <= p.X && p.X <= max(a.X, b.X)+eps &&
		min(a.Y, b.Y)-eps <= p.Y && p.Y <= max(a.Y, b.Y)+eps
}

// segIntersects reports whether segments ab and cd share at least one
// point, including endpoint touches and collinear overlap.
//
// A box guard vetoes every "true": orient's tolerance grows with the
// operand magnitudes, so without it two long, nearly collinear
// segments that are plainly apart could both test "collinear" and pass
// onSegment's slack. Segments whose boxes lie more than eps·(1+s)
// apart, s = |b−a|₁ + |d−c|₁ + |c−a|₁ (a bound on every orient scale
// below), cannot touch within any tolerance used here. The guard runs
// only when the orientation tests say "touch", so the common miss does
// not pay for it.
func segIntersects(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	touch := o1 != o2 && o3 != o4 ||
		// Collinear cases.
		o1 == 0 && onSegment(a, b, c) || o2 == 0 && onSegment(a, b, d) ||
		o3 == 0 && onSegment(c, d, a) || o4 == 0 && onSegment(c, d, b)
	return touch && !boxesApart(a, b, c, d)
}

// boxesApart is segIntersects' guard: it reports whether the boxes of
// ab and cd lie more than eps·(1+s) apart.
func boxesApart(a, b, c, d Point) bool {
	s := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) + math.Abs(d.X-c.X) + math.Abs(d.Y-c.Y) +
		math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	g := eps * (1 + s)
	return min(c.X, d.X) > max(a.X, b.X)+g || max(c.X, d.X) < min(a.X, b.X)-g ||
		min(c.Y, d.Y) > max(a.Y, b.Y)+g || max(c.Y, d.Y) < min(a.Y, b.Y)-g
}

// segProperCross reports whether ab and cd cross at a single interior
// point of both segments (a "proper" crossing: no endpoint touches, no
// collinear overlap). Interior crossings distinguish OVERLAP from TOUCH.
func segProperCross(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// pointSegDist returns the distance from p to segment ab.
func pointSegDist(p, a, b Point) float64 {
	ab := b.Sub(a)
	len2 := ab.Dot(ab)
	if len2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / len2
	switch {
	case t <= 0:
		return p.Dist(a)
	case t >= 1:
		return p.Dist(b)
	default:
		proj := a.Add(ab.Scale(t))
		return p.Dist(proj)
	}
}

// endpointDist returns the least distance from an endpoint of either
// segment to the other segment: the distance between ab and cd when
// they do not intersect.
func endpointDist(a, b, c, d Point) float64 {
	return min(
		min(pointSegDist(a, c, d), pointSegDist(b, c, d)),
		min(pointSegDist(c, a, b), pointSegDist(d, a, b)),
	)
}

// A chain is a vertex slice walked edge by edge: closed (a ring, whose
// last vertex joins the first) or open (a path). Edge i of a ring is
// (r[i], r[(i+1)%n]); edge i of a path is (p[i], p[i+1]).

// edgeCount returns the number of edges of a chain of n vertices.
func edgeCount(pts []Point, closed bool) int {
	if closed {
		return len(pts)
	}
	return len(pts) - 1
}

// edgeAt returns edge i of a chain; the last edge of a ring wraps to
// its first vertex.
func edgeAt(pts []Point, i int) (Point, Point) {
	j := i + 1
	if j == len(pts) {
		j = 0
	}
	return pts[i], pts[j]
}

// pruneSlack is the extra margin an edge box is grown by before edge
// pairs are skipped on box separation. For an edge of L1 length la and
// a chain whose box has half-perimeter lq, two boxes more than this far
// apart are also apart by more than segIntersects' guard eps·(1+s) —
// s is at most 2(la+lq) plus twice the gap itself — with a factor of two
// to spare for rounding, so skipping such pairs changes no verdict.
func pruneSlack(la, lq float64) float64 {
	return 4 * eps * (1 + la + lq)
}

// chainsWithin reports whether some edge of chain p and some edge of
// chain q lie within d of each other: segIntersects holds, or (d > 0)
// endpointDist ≤ d. With d = 0 it is the boundary-contact test of
// ANYINTERACT; with d > 0 the edge test of WithinDistance, returning at
// the first pair close enough.
//
// It decides exactly as testing every pair would, but skips the pairs
// that cannot pass: the chain with more edges is the outer loop, each
// outer edge's box is grown by d plus pruneSlack once, compared with q's
// whole box, and then with each inner edge by four compares before any
// orient call. It allocates nothing.
func chainsWithin(p []Point, pClosed bool, q []Point, qClosed bool, d float64) bool {
	n, m := edgeCount(p, pClosed), edgeCount(q, qClosed)
	if m > n {
		p, q, n, m = q, p, m, n
	}
	qb := boxOf(q)
	lq := qb.Width() + qb.Height()
	for i := 0; i < n; i++ {
		a, b := edgeAt(p, i)
		r := d + pruneSlack(math.Abs(b.X-a.X)+math.Abs(b.Y-a.Y), lq)
		x0, x1 := min(a.X, b.X)-r, max(a.X, b.X)+r
		y0, y1 := min(a.Y, b.Y)-r, max(a.Y, b.Y)+r
		if qb.MinX > x1 || qb.MaxX < x0 || qb.MinY > y1 || qb.MaxY < y0 {
			continue
		}
		for j := 0; j < m; j++ {
			c, e := edgeAt(q, j)
			if (c.X > x1 && e.X > x1) || (c.X < x0 && e.X < x0) ||
				(c.Y > y1 && e.Y > y1) || (c.Y < y0 && e.Y < y0) {
				continue
			}
			if segIntersects(a, b, c, e) || d > 0 && endpointDist(a, b, c, e) <= d {
				return true
			}
		}
	}
	return false
}

// chainsCross reports whether some edge of chain p properly crosses
// some edge of chain q (segProperCross). The relate masks use it to
// tell interior contact from boundary contact.
func chainsCross(p []Point, pClosed bool, q []Point, qClosed bool) bool {
	n, m := edgeCount(p, pClosed), edgeCount(q, qClosed)
	for i := 0; i < n; i++ {
		a, b := edgeAt(p, i)
		for j := 0; j < m; j++ {
			c, d := edgeAt(q, j)
			if segProperCross(a, b, c, d) {
				return true
			}
		}
	}
	return false
}

// midpoint returns the midpoint of segment ab.
func midpoint(a, b Point) Point { return Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2} }

// pointInRing classifies p against the implicitly closed ring r:
// +1 strictly inside, 0 on the boundary, -1 strictly outside.
// It uses the standard crossing-number ray cast with boundary detection.
func pointInRing(p Point, r []Point) int {
	n := len(r)
	inside := false
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		// Boundary check first.
		if orient(a, b, p) == 0 && onSegment(a, b, p) {
			return 0
		}
		// Crossing-number step: does the edge straddle the horizontal
		// line through p, and is the crossing to the right of p?
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if xCross > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return 1
	}
	return -1
}

// pointInPolygon classifies p against polygon g (which must be
// KindPolygon): +1 strictly interior, 0 on the boundary (outer ring or
// hole ring), -1 exterior (outside the outer ring or strictly inside a
// hole).
func pointInPolygon(p Point, g Geometry) int {
	c := pointInRing(p, g.Rings[0])
	if c <= 0 {
		return c
	}
	for _, h := range g.Rings[1:] {
		switch pointInRing(p, h) {
		case 0:
			return 0
		case 1:
			return -1
		}
	}
	return 1
}
