package geom

import (
	"testing"
)

func TestSegIntersects(t *testing.T) {
	cases := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"proper cross", Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}, true},
		{"disjoint parallel", Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1}, false},
		{"endpoint touch", Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}, true},
		{"T touch", Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{1, 1}, true},
		{"collinear overlap", Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{3, 0}, true},
		{"collinear disjoint", Point{0, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}, false},
		{"near miss", Point{0, 0}, Point{1, 0}, Point{0, 0.001}, Point{1, 0.001}, false},
		// A long segment nearly collinear with a short one 0.0143 away:
		// orient's length-scaled tolerance calls all four triples
		// collinear, so only the box guard keeps this apart.
		{"near collinear apart",
			Point{0, 0}, Point{0.020528712314731454, 0.014752286053650424},
			Point{0.03210651349075198, 0.023072293278591064}, Point{95.31196290389693, 68.49281724339058}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := segIntersects(c.a, c.b, c.c, c.d); got != c.want {
				t.Errorf("segIntersects = %v, want %v", got, c.want)
			}
			// Symmetry in both segment order and endpoint order.
			if got := segIntersects(c.c, c.d, c.a, c.b); got != c.want {
				t.Errorf("segIntersects not symmetric")
			}
			if got := segIntersects(c.b, c.a, c.d, c.c); got != c.want {
				t.Errorf("segIntersects not endpoint-order invariant")
			}
		})
	}
}

func TestSegProperCross(t *testing.T) {
	if !segProperCross(Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}) {
		t.Errorf("X crossing not proper")
	}
	if segProperCross(Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}) {
		t.Errorf("endpoint touch reported proper")
	}
	if segProperCross(Point{0, 0}, Point{2, 0}, Point{1, 0}, Point{3, 0}) {
		t.Errorf("collinear overlap reported proper")
	}
}

func TestPointInRing(t *testing.T) {
	sq := []Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
	cases := []struct {
		p    Point
		want int
	}{
		{Point{2, 2}, 1},
		{Point{0, 2}, 0},  // on left edge
		{Point{4, 4}, 0},  // on corner
		{Point{5, 2}, -1}, // right of ring
		{Point{-1, 2}, -1},
		{Point{2, 0}, 0}, // on bottom edge
		{Point{2, 5}, -1},
	}
	for _, c := range cases {
		if got := pointInRing(c.p, sq); got != c.want {
			t.Errorf("pointInRing(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPointInRingConcave(t *testing.T) {
	// A "U" shape: the notch between the arms is outside.
	u := []Point{{0, 0}, {6, 0}, {6, 4}, {4, 4}, {4, 2}, {2, 2}, {2, 4}, {0, 4}}
	if got := pointInRing(Point{3, 3}, u); got != -1 {
		t.Errorf("notch point classified %d, want -1", got)
	}
	if got := pointInRing(Point{1, 3}, u); got != 1 {
		t.Errorf("left arm point classified %d, want 1", got)
	}
	if got := pointInRing(Point{3, 1}, u); got != 1 {
		t.Errorf("base point classified %d, want 1", got)
	}
}

func TestPointInPolygonWithHole(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := []Point{{4, 4}, {6, 4}, {6, 6}, {4, 6}}
	g := mustPolygon(t, outer, hole)
	cases := []struct {
		p    Point
		want int
	}{
		{Point{5, 5}, -1}, // inside the hole = exterior
		{Point{4, 5}, 0},  // on hole boundary
		{Point{2, 2}, 1},  // in the solid part
		{Point{0, 0}, 0},  // outer corner
		{Point{11, 5}, -1},
	}
	for _, c := range cases {
		if got := pointInPolygon(c.p, g); got != c.want {
			t.Errorf("pointInPolygon(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestIntersectsPolygonPairs(t *testing.T) {
	a := mustRect(t, 0, 0, 4, 4)
	cases := []struct {
		name string
		b    Geometry
		want bool
	}{
		{"overlapping", mustRect(t, 2, 2, 6, 6), true},
		{"contained", mustRect(t, 1, 1, 2, 2), true},
		{"containing", mustRect(t, -2, -2, 8, 8), true},
		{"edge touch", mustRect(t, 4, 0, 8, 4), true},
		{"corner touch", mustRect(t, 4, 4, 8, 8), true},
		{"disjoint", mustRect(t, 5, 5, 8, 8), false},
		{"same", mustRect(t, 0, 0, 4, 4), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Intersects(a, c.b); got != c.want {
				t.Errorf("Intersects = %v, want %v", got, c.want)
			}
			if got := Intersects(c.b, a); got != c.want {
				t.Errorf("Intersects not symmetric")
			}
		})
	}
}

func TestIntersectsRespectsHoles(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := []Point{{3, 3}, {7, 3}, {7, 7}, {3, 7}}
	donut := mustPolygon(t, outer, hole)
	inHole := mustRect(t, 4, 4, 6, 6)
	if Intersects(donut, inHole) {
		t.Errorf("rect inside hole should not intersect donut")
	}
	spanning := mustRect(t, 4, 4, 12, 6) // exits the hole through the ring
	if !Intersects(donut, spanning) {
		t.Errorf("rect spanning hole boundary should intersect donut")
	}
	pIn := NewPoint(5, 5)
	if Intersects(donut, pIn) {
		t.Errorf("point in hole should not intersect donut")
	}
	pOnHole := NewPoint(3, 5)
	if !Intersects(donut, pOnHole) {
		t.Errorf("point on hole boundary should intersect donut")
	}
}

func TestIntersectsLineCases(t *testing.T) {
	poly := mustRect(t, 0, 0, 4, 4)
	crossing := mustLine(t, Point{-1, 2}, Point{5, 2})
	if !Intersects(poly, crossing) {
		t.Errorf("crossing line should intersect")
	}
	outside := mustLine(t, Point{5, 5}, Point{6, 6})
	if Intersects(poly, outside) {
		t.Errorf("outside line should not intersect")
	}
	inside := mustLine(t, Point{1, 1}, Point{2, 2})
	if !Intersects(poly, inside) {
		t.Errorf("interior line should intersect")
	}
	touching := mustLine(t, Point{-1, 0}, Point{0, 0})
	if !Intersects(poly, touching) {
		t.Errorf("endpoint-touching line should intersect")
	}
	l1 := mustLine(t, Point{0, 0}, Point{4, 4})
	l2 := mustLine(t, Point{0, 4}, Point{4, 0})
	if !Intersects(l1, l2) {
		t.Errorf("crossing lines should intersect")
	}
	l3 := mustLine(t, Point{0, 5}, Point{4, 5})
	if Intersects(l1, l3) {
		t.Errorf("disjoint lines should not intersect")
	}
}

func TestIntersectsPointCases(t *testing.T) {
	p := NewPoint(1, 1)
	if !Intersects(p, NewPoint(1, 1)) {
		t.Errorf("identical points should intersect")
	}
	if Intersects(p, NewPoint(1, 1.5)) {
		t.Errorf("distinct points should not intersect")
	}
	l := mustLine(t, Point{0, 0}, Point{2, 2})
	if !Intersects(p, l) {
		t.Errorf("point on line should intersect")
	}
	if Intersects(NewPoint(2, 0), l) {
		t.Errorf("point off line should not intersect")
	}
}

func TestIntersectsMulti(t *testing.T) {
	mp, err := NewMulti(KindMultiPolygon, []Geometry{
		mustRect(t, 0, 0, 1, 1),
		mustRect(t, 10, 10, 11, 11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !Intersects(mp, mustRect(t, 10.5, 10.5, 12, 12)) {
		t.Errorf("second member should intersect")
	}
	if Intersects(mp, mustRect(t, 5, 5, 6, 6)) {
		t.Errorf("gap between members should not intersect")
	}
}

func TestIntersectsThinSliver(t *testing.T) {
	// MBRs overlap but the geometries do not: the classic case the
	// secondary filter must reject after the primary filter accepts.
	tri1 := mustPolygon(t, []Point{{0, 0}, {10, 0}, {0, 10}})
	tri2 := mustPolygon(t, []Point{{10, 10}, {9.5, 10}, {10, 9.5}})
	if !MBROf(tri1).Intersects(MBROf(tri2)) {
		t.Fatalf("test setup: MBRs should overlap")
	}
	if Intersects(tri1, tri2) {
		t.Errorf("exact test should reject the sliver pair")
	}
}

func TestCoveredBy(t *testing.T) {
	big := mustRect(t, 0, 0, 10, 10)
	small := mustRect(t, 2, 2, 4, 4)
	if !coveredBy(small, big) {
		t.Errorf("small in big should be covered")
	}
	if coveredBy(big, small) {
		t.Errorf("big in small should not be covered")
	}
	edge := mustRect(t, 0, 0, 4, 4) // shares two edges with big
	if !coveredBy(edge, big) {
		t.Errorf("edge-sharing rect should be covered")
	}
	if !coveredBy(big, big) {
		t.Errorf("geometry should cover itself")
	}
	overlapping := mustRect(t, 8, 8, 12, 12)
	if coveredBy(overlapping, big) {
		t.Errorf("partially overlapping rect should not be covered")
	}
}

func TestCoveredByWithHole(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := []Point{{4, 4}, {6, 4}, {6, 6}, {4, 6}}
	donut := mustPolygon(t, outer, hole)
	solid := mustRect(t, 1, 1, 3, 3)
	if !coveredBy(solid, donut) {
		t.Errorf("rect in solid part should be covered")
	}
	spansHole := mustRect(t, 3, 3, 7, 7)
	if coveredBy(spansHole, donut) {
		t.Errorf("rect spanning the hole should not be covered")
	}
	lineInside := mustLine(t, Point{1, 1}, Point{3, 1})
	if !coveredBy(lineInside, donut) {
		t.Errorf("line in solid part should be covered")
	}
	lineAcrossHole := mustLine(t, Point{2, 5}, Point{8, 5})
	if coveredBy(lineAcrossHole, donut) {
		t.Errorf("line crossing the hole should not be covered")
	}
}

func TestCoveredByConcave(t *testing.T) {
	// U shape again: a rect bridging the notch has all vertices inside
	// but its middle is outside; the edge-midpoint test must catch it.
	u := mustPolygon(t, []Point{{0, 0}, {6, 0}, {6, 6}, {4, 6}, {4, 2}, {2, 2}, {2, 6}, {0, 6}})
	bridge := mustPolygon(t, []Point{{1, 4}, {5, 4}, {5, 5}, {1, 5}})
	if coveredBy(bridge, u) {
		t.Errorf("bridge across the notch should not be covered")
	}
	arm := mustRect(t, 0.5, 3, 1.5, 5)
	if !coveredBy(arm, u) {
		t.Errorf("rect inside the left arm should be covered")
	}
}

func TestLineCoveredByLine(t *testing.T) {
	long := mustLine(t, Point{0, 0}, Point{10, 0})
	sub := mustLine(t, Point{2, 0}, Point{5, 0})
	if !coveredBy(sub, long) {
		t.Errorf("sub-segment should be covered by containing segment")
	}
	if coveredBy(long, sub) {
		t.Errorf("long segment should not be covered by sub-segment")
	}
	off := mustLine(t, Point{2, 0}, Point{5, 1})
	if coveredBy(off, long) {
		t.Errorf("diverging segment should not be covered")
	}
}
