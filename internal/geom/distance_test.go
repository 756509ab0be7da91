package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPointSegDist(t *testing.T) {
	a, b := Point{0, 0}, Point{4, 0}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{2, 3}, 3},  // projects onto the middle
		{Point{-3, 4}, 5}, // clamps to endpoint a
		{Point{7, 4}, 5},  // clamps to endpoint b
		{Point{2, 0}, 0},  // on the segment
		{Point{4, 0}, 0},  // at endpoint
		{Point{2, -2}, 2}, // below
	}
	for _, c := range cases {
		if got := pointSegDist(c.p, a, b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pointSegDist(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	// Degenerate zero-length segment.
	if got := pointSegDist(Point{3, 4}, Point{0, 0}, Point{0, 0}); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate segment dist = %g, want 5", got)
	}
}

func TestSegSegDist(t *testing.T) {
	if got := segSegDist(Point{0, 0}, Point{1, 0}, Point{0, 2}, Point{1, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("parallel dist = %g, want 2", got)
	}
	if got := segSegDist(Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}); got != 0 {
		t.Errorf("crossing dist = %g, want 0", got)
	}
	// Perpendicular, closest at an endpoint-interior pair.
	if got := segSegDist(Point{0, 0}, Point{4, 0}, Point{2, 1}, Point{2, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perpendicular dist = %g, want 1", got)
	}
}

func TestDistancePolygons(t *testing.T) {
	a := mustRect(t, 0, 0, 1, 1)
	b := mustRect(t, 3, 0, 4, 1)
	if got := Distance(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("Distance = %g, want 2", got)
	}
	c := mustRect(t, 0.5, 0.5, 2, 2)
	if got := Distance(a, c); got != 0 {
		t.Errorf("overlapping Distance = %g, want 0", got)
	}
	// Diagonal gap.
	d := mustRect(t, 4, 4, 5, 5)
	if got := Distance(a, d); math.Abs(got-3*math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal Distance = %g, want %g", got, 3*math.Sqrt2)
	}
	// Contained: distance zero.
	e := mustRect(t, 0.2, 0.2, 0.4, 0.4)
	if got := Distance(a, e); got != 0 {
		t.Errorf("contained Distance = %g, want 0", got)
	}
}

func TestDistancePointAndLine(t *testing.T) {
	p := NewPoint(0, 5)
	poly := mustRect(t, 0, 0, 4, 4)
	if got := Distance(p, poly); math.Abs(got-1) > 1e-12 {
		t.Errorf("point-polygon Distance = %g, want 1", got)
	}
	inside := NewPoint(2, 2)
	if got := Distance(inside, poly); got != 0 {
		t.Errorf("interior point Distance = %g, want 0", got)
	}
	l := mustLine(t, Point{6, 0}, Point{6, 4})
	if got := Distance(l, poly); math.Abs(got-2) > 1e-12 {
		t.Errorf("line-polygon Distance = %g, want 2", got)
	}
	l2 := mustLine(t, Point{0, 6}, Point{4, 6})
	if got := Distance(l, l2); math.Abs(got-math.Hypot(2, 2)) > 1e-12 {
		t.Errorf("line-line Distance = %g, want %g", got, math.Hypot(2, 2))
	}
	if got := Distance(NewPoint(0, 0), NewPoint(3, 4)); math.Abs(got-5) > 1e-12 {
		t.Errorf("point-point Distance = %g, want 5", got)
	}
}

func TestWithinDistance(t *testing.T) {
	a := mustRect(t, 0, 0, 1, 1)
	b := mustRect(t, 3, 0, 4, 1)
	if WithinDistance(a, b, 1.9) {
		t.Errorf("WithinDistance(1.9) should be false at gap 2")
	}
	if !WithinDistance(a, b, 2.0) {
		t.Errorf("WithinDistance(2.0) should be true at gap 2")
	}
	if !WithinDistance(a, b, 100) {
		t.Errorf("WithinDistance(100) should be true")
	}
	if WithinDistance(a, b, -1) {
		t.Errorf("negative distance should be false")
	}
	// d = 0 degenerates to intersection.
	c := mustRect(t, 1, 0, 2, 1) // shares an edge with a
	if !WithinDistance(a, c, 0) {
		t.Errorf("edge-sharing rects should be within distance 0")
	}
}

// TestDistanceZeroIffIntersects is the central coupling invariant
// between the distance evaluator and the intersection predicate.
func TestDistanceZeroIffIntersects(t *testing.T) {
	// Two triangles whose nearest edges are long and nearly collinear
	// but 0.01426 apart; their MBRs are disjoint.
	p, err := ParseWKT("POLYGON((0 0, 0.020528712314731454 0.014752286053650424, 0 0.0148, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseWKT("POLYGON((0.03210651349075198 0.023072293278591064, " +
		"95.31196290389693 68.49281724339058, -10 50, 0.03210651349075198 0.023072293278591064))")
	if err != nil {
		t.Fatal(err)
	}
	if WithinDistance(p, q, 0.01) {
		t.Errorf("WithinDistance(0.01) = true for polygons %g apart", Distance(p, q))
	}
	if d := Distance(p, q); math.Abs(d-0.01426) > 1e-5 {
		t.Errorf("near-collinear Distance = %g, want 0.01426", d)
	}
	pairs := [][2]Geometry{{p, q}}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		pairs = append(pairs, [2]Geometry{randomRect(t, rng), randomRect(t, rng)})
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		d := Distance(a, b)
		inter := Intersects(a, b)
		if (d == 0) != inter {
			t.Fatalf("Distance = %g but Intersects = %v for %v vs %v", d, inter, a, b)
		}
		// The MBR distance must lower-bound the exact distance.
		if md := MBROf(a).Dist(MBROf(b)); md > d+1e-9 {
			t.Fatalf("MBR dist %g exceeds exact dist %g", md, d)
		}
	}
}

// TestWithinDistanceMonotone checks monotonicity in d on random pairs.
func TestWithinDistanceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		a := randomRect(t, rng)
		b := randomRect(t, rng)
		d := Distance(a, b)
		if d == 0 {
			continue
		}
		if WithinDistance(a, b, d*0.99) {
			t.Fatalf("within 0.99d should be false (d=%g)", d)
		}
		if !WithinDistance(a, b, d*1.01) {
			t.Fatalf("within 1.01d should be true (d=%g)", d)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		a := randomRect(t, rng)
		b := randomRect(t, rng)
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("Distance asymmetric: %g vs %g", d1, d2)
		}
	}
}
