package geom_test

import (
	"sort"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
)

// candidates returns every ordered pair (i, j) of a × b whose MBRs come
// within d of each other (intersect, for d = 0): the primary filter's
// output, which is what the exact predicates are ever asked about.
func candidates(a, b []geom.Geometry, d float64) [][2]int {
	bm := make([]geom.MBR, len(b))
	order := make([]int, len(b))
	maxW := 0.0
	for j, g := range b {
		bm[j] = geom.MBROf(g)
		order[j] = j
		maxW = max(maxW, bm[j].Width())
	}
	sort.Slice(order, func(x, y int) bool { return bm[order[x]].MinX < bm[order[y]].MinX })
	var out [][2]int
	for i, g := range a {
		m := geom.MBROf(g)
		lo := sort.Search(len(order), func(k int) bool { return bm[order[k]].MinX >= m.MinX-maxW-d })
		for k := lo; k < len(order) && bm[order[k]].MinX <= m.MaxX+d; k++ {
			j := order[k]
			if (d == 0 && m.Intersects(bm[j])) || (d > 0 && m.Dist(bm[j]) <= d) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// clusteredStars returns n stars built 25 at a time from consecutive
// seeds, so they fall into tight clusters scattered over the world.
func clusteredStars(n int, seed int64) []geom.Geometry {
	var out []geom.Geometry
	for i := int64(0); len(out) < n; i++ {
		out = append(out, datagen.Stars(min(25, n-len(out)), seed*1000+i).Geoms...)
	}
	return out
}

// TestIntersectsMatchesReference checks the edge-pruned ANYINTERACT
// kernel against the every-pair reference on each MBR-candidate pair of
// the synthetic datasets' self-joins, and Distance == 0 ⇔ Intersects on
// the same pairs.
func TestIntersectsMatchesReference(t *testing.T) {
	sets := []datagen.Dataset{
		datagen.Stars(5000, 1),
		datagen.Counties(3230, 1),
		datagen.BlockGroups(3000, 1),
		datagen.Counties(1000, 7),
	}
	if testing.Short() {
		sets = []datagen.Dataset{datagen.Stars(1000, 1), datagen.Counties(500, 1), datagen.BlockGroups(300, 1)}
	}
	for _, ds := range sets {
		gs := ds.Geoms
		pairs := candidates(gs, gs, 0)
		disagree, hits := 0, 0
		for _, c := range pairs {
			a, b := gs[c[0]], gs[c[1]]
			got := geom.Intersects(a, b)
			if got != geom.RefIntersects(a, b) {
				disagree++
				if disagree <= 3 {
					t.Errorf("%s[%d] × [%d]: Intersects = %v, reference %v", ds.Name, c[0], c[1], got, !got)
				}
			}
			if got {
				hits++
			}
			if d := geom.Distance(a, b); (d == 0) != got {
				t.Errorf("%s[%d] × [%d]: Distance = %g but Intersects = %v", ds.Name, c[0], c[1], d, got)
			}
		}
		t.Logf("%s (%d geometries): %d candidates, %d intersect, %d disagreements", ds.Name, len(gs), len(pairs), hits, disagree)
	}
}

// TestWithinDistanceMatchesReference checks the early-exit
// WithinDistance against the reference full distance on the
// counties × clustered-stars distance join's candidates.
func TestWithinDistanceMatchesReference(t *testing.T) {
	nc, ns := 1000, 1000
	if testing.Short() {
		nc, ns = 300, 300
	}
	counties := datagen.Counties(nc, 7).Geoms
	stars := clusteredStars(ns, 7)
	for _, d := range []float64{0.5, 3} {
		pairs := candidates(counties, stars, d)
		disagree, hits := 0, 0
		for _, c := range pairs {
			a, b := counties[c[0]], stars[c[1]]
			got := geom.WithinDistance(a, b, d)
			if want := geom.RefWithinDistance(a, b, d); got != want {
				disagree++
				if disagree <= 3 {
					t.Errorf("d=%g counties[%d] × stars[%d]: WithinDistance = %v, reference distance %g",
						d, c[0], c[1], got, geom.RefDistance(a, b))
				}
			}
			if got {
				hits++
			}
		}
		t.Logf("d=%g: %d candidates, %d within, %d disagreements", d, len(pairs), hits, disagree)
	}
}

// fuzzPolygon decodes one small polygon from data: a vertex count, then
// one byte per vertex. Vertices are snapped onto a few shared features
// so that the two polygons of a fuzz input touch, share edges and run
// collinear far more often than random coordinates would: the top two
// bits pick a 0.5-spaced 8×8 lattice point, a point on one shared
// slanted line (inexact in binary), or a point of the lattice's lower
// half nudged by 1e-13 (inside every tolerance) or 4e-12 (inside
// orient's length-scaled tolerance but outside onSegment's).
func fuzzPolygon(data []byte) (geom.Geometry, []byte, bool) {
	if len(data) < 1 {
		return geom.Geometry{}, nil, false
	}
	n := 3 + int(data[0]%4)
	data = data[1:]
	if len(data) < n {
		return geom.Geometry{}, nil, false
	}
	ring := make([]geom.Point, n)
	for k, v := range data[:n] {
		i, j := float64(v&7), float64((v>>3)&7)
		switch v >> 6 {
		case 0, 1:
			ring[k] = geom.Point{X: i * 0.5, Y: j * 0.5}
		case 2:
			s := float64(v&63) / 63
			ring[k] = geom.Point{X: 3.5 * s, Y: 0.1 + 2.5*s}
		default:
			nudge := []float64{1e-13, 4e-12}[(v>>5)&1]
			ring[k] = geom.Point{X: i*0.5 + nudge, Y: float64((v>>3)&3) * 0.5}
		}
	}
	g, err := geom.NewPolygon(ring)
	return g, data[n:], err == nil
}

// FuzzIntersectsMatchesReference checks Intersects, Distance and
// WithinDistance against the every-pair reference on two small
// polygons decoded from the fuzz input (see fuzzPolygon).
func FuzzIntersectsMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 2, 18, 0, 1, 3, 19, 0})               // triangles sharing a vertex
	f.Add([]byte{1, 0, 4, 36, 32, 1, 4, 12, 44, 36, 1})      // squares sharing an edge
	f.Add([]byte{0, 128, 191, 0, 0, 150, 170, 63, 2})        // on the shared slanted line
	f.Add([]byte{1, 0, 2, 18, 16, 1, 194, 196, 212, 210, 3}) // nudged by 1e-13
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest, ok := fuzzPolygon(data)
		if !ok {
			return
		}
		b, rest, ok := fuzzPolygon(rest)
		if !ok {
			return
		}
		d := 0.0
		if len(rest) > 0 {
			d = []float64{0, 1e-13, 0.25, 0.5, 1}[int(rest[0])%5]
		}
		got := geom.Intersects(a, b)
		if want := geom.RefIntersects(a, b); got != want {
			t.Fatalf("Intersects(%v, %v) = %v, reference %v", a, b, got, want)
		}
		if dist := geom.Distance(a, b); (dist == 0) != got {
			t.Fatalf("Distance(%v, %v) = %g but Intersects = %v", a, b, dist, got)
		}
		if w, want := geom.WithinDistance(a, b, d), geom.RefWithinDistance(a, b, d); w != want {
			t.Fatalf("WithinDistance(%v, %v, %g) = %v, reference %v (distance %g)", a, b, d, w, want, geom.RefDistance(a, b))
		}
	})
}
