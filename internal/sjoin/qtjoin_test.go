package sjoin

import (
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/telemetry"
)

func buildQSource(t testing.TB, name string, ds datagen.Dataset, level int) (QSource, Source) {
	t.Helper()
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := quadtree.NewGrid(ds.Bounds, level)
	if err != nil {
		t.Fatal(err)
	}
	qidx, _, err := idxbuild.CreateQuadtree(tab, "geom", grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := idxbuild.CreateRtree(tab, "geom", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return QSource{Table: tab, Column: "geom", Index: qidx},
		Source{Table: tab, Column: "geom", Tree: tree}
}

// TestQuadtreeJoinEqualsRtreeJoin also checks that the quadtree join,
// which drains through the R-tree join's secondary filter, feeds the
// join counters and records primary- and secondary-filter spans.
func TestQuadtreeJoinEqualsRtreeJoin(t *testing.T) {
	qa, sa := buildQSource(t, "stars", datagen.Stars(500, 37), 7)
	want := collect(t, sa, sa, DefaultConfig())
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Instr = NewInstruments(reg)
	cfg.Trace = telemetry.NewTracer(reg, -1, nil).Begin("quadtree stars*stars")
	got, err := QuadtreeJoin(qa, qa, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace.Finish()
	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("quadtree join %d pairs, rtree join %d", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatalf("degenerate test: empty join result")
	}
	if res := lookupValue(t, reg, "join_results_total"); res != int64(len(got)) {
		t.Errorf("join_results_total = %d, want %d", res, len(got))
	}
	if c := lookupValue(t, reg, "join_candidates_total"); c <= 0 {
		t.Errorf("join_candidates_total = %d, want > 0", c)
	}
	for _, s := range []telemetry.Stage{telemetry.StagePrimary, telemetry.StageSecondary} {
		if _, n := cfg.Trace.StageTotal(s); n == 0 {
			t.Errorf("trace recorded no %v spans", s)
		}
	}
}

func TestQuadtreeJoinCountiesEqualsBruteForce(t *testing.T) {
	qa, sa := buildQSource(t, "counties", datagen.Counties(64, 41), 6)
	cfg := DefaultConfig()
	want := bruteForce(t, sa, sa, cfg)
	got, err := QuadtreeJoin(qa, qa, cfg)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("quadtree join %d pairs, brute force %d", len(got), len(want))
	}
}

func TestQuadtreeJoinRejectsDistance(t *testing.T) {
	qa, _ := buildQSource(t, "stars", datagen.Stars(50, 43), 6)
	cfg := DefaultConfig()
	cfg.Distance = 5
	if _, err := QuadtreeJoin(qa, qa, cfg); err == nil {
		t.Fatalf("distance quadtree join: want error")
	}
}
