package sjoin

import (
	"fmt"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
)

// buildInteriorSource loads ds and creates its R-tree with interior
// approximations.
func buildInteriorSource(t testing.TB, name string, ds datagen.Dataset) Source {
	t.Helper()
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := idxbuild.CreateRtreeOpts(tab, "geom", idxbuild.RtreeOptions{
		Workers:        1,
		InteriorEffort: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Source{Table: tab, Column: "geom", Tree: tree}
}

func TestInteriorJoinMatchesPlainJoin(t *testing.T) {
	ds := datagen.Stars(800, 211)
	plain := buildSource(t, "plain", ds)
	withInt := buildInteriorSource(t, "interior", ds)

	cfg := DefaultConfig()
	cur, err := IndexJoin(plain, plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(want)

	icfg := cfg
	icfg.UseInteriorApprox = true
	fn, err := NewJoinFunction(withInt, withInt, icfg)
	if err != nil {
		t.Fatal(err)
	}
	count, stats, err := RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same rowid layout in both tables (loaded identically), so counts
	// and pair sets must match.
	if count != len(want) {
		t.Fatalf("interior join %d pairs, plain join %d", count, len(want))
	}
	if stats.FastAccepts == 0 {
		t.Errorf("no fast accepts on overlapping star data")
	}
	// Fast accepts must reduce secondary-filter work.
	plainFn, err := NewJoinFunction(withInt, withInt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, plainStats, err := RunJoinFunction(plainFn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GeomFetches >= plainStats.GeomFetches {
		t.Errorf("fast accepts did not reduce geometry fetches: %d vs %d",
			stats.GeomFetches, plainStats.GeomFetches)
	}
	// Exact pair-set equality.
	pcur, err := IndexJoin(withInt, withInt, icfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectPairs(pcur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("interior join pair set differs from plain join")
	}
	// The grid path's tile sweeps emit through the same step, so it
	// fast-accepts too, under the simulator and the parallel instances.
	want = nestedPairs(t, withInt, withInt, cfg)
	res, err := SimulateGridJoin(withInt, withInt, icfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FastAccepts == 0 {
		t.Errorf("grid path made no fast accepts on overlapping star data")
	}
	got = append(got[:0], res.Pairs...)
	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("simulated interior grid join %d pairs, nested loop %d", len(got), len(want))
	}
	if got := gridPairs(t, withInt, withInt, icfg, 4); !pairsEqual(got, want) {
		t.Fatalf("parallel interior grid join %d pairs, nested loop %d", len(got), len(want))
	}
}

func TestInteriorFastAcceptDisabledCases(t *testing.T) {
	ds := datagen.Stars(300, 223)
	src := buildInteriorSource(t, "src", ds)

	// Distance joins must not use the fast accept (interior overlap
	// does not prove a distance bound tighter than 0, and the predicate
	// differs); verify results still match brute force.
	cfg := DefaultConfig()
	cfg.Distance = 2
	cfg.UseInteriorApprox = true
	fn, err := NewJoinFunction(src, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FastAccepts != 0 {
		t.Errorf("distance join used %d fast accepts", stats.FastAccepts)
	}
	// TOUCH joins likewise.
	cfg = Config{Mask: geom.MaskTouch, SortCandidates: true, UseInteriorApprox: true}
	fn, err = NewJoinFunction(src, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err = RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FastAccepts != 0 {
		t.Errorf("touch join used %d fast accepts", stats.FastAccepts)
	}
	// Enabling the flag over an index without interiors is a no-op.
	plain := buildSource(t, "plain2", ds)
	cfg = DefaultConfig()
	cfg.UseInteriorApprox = true
	fn, err = NewJoinFunction(plain, plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err = RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FastAccepts != 0 {
		t.Errorf("interior-less index produced %d fast accepts", stats.FastAccepts)
	}
}

func TestInteriorJoinCounties(t *testing.T) {
	// Counties touch at boundaries; interiors never overlap across
	// distinct counties, but self-pairs fast-accept (interior ∩ interior
	// of the same polygon). The result set must match the plain join on
	// the R-tree and the grid path. One county is the shape where a
	// refill yields only fast accepts and no candidates: Fetch must
	// still return them rather than report the end of the join.
	for _, n := range []int{49, 1} {
		src := buildInteriorSource(t, fmt.Sprintf("counties_i%d", n), datagen.Counties(n, 227))
		cfg := DefaultConfig()
		want := collect(t, src, src, cfg)
		icfg := cfg
		icfg.UseInteriorApprox = true
		if got := collect(t, src, src, icfg); !pairsEqual(got, want) {
			t.Errorf("%d counties: interior join %d pairs, plain %d", n, len(got), len(want))
		}
		if got := gridPairs(t, src, src, icfg, 2); !pairsEqual(got, want) {
			t.Errorf("%d counties: interior grid join %d pairs, plain %d", n, len(got), len(want))
		}
	}
}
