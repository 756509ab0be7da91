package idxbuild

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

func TestCreateQuadtreeSimMatchesReal(t *testing.T) {
	ds := datagen.BlockGroups(200, 401)
	tab := loadTable(t, ds)
	grid, err := quadtree.NewGrid(ds.Bounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	win := geom.MBR{MinX: 100, MinY: 100, MaxX: 300, MaxY: 300}
	for _, w := range []int{1, 2, 4} {
		real, _, err := CreateQuadtree(tab, "geom", grid, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sim, stats, err := CreateQuadtreeSim(tab, "geom", grid, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sim.EntryCount() != real.EntryCount() || stats.Entries != real.EntryCount() {
			t.Fatalf("workers=%d: %d entries (stats %d), real build %d", w, sim.EntryCount(), stats.Entries, real.EntryCount())
		}
		if stats.Workers != w || stats.Rows != tab.Len() || stats.Total <= 0 {
			t.Errorf("workers=%d: stats %+v", w, stats)
		}
		if len(stats.InstanceTimes) != w {
			t.Errorf("workers=%d: %d instance times", w, len(stats.InstanceTimes))
		}
		// The makespan is the max instance time.
		if stats.LoadPhase != slices.Max(stats.InstanceTimes) {
			t.Errorf("workers=%d: load phase %v != max instance %v", w, stats.LoadPhase, slices.Max(stats.InstanceTimes))
		}
		// Same candidates for a probe window.
		if !sameRowIDs(sim.WindowCandidates(win), real.WindowCandidates(win)) {
			t.Fatalf("workers=%d: window candidates differ from the real build's", w)
		}
	}
}

func TestCreateRtreeSimMatchesReal(t *testing.T) {
	ds := datagen.BlockGroups(2000, 409)
	tab := loadTable(t, ds)
	for _, w := range []int{1, 2, 4} {
		real, _, err := CreateRtree(tab, "geom", 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sim, stats, err := CreateRtreeSim(tab, "geom", 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := sim.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if stats.Total <= 0 || stats.Rows != tab.Len() || stats.Entries != tab.Len() {
			t.Errorf("workers=%d: stats %+v", w, stats)
		}
		got, want := sortedItems(sim), sortedItems(real)
		if len(got) != tab.Len() || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: simulated build's %d items differ from the real build's %d", w, len(got), len(want))
		}
	}
}

func TestCreateRtreeSimBadColumn(t *testing.T) {
	tab := loadTable(t, datagen.Stars(10, 419))
	if _, _, err := CreateRtreeSim(tab, "nope", 0, 2); err == nil {
		t.Errorf("bad column: want error")
	}
	grid, _ := quadtree.NewGrid(datagen.World, 5)
	if _, _, err := CreateQuadtreeSim(tab, "nope", grid, 2); err == nil {
		t.Errorf("bad column quadtree sim: want error")
	}
}

func TestCreateRtreeWithInterior(t *testing.T) {
	ds := datagen.Counties(36, 421)
	tab := loadTable(t, ds)
	tree, stats, err := CreateRtreeOpts(tab, "geom", RtreeOptions{Workers: 2, InteriorEffort: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != tab.Len() {
		t.Fatalf("stats %+v", stats)
	}
	// Every leaf item of fat county polygons should carry a non-trivial
	// interior approximation contained in its MBR.
	withInterior := 0
	for _, it := range tree.Items() {
		if it.Interior.Area() > 0 {
			withInterior++
			if !it.MBR.Contains(it.Interior) {
				t.Fatalf("interior %v escapes MBR %v", it.Interior, it.MBR)
			}
		}
	}
	if withInterior < tab.Len()*3/4 {
		t.Errorf("only %d of %d items have interiors", withInterior, tab.Len())
	}
	// Without the option, none do.
	plain, _, err := CreateRtree(tab, "geom", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range plain.Items() {
		if it.Interior.Area() > 0 {
			t.Fatalf("plain build produced an interior approximation")
		}
	}
}

func TestCreateRtreeInvalidMBR(t *testing.T) {
	// One point with a NaN vertex among 300 valid stars: both modes
	// refuse the build, and report it the same way.
	ds := datagen.Stars(300, 431)
	ds.Geoms = append(ds.Geoms[:150], append([]geom.Geometry{geom.NewPoint(math.NaN(), 5)}, ds.Geoms[150:]...)...)
	tab := loadTable(t, ds)
	for _, w := range []int{1, 4} {
		var msgs []string
		for _, build := range []func(*storage.Table, string, int, int) (*rtree.Tree, Stats, error){CreateRtree, CreateRtreeSim} {
			tree, _, err := build(tab, "geom", 0, w)
			if err == nil || !strings.Contains(err.Error(), "has invalid MBR") || tree != nil {
				t.Fatalf("workers=%d: tree %v, err %v; want a nil tree and an invalid-MBR error", w, tree, err)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Errorf("workers=%d: real build reports %q, simulated %q", w, msgs[0], msgs[1])
		}
	}
}

// sortedItems returns tr's items ordered by rowid.
func sortedItems(tr *rtree.Tree) []rtree.Item {
	items := tr.Items()
	slices.SortFunc(items, func(a, b rtree.Item) int { return a.ID.Compare(b.ID) })
	return items
}

// sameRowIDs reports whether a and b hold the same rowids, in any order.
func sameRowIDs(a, b []storage.RowID) bool {
	set := map[storage.RowID]int{}
	for _, id := range a {
		set[id]++
	}
	for _, id := range b {
		set[id]--
	}
	for _, n := range set {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestParallelBulkLoadSimSmallInput(t *testing.T) {
	// Tiny inputs take the sequential path and still report a cluster
	// time.
	items := []rtree.Item{
		{MBR: geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: storage.RowID{Page: 1, Slot: 0}},
	}
	tree, cluster, serial := rtree.ParallelBulkLoadSim(items, 8, 4)
	if tree.Len() != 1 || serial != 0 || cluster < 0 {
		t.Fatalf("tiny sim build: len=%d cluster=%v serial=%v", tree.Len(), cluster, serial)
	}
	empty, _, _ := rtree.ParallelBulkLoadSim(nil, 8, 4)
	if empty.Len() != 0 {
		t.Fatalf("empty sim build has %d items", empty.Len())
	}
}
