// Command sjoin runs a spatial join over two generated datasets and
// prints result counts and timings — a CLI front end for the
// spatial_join table function.
//
// Usage:
//
//	sjoin -a counties:400 -b counties:400 -mask anyinteract
//	sjoin -a stars:5000 -b stars:5000 -distance 2 -parallel 4
//	sjoin -a stars:5000 -b stars:5000 -strategy nestedloop
//	sjoin -a counties:100 -b stars:2000 -print 10
//
// Dataset specs are name:count with name one of counties, stars,
// blockgroups.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spatialtf"
)

func main() {
	var (
		aSpec    = flag.String("a", "counties:400", "first dataset as name:count")
		bSpec    = flag.String("b", "counties:400", "second dataset as name:count")
		mask     = flag.String("mask", "anyinteract", "relate mask (anyinteract, touch, overlap, ...)")
		distance = flag.Float64("distance", 0, "within-distance predicate instead of the mask")
		parallel = flag.Int("parallel", 1, "worker count the join is planned for (0 = every core)")
		strategy = flag.String("strategy", "index", "join strategy: index or nestedloop")
		seed     = flag.Int64("seed", 1, "generator seed")
		printN   = flag.Int("print", 0, "print the first N result pairs")
	)
	flag.Parse()

	db := spatialtf.Open()
	load := func(label, spec string) string {
		ds, err := parseDataset(spec, *seed)
		if err != nil {
			fatal(err)
		}
		name := fmt.Sprintf("%s_%s", label, ds.Name)
		if _, err := db.LoadDataset(name, ds); err != nil {
			fatal(err)
		}
		if _, err := db.CreateIndex(name+"_idx", name, spatialtf.RTree, spatialtf.IndexOptions{}); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d rows of %s loaded and R-tree indexed\n", name, len(ds.Geoms), ds.Name)
		return name
	}
	ta := load("a", *aSpec)
	tb := load("b", *bSpec)

	opt := spatialtf.JoinOptions{Mask: *mask, Distance: *distance, Parallel: *parallel}
	t0 := time.Now()
	var pairs []spatialtf.Pair
	var err error
	switch *strategy {
	case "nestedloop":
		pairs, err = db.NestedLoopJoin(ta, ta+"_idx", tb, tb+"_idx", opt)
	case "index":
		var cur *spatialtf.JoinCursor
		cur, err = db.SpatialJoin(ta, ta+"_idx", tb, tb+"_idx", opt)
		if err == nil {
			pairs, err = cur.Collect()
		}
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)
	fmt.Printf("join (%s, mask=%s, distance=%g, parallel=%d): %d pairs in %s\n",
		*strategy, *mask, *distance, *parallel, len(pairs), elapsed.Round(time.Microsecond))

	if *printN > 0 {
		tabA, _ := db.Table(ta)
		tabB, _ := db.Table(tb)
		for i, p := range pairs {
			if i >= *printN {
				break
			}
			ra, _ := tabA.Fetch(p.A)
			rb, _ := tabB.Fetch(p.B)
			fmt.Printf("  %s <-> %s\n", ra[1].S, rb[1].S)
		}
	}
}

func parseDataset(spec string, seed int64) (spatialtf.Dataset, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return spatialtf.Dataset{}, fmt.Errorf("dataset spec %q is not name:count", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return spatialtf.Dataset{}, fmt.Errorf("dataset spec %q has bad count", spec)
	}
	switch parts[0] {
	case "counties":
		return spatialtf.Counties(n, seed), nil
	case "stars":
		return spatialtf.Stars(n, seed), nil
	case "blockgroups":
		return spatialtf.BlockGroups(n, seed), nil
	default:
		return spatialtf.Dataset{}, fmt.Errorf("unknown dataset %q (counties, stars, blockgroups)", parts[0])
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sjoin: %v\n", err)
	os.Exit(1)
}
