package main

import "strings"

// expectation records, before any optimisation is measured, which
// end-to-end metric a per-layer metric should move and on which
// workloads, and where it should not move (the workload that bypasses
// the layer, where the prediction is no change).
type expectation struct {
	moves string // end-to-end metric and workloads it should move
	flat  string // workloads where it should not move ("" = none named)
}

// expectations is keyed by metric-name prefix; the longest matching
// prefix applies. The traced run prints each per-layer metric's entry,
// and the self-test checks that every per-layer metric has one.
var expectations = map[string]expectation{
	"geom.relate":                 {"p50_ms on star_join", "mixed_serve"},
	"geom.within_distance":        {"p50_ms on cluster_scatter", "mixed_serve"},
	"rtree.":                      {"p50_ms on mixed_serve", "star_join"},
	"sjoin.":                      {"p50_ms, ops_per_s on star_join and cluster_scatter", "mixed_serve"},
	"sjoin.grid_":                 {"p50_ms on star_join once a default plan takes the grid path", "mixed_serve"},
	"sjoin.subtree_":              {"p50_ms on star_join once a default plan takes the subtree path", "mixed_serve"},
	"tablefunc.":                  {"p50_ms on star_join", "mixed_serve"},
	"sqlmini.":                    {"p50_ms on mixed_serve", "star_join"},
	"sqlmini.exec_self":           {"p50_ms on star_join and mixed_serve", ""},
	"wire.":                       {"ops_per_s on star_join; p50_ms on mixed_serve", ""},
	"server.":                     {"ops_per_s on star_join; p50_ms on mixed_serve", ""},
	"pager.":                      {"cpu_ms_per_op, p90_ms on mixed_serve", "star_join, cluster_scatter"},
	"pager.checkpoint":            {"setup_s on mixed_serve", "star_join, cluster_scatter"},
	"cluster.":                    {"p50_ms, cpu_ms_per_op on cluster_scatter", "star_join, mixed_serve"},
	"idxbuild.":                   {"setup_s on star_join", ""},
	"spatialtf.reopen":            {"setup_s on mixed_serve", ""},
	"spatialtf.relate_self":       {"p50_ms on mixed_serve", "star_join"},
	"telemetry.":                  {"none: kept within the 2% tracing budget", ""},
	"ladder.relate":               {"p50_ms on star_join", "mixed_serve"},
	"ladder.facade":               {"p50_ms on star_join", "mixed_serve"},
	"ladder.sqlmini":              {"p50_ms on star_join", "mixed_serve"},
	"ladder.wire":                 {"p50_ms on star_join", "mixed_serve"},
	"ladder.keyed":                {"p50_ms on cluster_scatter", "mixed_serve"},
	"ladder.router":               {"p50_ms on cluster_scatter", "star_join, mixed_serve"},
	"ladder.window_":              {"p50_ms on mixed_serve", "star_join"},
	"sjoin.nosort":                {"p50_ms on star_join if the candidate sort changes", "mixed_serve"},
	"sjoin.nocache":               {"p50_ms on star_join if the geometry cache changes", "mixed_serve"},
	"sjoin.ablation_default":      {"p50_ms on star_join", "mixed_serve"},
	"sjoin.geom_cache_hit_frac":   {"p50_ms on star_join and cluster_scatter", "mixed_serve"},
	"sjoin.fast_accepts":          {"p50_ms on star_join (ANYINTERACT only)", "cluster_scatter, mixed_serve"},
	"sjoin.results_per_candidate": {"p50_ms on star_join and cluster_scatter", "mixed_serve"},
}

// expect returns the expectation of a per-layer metric.
func expect(name string) (expectation, bool) {
	best := ""
	for p := range expectations {
		if strings.HasPrefix(name, p) && len(p) > len(best) {
			best = p
		}
	}
	e, ok := expectations[best]
	return e, ok && best != ""
}
