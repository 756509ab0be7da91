package sjoin

import (
	"time"

	"spatialtf/internal/tablefunc"
)

// This file provides a deterministic multi-processor simulator for the
// parallel join. The paper's experiments ran on a 4-CPU Sun; on hosts
// with fewer cores than the requested degree of parallelism, goroutine
// wall-clock cannot show the speedup the paper measures. The simulator
// executes each parallel instance's work serially, times each instance
// in isolation, and reports the parallel makespan: the maximum instance
// time (all instances start together on their own processor and the
// join finishes when the slowest does). Partitioning, task assignment,
// and all results are identical to ParallelIndexJoin.

// SimResult reports a simulated parallel run.
type SimResult struct {
	// Pairs is the join result (identical to the goroutine-parallel
	// execution up to order).
	Pairs []Pair
	// Elapsed is the simulated parallel makespan: max over instances.
	Elapsed time.Duration
	// InstanceTimes are the per-instance busy times; their max is
	// Elapsed, their sum approximates the 1-processor time.
	InstanceTimes []time.Duration
	// Stats aggregates the work counters across instances.
	Stats JoinStats
}

// SimulateParallelIndexJoin runs the §4.1 parallel join under the
// multi-processor simulator with the given degree of parallelism: the
// instances ParallelIndexJoin would start are built by the same setup,
// then each is driven to completion serially through its pipelined
// cursor and timed in isolation.
func SimulateParallelIndexJoin(a, b Source, cfg Config, workers int) (SimResult, error) {
	fns, workers, err := subtreeInstances(a, b, cfg, workers)
	if err != nil {
		return SimResult{}, err
	}
	var res SimResult
	times := make([]time.Duration, 0, len(fns))
	for _, fn := range fns {
		t0 := time.Now()
		pairs, err := CollectPairs(tablefunc.Pipeline(fn, fn.cfg.FetchBatch))
		if err != nil {
			return SimResult{}, err
		}
		times = append(times, time.Since(t0))
		res.Pairs = append(res.Pairs, pairs...)
		res.Stats.add(fn.Stats())
	}
	res.InstanceTimes, res.Elapsed = tablefunc.ListSchedule(times, workers)
	return res, nil
}
