// Package tablefunc implements Oracle 9i's parallel and pipelined table
// functions (§2 of the paper) on goroutines and channels.
//
// A table function is "a function that can produce a set of rows as
// output" and can be used in place of a table in a FROM clause. Two
// properties matter to the paper:
//
//  1. Pipelining — results are produced through a start-fetch-close
//     interface, iteratively, "essential to support table functions that
//     return a large set of rows that cannot fit in memory". The
//     TableFunction interface here is exactly start/fetch/close, and
//     Pipeline adapts it to a pull cursor.
//
//  2. Parallelism — a table function "directly accept[s] a set of rows
//     (a cursor)" and the runtime "allows a set of input rows to be
//     partitioned across multiple instances of a parallel function".
//     Parallel runs one instance per input partition on its own
//     goroutine and funnels their fetch batches into one output stream.
package tablefunc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"spatialtf/internal/storage"
)

// DefaultBatch is the default number of rows per fetch call.
const DefaultBatch = 256

// TableFunction is the ODCITable-style start-fetch-close contract.
// Implementations are driven by a single goroutine: Start once, Fetch
// until it returns an empty batch, then Close exactly once.
type TableFunction interface {
	// Start acquires resources and prepares iteration.
	Start() error
	// Fetch returns up to max result rows. An empty (or nil) slice
	// signals exhaustion.
	Fetch(max int) ([]storage.Row, error)
	// Close releases resources. It is called even after errors.
	Close() error
}

// Factory builds one instance of a parallel table function over one
// partition of the input cursor. The instance number is informational
// (labels, affinity).
type Factory func(instance int, input storage.Cursor) (TableFunction, error)

// --- pipelined (serial) execution ---

// pipelineCursor adapts a TableFunction to storage.Cursor, fetching
// batches lazily.
type pipelineCursor struct {
	fn      TableFunction
	batch   int
	buf     []storage.Row
	pos     int
	started bool
	done    bool
	closed  bool
}

// Pipeline returns a cursor that lazily drives fn. batch <= 0 selects
// DefaultBatch. The returned cursor yields InvalidRowID for every row
// (table-function output rows are synthesized, not stored).
func Pipeline(fn TableFunction, batch int) storage.Cursor {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &pipelineCursor{fn: fn, batch: batch}
}

func (c *pipelineCursor) Next() (storage.RowID, storage.Row, bool, error) {
	if c.closed {
		return storage.InvalidRowID, nil, false, errors.New("tablefunc: cursor used after Close")
	}
	if !c.started {
		c.started = true
		if err := c.fn.Start(); err != nil {
			c.done = true
			c.fn.Close()
			return storage.InvalidRowID, nil, false, fmt.Errorf("tablefunc: start: %w", err)
		}
	}
	for c.pos >= len(c.buf) {
		if c.done {
			return storage.InvalidRowID, nil, false, nil
		}
		rows, err := c.fn.Fetch(c.batch)
		if err != nil {
			c.done = true
			c.fn.Close()
			return storage.InvalidRowID, nil, false, fmt.Errorf("tablefunc: fetch: %w", err)
		}
		if len(rows) == 0 {
			c.done = true
			c.fn.Close()
			return storage.InvalidRowID, nil, false, nil
		}
		c.buf = rows
		c.pos = 0
	}
	row := c.buf[c.pos]
	c.pos++
	return storage.InvalidRowID, row, true, nil
}

func (c *pipelineCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.started && !c.done {
		return c.fn.Close()
	}
	return nil
}

// --- parallel execution ---

// parallelCursor merges the output of N instances running concurrently.
type parallelCursor struct {
	out    chan []storage.Row
	errs   chan error
	stop   chan struct{}
	once   sync.Once
	wg     *sync.WaitGroup
	buf    []storage.Row
	pos    int
	failed error
	done   bool
}

// Parallel runs one table-function instance per partition, each on its
// own goroutine, pipelining fetch batches into the returned cursor. The
// inter-instance row order is unspecified (a SQL row source is a set).
// The first instance error aborts the whole function and surfaces from
// Next. batch <= 0 selects DefaultBatch.
func Parallel(partitions []storage.Cursor, factory Factory, batch int) storage.Cursor {
	if batch <= 0 {
		batch = DefaultBatch
	}
	c := &parallelCursor{
		out:  make(chan []storage.Row, len(partitions)),
		errs: make(chan error, len(partitions)),
		stop: make(chan struct{}),
		wg:   &sync.WaitGroup{},
	}
	for i, part := range partitions {
		c.wg.Add(1)
		go func(i int, part storage.Cursor) {
			defer c.wg.Done()
			defer part.Close()
			if err := runInstance(i, part, factory, batch, c.send); err != nil {
				select {
				case c.errs <- err:
				default:
				}
			}
		}(i, part)
	}
	go func() {
		c.wg.Wait()
		close(c.out)
	}()
	return c
}

// runInstance builds instance i over part and drives it start-fetch-
// close to exhaustion, handing every fetch batch to emit; emit returning
// false stops the instance early. Parallel runs it on one goroutine per
// partition, Simulate on the calling goroutine, so both report an
// instance's failure the same way.
func runInstance(i int, part storage.Cursor, factory Factory, batch int, emit func([]storage.Row) bool) error {
	fn, err := factory(i, part)
	if err != nil {
		return fmt.Errorf("tablefunc: instance %d: %w", i, err)
	}
	defer fn.Close()
	if err := fn.Start(); err != nil {
		return fmt.Errorf("tablefunc: instance %d start: %w", i, err)
	}
	for {
		rows, err := fn.Fetch(batch)
		if err != nil {
			return fmt.Errorf("tablefunc: instance %d fetch: %w", i, err)
		}
		if len(rows) == 0 || !emit(rows) {
			return nil
		}
	}
}

// send hands one instance's batch to the consumer, or reports false once
// the cursor is shutting down.
func (c *parallelCursor) send(rows []storage.Row) bool {
	select {
	case c.out <- rows:
		return true
	case <-c.stop:
		return false
	}
}

func (c *parallelCursor) Next() (storage.RowID, storage.Row, bool, error) {
	if c.failed != nil {
		return storage.InvalidRowID, nil, false, c.failed
	}
	if c.done {
		return storage.InvalidRowID, nil, false, nil
	}
	for c.pos >= len(c.buf) {
		select {
		case err := <-c.errs:
			c.failed = err
			c.shutdown()
			return storage.InvalidRowID, nil, false, err
		case rows, ok := <-c.out:
			if !ok {
				// Producers finished; surface a late error if any.
				select {
				case err := <-c.errs:
					c.failed = err
					return storage.InvalidRowID, nil, false, err
				default:
				}
				c.done = true
				return storage.InvalidRowID, nil, false, nil
			}
			c.buf = rows
			c.pos = 0
		}
	}
	row := c.buf[c.pos]
	c.pos++
	return storage.InvalidRowID, row, true, nil
}

func (c *parallelCursor) shutdown() {
	c.once.Do(func() { close(c.stop) })
}

// Close cancels outstanding instances and waits for them to exit.
func (c *parallelCursor) Close() error {
	c.shutdown()
	// Drain so producers blocked on send can observe stop and finish.
	go func() {
		for range c.out {
		}
	}()
	c.wg.Wait()
	c.done = true
	return nil
}

// --- simulated parallel execution ---

// Simulate is Parallel's multi-processor simulator mode, for hosts with
// fewer cores than the degree of parallelism being measured. It builds
// the same instances from factory over the same partitions and drives
// each with the same loop, but one at a time on the calling goroutine,
// handing every fetch batch to consume as a cursor. Each instance's run
// (its fetches plus consume) is timed in isolation; the returned
// per-instance times are the input of ListSchedule. An instance's
// failure reads exactly as Parallel reports it, and consume's error is
// returned as is; all partitions are closed on return. batch <= 0
// selects DefaultBatch.
func Simulate(partitions []storage.Cursor, factory Factory, batch int, consume func(storage.Cursor) error) ([]time.Duration, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	defer func() {
		for _, part := range partitions {
			part.Close()
		}
	}()
	times := make([]time.Duration, 0, len(partitions))
	for i, part := range partitions {
		var cerr error
		t0 := time.Now()
		err := runInstance(i, part, factory, batch, func(rows []storage.Row) bool {
			cerr = consume(storage.NewSliceCursor(nil, rows))
			return cerr == nil
		})
		if err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
	}
	return times, nil
}

// ListSchedule assigns task times, in order, greedily to the least
// loaded of `workers` virtual processors (ties to the lowest index) and
// returns the processors' busy times and the makespan (their max). With
// at most `workers` tasks every task gets its own processor — the static
// partitions of Parallel; with more it is the schedule dynamic dealing
// (the grid join's shared tile queue) produces.
func ListSchedule(times []time.Duration, workers int) ([]time.Duration, time.Duration) {
	loads := make([]time.Duration, max(workers, 1))
	for _, d := range times {
		w := 0
		for i := 1; i < len(loads); i++ {
			if loads[i] < loads[w] {
				w = i
			}
		}
		loads[w] += d
	}
	var makespan time.Duration
	for _, l := range loads {
		makespan = max(makespan, l)
	}
	return loads, makespan
}
