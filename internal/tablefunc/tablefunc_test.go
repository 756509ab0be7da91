package tablefunc

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spatialtf/internal/storage"
)

// counterFn emits rows base, base+1, ... base+count-1, recording its
// lifecycle for protocol assertions.
type counterFn struct {
	base, count int
	emitted     int
	started     int32
	closed      int32
	startErr    error
	fetchErrAt  int // emit an error when emitted reaches this (0 = never)
}

func (c *counterFn) Start() error {
	atomic.AddInt32(&c.started, 1)
	return c.startErr
}

func (c *counterFn) Fetch(max int) ([]storage.Row, error) {
	var out []storage.Row
	for len(out) < max && c.emitted < c.count {
		if c.fetchErrAt > 0 && c.emitted >= c.fetchErrAt {
			return nil, errors.New("synthetic fetch failure")
		}
		out = append(out, storage.Row{storage.Int(int64(c.base + c.emitted))})
		c.emitted++
	}
	return out, nil
}

func (c *counterFn) Close() error {
	atomic.AddInt32(&c.closed, 1)
	return nil
}

func drainInts(t *testing.T, c storage.Cursor) []int {
	t.Helper()
	var out []int
	for {
		_, row, ok, err := c.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		out = append(out, int(row[0].I))
	}
	c.Close()
	return out
}

func TestPipelineBasic(t *testing.T) {
	fn := &counterFn{base: 0, count: 1000}
	got := drainInts(t, Pipeline(fn, 64))
	if len(got) != 1000 {
		t.Fatalf("pipeline yielded %d rows", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("row %d = %d (order broken)", i, v)
		}
	}
	if fn.started != 1 || fn.closed != 1 {
		t.Errorf("lifecycle: started=%d closed=%d", fn.started, fn.closed)
	}
}

func TestPipelineLazyStart(t *testing.T) {
	fn := &counterFn{base: 0, count: 5}
	c := Pipeline(fn, 2)
	if fn.started != 0 {
		t.Fatalf("function started before first Next")
	}
	if _, _, ok, err := c.Next(); !ok || err != nil {
		t.Fatalf("first Next: %v %v", ok, err)
	}
	if fn.started != 1 {
		t.Fatalf("function not started by first Next")
	}
	c.Close()
}

func TestPipelineStartError(t *testing.T) {
	fn := &counterFn{base: 0, count: 5, startErr: errors.New("cannot start")}
	c := Pipeline(fn, 2)
	if _, _, _, err := c.Next(); err == nil {
		t.Fatalf("start error not surfaced")
	}
	if fn.closed != 1 {
		t.Errorf("function not closed after start error")
	}
}

func TestPipelineFetchError(t *testing.T) {
	fn := &counterFn{base: 0, count: 100, fetchErrAt: 10}
	c := Pipeline(fn, 4)
	seen := 0
	for {
		_, _, ok, err := c.Next()
		if err != nil {
			break
		}
		if !ok {
			t.Fatalf("stream ended without the expected error after %d rows", seen)
		}
		seen++
		if seen > 100 {
			t.Fatalf("no error after %d rows", seen)
		}
	}
	if fn.closed != 1 {
		t.Errorf("function not closed after fetch error")
	}
}

func TestPipelineCloseEarly(t *testing.T) {
	fn := &counterFn{base: 0, count: 1 << 20}
	c := Pipeline(fn, 8)
	c.Next()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fn.closed != 1 {
		t.Errorf("early Close did not close the function")
	}
	if _, _, _, err := c.Next(); err == nil {
		t.Errorf("Next after Close: want error")
	}
}

func TestPipelineEmptyFunction(t *testing.T) {
	fn := &counterFn{count: 0}
	got := drainInts(t, Pipeline(fn, 16))
	if len(got) != 0 {
		t.Fatalf("empty function yielded %d rows", len(got))
	}
	if fn.closed != 1 {
		t.Errorf("empty function not closed")
	}
}

func TestParallelMergesAllPartitions(t *testing.T) {
	// 4 partitions of 250 rows each; the merged stream must be the
	// multiset union.
	var parts []storage.Cursor
	for i := 0; i < 4; i++ {
		parts = append(parts, storage.NewSliceCursor(nil, make([]storage.Row, 0)))
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &counterFn{base: instance * 250, count: 250}, nil
	}
	got := drainInts(t, Parallel(parts, factory, 32))
	if len(got) != 1000 {
		t.Fatalf("parallel yielded %d rows", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("missing or duplicated row near %d (= %d)", i, v)
		}
	}
}

func TestParallelErrorPropagates(t *testing.T) {
	parts := []storage.Cursor{
		storage.NewSliceCursor(nil, nil),
		storage.NewSliceCursor(nil, nil),
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		if instance == 1 {
			return &counterFn{base: 0, count: 100, fetchErrAt: 5}, nil
		}
		return &counterFn{base: 0, count: 100000}, nil
	}
	c := Parallel(parts, factory, 8)
	sawErr := false
	for i := 0; i < 200000; i++ {
		_, _, ok, err := c.Next()
		if err != nil {
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatalf("instance error never surfaced")
	}
	c.Close()
}

func TestParallelFactoryError(t *testing.T) {
	parts := []storage.Cursor{storage.NewSliceCursor(nil, nil)}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return nil, errors.New("factory boom")
	}
	c := Parallel(parts, factory, 8)
	_, _, _, err := c.Next()
	for err == nil {
		var ok bool
		_, _, ok, err = c.Next()
		if !ok && err == nil {
			t.Fatalf("factory error never surfaced")
		}
	}
	c.Close()
}

func TestParallelCloseCancelsInstances(t *testing.T) {
	parts := []storage.Cursor{
		storage.NewSliceCursor(nil, nil),
		storage.NewSliceCursor(nil, nil),
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &counterFn{base: 0, count: 1 << 30}, nil
	}
	c := Parallel(parts, factory, 8)
	if _, _, ok, err := c.Next(); !ok || err != nil {
		t.Fatalf("first Next: %v %v", ok, err)
	}
	// Close must return even though producers have billions of rows
	// left; Parallel's stop channel cancels them.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelConsumesInputCursors(t *testing.T) {
	// The classic use: instances read their own partition.
	tab, err := storage.NewTable("t", []storage.Column{{Name: "v", Type: storage.TInt64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tab.Insert(storage.Row{storage.Int(int64(i))})
	}
	parts := PartitionTable(tab, 4)
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &FuncCursor{
			NextFn: func() (storage.Row, error) {
				_, row, ok, err := input.Next()
				if err != nil || !ok {
					return nil, err
				}
				// Double each value to prove the function transformed it.
				return storage.Row{storage.Int(row[0].I * 2)}, nil
			},
		}, nil
	}
	got := drainInts(t, Parallel(parts, factory, 0))
	if len(got) != 2000 {
		t.Fatalf("got %d rows", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("row %d = %d, want %d", i, v, i*2)
		}
	}
}

func TestParallelNoPartitions(t *testing.T) {
	c := Parallel(nil, func(int, storage.Cursor) (TableFunction, error) {
		return &counterFn{count: 5}, nil
	}, 8)
	got := drainInts(t, c)
	if len(got) != 0 {
		t.Fatalf("no-partition parallel yielded %d rows", len(got))
	}
}

func TestSimulateMatchesParallel(t *testing.T) {
	// The simulator runs the instances Parallel would: same rows, one
	// time per instance, and an instance failure reads the same.
	parts := func() []storage.Cursor {
		return []storage.Cursor{storage.NewSliceCursor(nil, nil), storage.NewSliceCursor(nil, nil), storage.NewSliceCursor(nil, nil)}
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &counterFn{base: instance * 100, count: 100}, nil
	}
	var got []int
	times, err := Simulate(parts(), factory, 16, func(c storage.Cursor) error {
		got = append(got, drainInts(t, c)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("%d instance times, want 3", len(times))
	}
	want := drainInts(t, Parallel(parts(), factory, 16))
	sort.Ints(got)
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("simulated rows differ from Parallel's")
	}

	failing := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &counterFn{count: 100, fetchErrAt: 10 * instance}, nil
	}
	_, simErr := Simulate(parts(), failing, 4, func(c storage.Cursor) error { return nil })
	c := Parallel(parts()[:2], failing, 4)
	var parErr error
	for parErr == nil {
		var ok bool
		if _, _, ok, parErr = c.Next(); !ok && parErr == nil {
			t.Fatal("Parallel: instance error never surfaced")
		}
	}
	c.Close()
	if simErr == nil || simErr.Error() != parErr.Error() {
		t.Fatalf("Simulate error %v, Parallel error %v", simErr, parErr)
	}

	stop := errors.New("consumer refuses")
	if _, err := Simulate(parts(), factory, 16, func(storage.Cursor) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("consumer error = %v, want %v", err, stop)
	}
}

func TestListSchedule(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		var out []time.Duration
		for _, d := range ds {
			out = append(out, time.Duration(d)*time.Millisecond)
		}
		return out
	}
	for _, tc := range []struct {
		times    []time.Duration
		workers  int
		loads    []time.Duration
		makespan time.Duration
	}{
		{ms(5, 3, 2), 4, ms(5, 3, 2, 0), 5 * time.Millisecond},
		{ms(4, 3, 2, 2, 1), 2, ms(6, 6), 6 * time.Millisecond},
		{ms(7), 1, ms(7), 7 * time.Millisecond},
		{nil, 2, ms(0, 0), 0},
	} {
		loads, makespan := ListSchedule(tc.times, tc.workers)
		if fmt.Sprint(loads) != fmt.Sprint(tc.loads) || makespan != tc.makespan {
			t.Errorf("ListSchedule(%v, %d) = %v, %v; want %v, %v", tc.times, tc.workers, loads, makespan, tc.loads, tc.makespan)
		}
	}
}

func TestPartitionTableTinyTable(t *testing.T) {
	tab, err := storage.NewTable("tiny", []storage.Column{{Name: "v", Type: storage.TInt64}})
	if err != nil {
		t.Fatal(err)
	}
	if got := PartitionTable(tab, 4); len(got) != 0 {
		t.Errorf("empty table partitions = %d", len(got))
	}
	tab.Insert(storage.Row{storage.Int(1)})
	parts := PartitionTable(tab, 4)
	if len(parts) != 1 {
		t.Errorf("1-row table partitions = %d", len(parts))
	}
	_, rows, err := storage.Drain(parts[0])
	if err != nil || len(rows) != 1 {
		t.Errorf("partition contents: %d rows, %v", len(rows), err)
	}
}

func TestFuncCursorLifecycle(t *testing.T) {
	n := 0
	started, closed := false, false
	f := &FuncCursor{
		StartFn: func() error { started = true; return nil },
		NextFn: func() (storage.Row, error) {
			if n >= 3 {
				return nil, nil
			}
			n++
			return storage.Row{storage.Int(int64(n))}, nil
		},
		CloseFn: func() error { closed = true; return nil },
	}
	got := drainInts(t, Pipeline(f, 2))
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("FuncCursor rows = %v", got)
	}
	if !started || !closed {
		t.Errorf("lifecycle: started=%v closed=%v", started, closed)
	}
}
