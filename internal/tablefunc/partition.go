package tablefunc

import (
	"spatialtf/internal/storage"
)

// PartitionTable splits a table scan into up to n page-range cursors —
// the runtime's input-cursor partitioning for a parallel table function
// whose operand is "select * from t". Tiny tables yield fewer
// partitions.
func PartitionTable(t *storage.Table, n int) []storage.Cursor {
	ranges := t.PageRanges(n)
	out := make([]storage.Cursor, 0, len(ranges))
	for _, r := range ranges {
		out = append(out, storage.NewRangeCursor(t, r[0], r[1]))
	}
	return out
}

// FuncCursor wraps a plain next-function as a TableFunction, for small
// generators (test fixtures, synthesized streams). next returns nil when
// exhausted.
type FuncCursor struct {
	StartFn func() error
	NextFn  func() (storage.Row, error)
	CloseFn func() error
}

// Start implements TableFunction.
func (f *FuncCursor) Start() error {
	if f.StartFn != nil {
		return f.StartFn()
	}
	return nil
}

// Fetch implements TableFunction.
func (f *FuncCursor) Fetch(max int) ([]storage.Row, error) {
	var out []storage.Row
	for len(out) < max {
		row, err := f.NextFn()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	return out, nil
}

// Close implements TableFunction.
func (f *FuncCursor) Close() error {
	if f.CloseFn != nil {
		return f.CloseFn()
	}
	return nil
}
