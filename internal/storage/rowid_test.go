package storage

import (
	"fmt"
	"math"
	"testing"
)

func TestRowIDString(t *testing.T) {
	for _, r := range []RowID{{0, 0}, {1, 2}, {math.MaxUint32, math.MaxUint16}} {
		if got, want := r.String(), fmt.Sprintf("%d.%d", r.Page, r.Slot); got != want {
			t.Errorf("RowID%v.String() = %q, want %q", [2]uint64{uint64(r.Page), uint64(r.Slot)}, got, want)
		}
	}
}
