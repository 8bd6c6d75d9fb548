//go:build !race

// Allocation assertions are skipped under -race: the race runtime
// instruments map and sync accesses with allocations the production
// build never makes.

package core

import (
	"math"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// maxElementAllocs bounds one corrupt-report-recover cycle. The array's
// record holds a pooled Env, its quarantine bitset is allocated once, and a
// batch of one keeps its bookkeeping on the stack, so a warm cycle
// allocates nothing; the slack covers the trace collector's occasional
// summary copies.
const maxElementAllocs = 4

func TestRecoverElementAllocs(t *testing.T) {
	eng := NewEngine(Options{Seed: 7})
	a := ndarray.New(256, 64)
	a.FillFunc(func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	off := a.Offset(128, 32)
	// One corrupt-report-recover cycle, as BenchmarkRecoveryHotPath/Single
	// runs it: the intake quarantines the element before recovery starts.
	recover := func() {
		a.SetOffset(off, math.NaN())
		eng.MarkCorrupt(alloc, off)
		if _, err := eng.RecoverElement(alloc, off); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the per-array tables, and let the slowest-trace ring fill, so
	// its occasional summary copies do not count against the bound.
	for i := 0; i < 1000; i++ {
		recover()
	}
	if n := testing.AllocsPerRun(1000, recover); n > maxElementAllocs {
		t.Errorf("RecoverElement: %v allocs/op, want <= %d", n, maxElementAllocs)
	}
}
