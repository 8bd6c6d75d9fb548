package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/sdrbench"
)

func benchEngine(b *testing.B, ny, nx int) (*Engine, *ndarray.Array, *registry.Allocation) {
	b.Helper()
	eng := NewEngine(Options{Seed: 7})
	a := ndarray.New(ny, nx)
	a.FillFunc(func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	alloc := eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	return eng, a, alloc
}

// BenchmarkRecoveryHotPath is the CI-tracked recovery benchmark:
// Single is one corrupt-and-recover cycle, Batch amortizes one
// RecoverBatch call over 16 co-located members, Contended8 drives
// 8 goroutines against one array with stripe-disjoint row bands, and
// Tuned3D is one RECOVER_ANY cycle on a 32x32x32 field with no tune cache,
// so every iteration runs the auto-tuner over the masked neighborhood.
func BenchmarkRecoveryHotPath(b *testing.B) {
	b.Run("Single", func(b *testing.B) {
		eng, a, alloc := benchEngine(b, 256, 64)
		off := a.Offset(128, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.SetOffset(off, math.NaN())
			eng.MarkCorrupt(alloc, off)
			if _, err := eng.RecoverElement(alloc, off); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Batch16", func(b *testing.B) {
		eng, a, alloc := benchEngine(b, 256, 64)
		offs := make([]int, 16)
		for i := range offs {
			offs[i] = a.Offset(8+i*15, (i*7)%64)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, off := range offs {
				a.SetOffset(off, math.NaN())
				eng.MarkCorrupt(alloc, off)
			}
			for _, r := range eng.RecoverBatch(ctx, alloc, offs, nil) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(offs))/b.Elapsed().Seconds(), "recoveries/s")
	})

	b.Run("Contended8", func(b *testing.B) {
		eng, a, alloc := benchEngine(b, 256, 64)
		var gid int32
		b.ReportAllocs()
		b.SetParallelism(1) // 8-way comes from the row bands below, capped at GOMAXPROCS
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			band := int(atomic.AddInt32(&gid, 1)-1) % 8
			row := band * 32
			col := 0
			for pb.Next() {
				off := a.Offset(row+(col%30)+1, col%64)
				col++
				a.SetOffset(off, math.NaN())
				eng.MarkCorrupt(alloc, off)
				if _, err := eng.RecoverElement(alloc, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("Tuned3D", func(b *testing.B) {
		eng := NewEngine(Options{Seed: 7})
		ds := sdrbench.Generate(sdrbench.Nyx, "temperature", sdrbench.ScaleSmall)
		a := ds.Array
		alloc := eng.Protect(ds.Name, a, ds.DType, registry.RecoverAny())
		off := a.Offset(16, 16, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.SetOffset(off, math.NaN())
			eng.MarkCorrupt(alloc, off)
			if _, err := eng.RecoverElement(alloc, off); err != nil {
				b.Fatal(err)
			}
		}
	})
}
