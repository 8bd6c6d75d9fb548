package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// quarantineModel drives one engine allocation and mirrors the quarantine
// it must end up with in a plain set.
type quarantineModel struct {
	t      *testing.T
	eng    *Engine
	a      *ndarray.Array
	alloc  *registry.Allocation
	doomed *registry.Allocation // same array, a range nothing satisfies
	ref    map[int]bool
}

func newQuarantineModel(t *testing.T, eng *Engine, a *ndarray.Array, alloc *registry.Allocation) *quarantineModel {
	m := &quarantineModel{t: t, eng: eng, a: a, ref: map[int]bool{}}
	m.bind(alloc)
	return m
}

func (m *quarantineModel) bind(alloc *registry.Allocation) {
	doomed := *alloc
	doomed.Policy = alloc.Policy.WithRange(1e6, 2e6)
	m.alloc, m.doomed = alloc, &doomed
}

// step applies one operation on off, chosen by op in [0, 10). It may run
// on a writer goroutine, so it reports with Errorf.
func (m *quarantineModel) step(op, off int) {
	t := m.t
	switch {
	case op < 3:
		m.eng.MarkCorrupt(m.alloc, off)
		m.ref[off] = true
	case op < 5:
		m.eng.ClearCorrupt(m.alloc, off)
		delete(m.ref, off)
	case op < 8:
		orig := m.a.AtOffset(off)
		m.a.SetOffset(off, math.NaN())
		if _, err := m.eng.RecoverElement(m.alloc, off); err != nil {
			// Too many quarantined neighbors: the element stays quarantined.
			if !errors.Is(err, ErrCheckpointRestartRequired) {
				t.Errorf("recover %d: %v", off, err)
			}
			m.a.SetOffset(off, orig)
			m.ref[off] = true
		} else {
			delete(m.ref, off)
		}
	default:
		orig := m.a.AtOffset(off)
		m.a.SetOffset(off, math.NaN())
		if _, err := m.eng.RecoverElement(m.doomed, off); !errors.Is(err, ErrCheckpointRestartRequired) {
			t.Errorf("doomed recover %d: err = %v, want checkpoint-restart", off, err)
		}
		m.a.SetOffset(off, orig)
		m.ref[off] = true
	}
}

// want returns the model's quarantined offsets, ascending.
func (m *quarantineModel) want() []int {
	out := make([]int, 0, len(m.ref))
	for off := range m.ref {
		out = append(out, off)
	}
	sort.Ints(out)
	return out
}

func TestQuarantineMatchesModel(t *testing.T) {
	eng := NewEngine(Options{Seed: 21})
	a := smoothArray(40, 24) // 960 elements: 15 bitset words
	alloc := eng.Protect("model", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	m := newQuarantineModel(t, eng, a, alloc)
	rng := rand.New(rand.NewSource(5))

	check := func(step int, probe int) {
		t.Helper()
		for _, off := range []int{probe, rng.Intn(a.Len())} {
			if got := eng.IsQuarantined(m.alloc, off); got != m.ref[off] {
				t.Fatalf("step %d: IsQuarantined(%d) = %v, want %v", step, off, got, m.ref[off])
			}
		}
		if got, want := eng.Quarantined(m.alloc), m.want(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Quarantined = %v, want %v", step, got, want)
		}
		if got := eng.QuarantineCount(); got != len(m.ref) {
			t.Fatalf("step %d: QuarantineCount = %d, want %d", step, got, len(m.ref))
		}
	}

	for step := 0; step < 600; step++ {
		off := rng.Intn(a.Len())
		if rng.Intn(100) == 0 {
			// Teardown drops the whole quarantine, and an unprotected
			// allocation quarantines nothing.
			old := m.alloc
			if err := eng.Unprotect(old); err != nil {
				t.Fatal(err)
			}
			m.ref = map[int]bool{}
			eng.MarkCorrupt(old, off)
			if eng.IsQuarantined(old, off) || len(eng.Quarantined(old)) != 0 || eng.QuarantineCount() != 0 {
				t.Fatalf("step %d: unprotected allocation kept a quarantine", step)
			}
			m.bind(eng.Protect("model", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1)))
			check(step, off)
			continue
		}
		m.step(rng.Intn(10), off)
		check(step, off)
	}
	if len(m.ref) == 0 {
		t.Fatal("sequence ended with an empty quarantine; it exercised too little")
	}
}

// TestQuarantineConcurrentWriters runs one model per writer. Writer w owns
// the offsets congruent to w modulo the writer count, so its marks and
// clears share bitset words with every other writer; its recoveries stay
// inside its own stripe band, whose lock range no other writer's band
// reaches.
func TestQuarantineConcurrentWriters(t *testing.T) {
	const writers, cols = 4, 16
	eng := NewEngine(Options{Seed: 22})
	rows := stripeRowsFor(eng.opts)
	a := smoothArray((4*writers+1)*rows, cols)
	alloc := eng.Protect("shared", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))

	models := make([]*quarantineModel, writers)
	var wg sync.WaitGroup
	for w := range models {
		m := newQuarantineModel(t, eng, a, alloc)
		models[w] = m
		band := (4*w + 1) * rows * cols // first offset of stripe 4w+1
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 300; i++ {
				op := rng.Intn(10)
				var off int
				if op < 5 {
					off = rng.Intn(a.Len()/writers)*writers + w
				} else {
					off = band + rng.Intn(rows*cols/writers)*writers + w
				}
				m.step(op, off)
				if got := eng.IsQuarantined(alloc, off); got != m.ref[off] {
					t.Errorf("writer %d op %d: IsQuarantined(%d) = %v, want %v", w, i, off, got, m.ref[off])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var want []int
	for _, m := range models {
		want = append(want, m.want()...)
	}
	sort.Ints(want)
	if got := eng.Quarantined(alloc); !slices.Equal(got, want) {
		t.Fatalf("Quarantined = %v, want %v", got, want)
	}
	if got := eng.QuarantineCount(); got != len(want) {
		t.Fatalf("QuarantineCount = %d, want %d", got, len(want))
	}
}

// TestQuarantineBitsetConcurrentFlips hammers the bitset itself: writers
// flip disjoint bits of the same two words, so any bit update that is not
// one atomic read-modify-write loses another writer's bit.
func TestQuarantineBitsetConcurrentFlips(t *testing.T) {
	const writers, n = 4, 128
	q := quarantine{n: n}
	models := make([]map[int]bool, writers)
	var wg sync.WaitGroup
	for w := range models {
		models[w] = map[int]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20000; i++ {
				off := rng.Intn(n/writers)*writers + w
				if rng.Intn(2) == 0 {
					q.add(off)
					models[w][off] = true
				} else {
					q.remove(off)
					delete(models[w], off)
				}
			}
		}(w)
	}
	wg.Wait()
	var want []int
	for _, m := range models {
		for off := range m {
			want = append(want, off)
		}
	}
	sort.Ints(want)
	if got := q.offsets(); !slices.Equal(got, want) {
		t.Fatalf("offsets = %v, want %v", got, want)
	}
	if got := q.count.Load(); got != int64(len(want)) {
		t.Fatalf("count = %d, want %d", got, len(want))
	}
}
