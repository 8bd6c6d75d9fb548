package predict

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The Env contract: seeding is lazy but the stream is rand.NewSource's,
// and a reused Env after Reset predicts exactly like a fresh one.

func TestRandomStreamMatchesSource(t *testing.T) {
	a := fill([]int{50}, func(idx []int) float64 { return float64(idx[0]) })
	lo, hi := 0.0, 49.0
	draw := func(env *Env) float64 {
		v, err := (Random{}).Predict(env, []int{10})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := func(r *rand.Rand) float64 { return lo + r.Float64()*(hi-lo) }

	for _, seed := range []int64{0, 1, 42, -7} {
		env := NewEnv(a, seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			if got, w := draw(env), want(ref); got != w {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, i, got, w)
			}
		}
		// Restart midway through the stream, both ways.
		for _, restart := range []func(int64){env.Reseed, env.Reset} {
			s2 := seed + 100
			restart(s2)
			ref = rand.New(rand.NewSource(s2))
			for i := 0; i < 5; i++ {
				if got, w := draw(env), want(ref); got != w {
					t.Fatalf("seed %d after restart, draw %d: got %v, want %v", s2, i, got, w)
				}
			}
		}
	}
}

// envMethods is every method a pooled Env must reproduce.
func envMethods() []Method {
	return append(HeadlineMethods(), MethodLorenzo2, MethodLorenzo3, MethodLorenzo4, MethodLorenzoAuto)
}

func TestResetEnvMatchesFreshEnv(t *testing.T) {
	a := fill([]int{24, 20}, func(idx []int) float64 {
		return 10 + 4*math.Sin(float64(idx[0])/3) + 2*math.Cos(float64(idx[1])/5) + 0.1*float64(idx[0]*idx[1]%7)
	})
	quarantined := map[int]bool{a.Offset(12, 11): true, a.Offset(5, 5): true, a.Offset(13, 10): true}
	maskFn := func(off int) bool { return quarantined[off] }
	shared := NewSharedStats(a)
	for off := range quarantined {
		shared.Exclude(off)
	}
	targets := [][]int{{12, 10}, {0, 0}, {5, 6}, {23, 19}, {1, 10}}
	const seed = 31

	for _, withShared := range []bool{false, true} {
		bind := func(env *Env) *Env {
			env.SetMaskFunc(maskFn)
			if withShared {
				env.SetShared(shared)
			}
			return env
		}
		// Dirty a reused Env: extra masks and allows, a drawn stream, a
		// cached range and warm scratch, then Reset it.
		pooled := bind(NewEnv(a, 99))
		pooled.Mask(a.Offset(12, 9), a.Offset(11, 10), a.Offset(0, 1))
		pooled.Allow(a.Offset(5, 5))
		for _, m := range envMethods() {
			for _, idx := range targets {
				_, _ = New(m).Predict(pooled, idx)
			}
		}
		pooled.Reset(seed)

		for _, m := range envMethods() {
			fresh := bind(NewEnv(a, seed))
			for _, idx := range targets {
				want, werr := New(m).Predict(fresh, idx)
				got, gerr := New(m).Predict(pooled, idx)
				if !errors.Is(gerr, werr) || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("shared=%v %v at %v: reset Env gave (%v, %v), fresh Env (%v, %v)",
						withShared, m, idx, got, gerr, want, werr)
				}
			}
			// Keep the two streams aligned for the next method.
			pooled.Reset(seed)
		}
	}
}
