//go:build !race

// Allocation assertions are skipped under -race: the race runtime
// instruments map and sync accesses with allocations the production
// build never makes.

package predict

import "testing"

// TestNewEnvDoesNotSeed: building an Env and predicting with a method that
// never draws must not seed a random source; the Env itself is the only
// allocation.
func TestNewEnvDoesNotSeed(t *testing.T) {
	env, idx := allocField()
	a := env.A
	p := Lorenzo{Layers: 1}
	n := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(NewEnv(a, 1), idx); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("NewEnv + Lorenzo1: %v allocs/op, want <= 1", n)
	}
}
